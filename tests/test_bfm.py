import dataclasses
import json

import numpy as np
import pytest

from evrep.augment import flip_h
from evrep.bfm import (
    BfmWeights,
    FoldStage,
    bfm_forward,
    identity_stage,
    load_weights,
    random_weights,
    save_weights,
)
from evrep.errors import EvrepError, InvalidParamError


def _random_input(rng, k, h, w):
    return rng.random((2 * k, h, w)).astype(np.float32)


def _zero_bias(weights: BfmWeights) -> BfmWeights:
    stages = tuple(
        FoldStage(s.weights, np.zeros_like(s.bias), s.scale) for s in weights.stages
    )
    return BfmWeights(
        queue_depth=weights.queue_depth,
        stages=stages,
        mlp_w1=weights.mlp_w1,
        mlp_b1=np.zeros_like(weights.mlp_b1),
        mlp_w2=weights.mlp_w2,
        mlp_b2=np.zeros_like(weights.mlp_b2),
    )


def test_zero_input_zero_bias_gives_zero_output(rng):
    weights = _zero_bias(random_weights(4, seed=7))
    out = bfm_forward(np.zeros((8, 5, 6), dtype=np.float32), weights)
    assert out.shape == (8, 5, 6)
    assert not out.any()


def test_identity_stage_passes_newest_slot_through():
    # K=2, one identity stage, identity MLP: output = the two newest-slot channels
    stage = identity_stage(1)
    weights = BfmWeights(
        queue_depth=2,
        stages=(stage,),
        mlp_w1=np.eye(2, dtype=np.float32),
        mlp_b1=np.zeros(2, dtype=np.float32),
        mlp_w2=np.eye(2, dtype=np.float32),
        mlp_b2=np.zeros(2, dtype=np.float32),
    )
    rng = np.random.default_rng(3)
    x = rng.random((4, 3, 4)).astype(np.float32)  # non-negative, ReLU transparent
    out = bfm_forward(x, weights)
    assert np.array_equal(out[0], x[0])  # polarity 0, slot 0
    assert np.array_equal(out[1], x[1])  # polarity 1, slot 0


def test_output_shape_for_default_schedule(rng):
    for k in (2, 4, 8):
        weights = random_weights(k, seed=k)
        out = bfm_forward(_random_input(rng, k, 6, 7), weights)
        assert out.shape == (2 * k, 6, 7)


def test_spatial_locality(rng):
    k = 4
    weights = random_weights(k, seed=11)
    x = _random_input(rng, k, 4, 4)
    base = bfm_forward(x, weights)
    for y in range(4):
        for xx in range(4):
            bumped = x.copy()
            bumped[:, y, xx] += 0.5
            out = bfm_forward(bumped, weights)
            diff = np.any(base != out, axis=0)
            assert diff[y, xx]
            diff[y, xx] = False
            assert not diff.any()


def test_flip_equivariance(rng):
    weights = random_weights(4, seed=21)
    x = _random_input(rng, 4, 6, 9)
    lhs = flip_h(bfm_forward(x, weights))
    rhs = bfm_forward(flip_h(x), weights)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_determinism(rng):
    weights = random_weights(8, seed=5)
    x = _random_input(rng, 8, 5, 5)
    assert np.array_equal(bfm_forward(x, weights), bfm_forward(x, weights))


def test_stage_intermediates_non_negative(rng):
    # replay the stage arithmetic and assert every post-activation value >= 0
    weights = random_weights(4, seed=9)
    x = _random_input(rng, 4, 3, 3)
    slots = x.reshape(4, 2, 3, 3).transpose(1, 0, 2, 3)
    for stage in weights.stages:
        if slots.shape[1] % 2:
            slots = np.concatenate([slots, np.zeros_like(slots[:, :1])], axis=1)
        wn = stage.normalized_weights()
        slots = np.maximum(
            wn[..., 0, None, None] * slots[:, 0::2]
            + wn[..., 1, None, None] * slots[:, 1::2]
            + stage.bias[..., None, None],
            0.0,
        )
        assert np.all(slots >= 0.0)


def test_dim_mismatch_on_wrong_input(rng):
    weights = random_weights(4, seed=2)
    with pytest.raises(EvrepError, match=r"^expected \(8, H, W\) input, got \(6, 4, 4\)$"):
        bfm_forward(np.zeros((6, 4, 4), dtype=np.float32), weights)


def test_inconsistent_stage_chain_rejected():
    with pytest.raises(EvrepError, match="^stage 0: expected 2 output slots for 4 inputs, got 3$"):
        BfmWeights(
            queue_depth=4,
            stages=(identity_stage(3),),  # 4 slots must fold to 2, not 3
            mlp_w1=np.eye(2, dtype=np.float32),
            mlp_b1=np.zeros(2, dtype=np.float32),
            mlp_w2=np.eye(2, dtype=np.float32),
            mlp_b2=np.zeros(2, dtype=np.float32),
        )


def test_zero_weight_pair_rejected():
    with pytest.raises(InvalidParamError):
        FoldStage(
            weights=np.zeros((2, 1, 2), dtype=np.float32),
            bias=np.zeros((2, 1), dtype=np.float32),
            scale=np.ones((2, 1), dtype=np.float32),
        )


def _stage(**arrays) -> FoldStage:
    return FoldStage(**{"weights": np.ones((2, 1, 2)), "bias": np.zeros((2, 1)),
                        "scale": np.ones((2, 1)), **arrays})


def _weights(**arrays) -> BfmWeights:
    # K = 2, one identity stage and an identity MLP, with arrays replaced
    return BfmWeights(**{"queue_depth": 2, "stages": (identity_stage(1),),
                         "mlp_w1": np.eye(2), "mlp_b1": np.zeros(2),
                         "mlp_w2": np.eye(2), "mlp_b2": np.zeros(2), **arrays})


@pytest.mark.parametrize("build,arrays,message", [
    (_stage, {"weights": np.ones((2, 1, 3))},
     r"stage weights must have shape \(2, any, 2\), got \(2, 1, 3\)"),
    (_stage, {"scale": np.ones((2, 2))}, r"stage scale must have shape \(2, 1\), got \(2, 2\)"),
    (_weights, {"mlp_w1": np.eye(3)}, r"mlp_w1 must have shape \(any, 2\), got \(3, 3\)"),
    (_weights, {"mlp_b2": np.zeros((1, 2))}, r"mlp_b2 must have shape \(2\), got \(1, 2\)"),
], ids=["stage-weights", "stage-scale", "mlp-w1", "mlp-b2"])
def test_parameter_of_wrong_shape_rejected(build, arrays, message):
    with pytest.raises(EvrepError, match=f"^{message}$") as exc:
        build(**arrays)
    assert type(exc.value) is EvrepError


@pytest.mark.parametrize("build,name,value", [
    (_stage, "bias", [[0.0], [np.nan]]),
    (_weights, "mlp_w2", [[1.0, np.inf], [0.0, 1.0]]),
    # finite, but past float32's range: the cast gives inf, without a warning
    (_stage, "scale", [[1e300], [1.0]]),
], ids=["stage-bias-nan", "mlp-w2-inf", "stage-scale-1e300"])
def test_non_finite_parameter_rejected(build, name, value):
    label = name if name.startswith("mlp") else f"stage {name}"
    with pytest.raises(InvalidParamError, match=f"^{label} must be finite$"):
        build(**{name: value})


def test_weight_file_round_trip(rng, tmp_path):
    weights = random_weights(8, seed=31)
    save_weights(weights, tmp_path / "w")
    loaded = load_weights(tmp_path / "w")
    x = _random_input(rng, 8, 4, 4)
    assert np.array_equal(bfm_forward(x, weights), bfm_forward(x, loaded))


@pytest.mark.parametrize("edit", [
    lambda m: {k: v for k, v in m.items() if k != "stages"},
    lambda m: [m],
    lambda m: {**m, "queue_depth": "four"},
    lambda m: {**m, "stages": [{**m["stages"][0], "bias": 5}, *m["stages"][1:]]},
    lambda m: {**m, "mlp": None},
    lambda m: "{not json",
], ids=["no-stages", "json-list", "queue-depth-word", "file-name-number", "mlp-null", "bad-json"])
def test_malformed_manifest_is_one_line_evrep_error(edit, tmp_path):
    save_weights(random_weights(4, seed=3), tmp_path)
    manifest = tmp_path / "manifest.json"
    edited = edit(json.loads(manifest.read_text()))
    manifest.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with pytest.raises(EvrepError, match=r"manifest\.json: malformed weight manifest \(") as exc:
        load_weights(tmp_path)
    assert type(exc.value) is EvrepError and len(str(exc.value).splitlines()) == 1


@pytest.mark.parametrize("field, value, error, message", [
    ("queue_depth", 0, InvalidParamError, "queue_depth must be >= 1"),
    ("stages", (), EvrepError, "at least one folding stage is required"),
], ids=["queue-depth-0", "no-stage"])
def test_manifest_outside_the_weights_domain_is_rejected(field, value, error, message, tmp_path):
    # well-formed JSON, so the manifest reader passes it on, and BfmWeights refuses it
    save_weights(random_weights(4, seed=3), tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), field: value}))
    with pytest.raises(error, match=f"^{message}$"):
        load_weights(tmp_path)
    with pytest.raises(error, match=f"^{message}$"):
        dataclasses.replace(random_weights(4, seed=3), **{field: value})


def test_unsupported_manifest_version_is_one_line_evrep_error(tmp_path):
    # well-formed in every other field, so only the version check refuses it
    save_weights(random_weights(4, seed=3), tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "version": 2}))
    with pytest.raises(EvrepError, match="^unsupported weight manifest version 2$") as exc:
        load_weights(tmp_path)
    assert type(exc.value) is EvrepError


def _fold(out_slots: int, pair) -> FoldStage:
    # every (polarity, output slot) gets the weight pair given, at its own norm
    weights = np.tile(np.asarray(pair, dtype=np.float32), (2, out_slots, 1))
    return FoldStage(weights=weights, bias=np.zeros((2, out_slots)),
                     scale=np.full((2, out_slots), np.linalg.norm(pair)))


@pytest.mark.parametrize("queue_depth, stages, expected", [
    # one slot pairs with the implicit zero: 3 * x[p, 0] + 4 * 0
    (1, (_fold(1, (3, 4)),), [[3.0], [1.5]]),
    # stage 0 folds (x0, x1) and (x2, zero), stage 1 adds its two slots:
    # polarity 0 (1, 2, 3) gives 3 + 8 = 11 and 9, then 20;
    # polarity 1 (0.5, 0.25, 2) gives 1.5 + 1 = 2.5 and 6, then 8.5
    (3, (_fold(2, (3, 4)), _fold(1, (1, 1))), [[11.0], [2.5], [20.0], [8.5]]),
], ids=["K=1", "K=3"])
def test_odd_slot_pairs_with_a_zero_slot(queue_depth, stages, expected):
    # slot values per polarity (slot 0 newest), read in channel order 2 * slot + p
    slots = np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 2.0]], dtype=np.float32)[:, :queue_depth]
    x = slots.T.reshape(2 * queue_depth, 1, 1)
    retained = 2 * len(stages)
    weights = BfmWeights(queue_depth=queue_depth, stages=stages,
                         mlp_w1=np.eye(retained), mlp_b1=np.zeros(retained),
                         mlp_w2=np.eye(retained), mlp_b2=np.zeros(retained))
    # the identity MLP passes the retained newest slots through, stage by stage
    out = bfm_forward(x, weights)
    assert np.array_equal(out[:, :, 0], np.array(expected, dtype=np.float32))
