"""Forward pass of the bifurcated folding head applied before a detector.

The module is point-wise: every spatial position is processed independently
by the same little network, so the output commutes with any spatial
permutation of the input.

Pipeline for an input with K temporal slots per polarity (2K channels,
channel c = 2*slot + polarity, slot 0 newest):

1. Folding stages. Stage s takes M slots per polarity and produces
   ceil(M/2) by aggregating adjacent slot pairs (2j, 2j+1) with a learned
   weight pair + bias per (polarity, output slot); an odd trailing slot is
   paired with an implicit zero. Weight pairs are weight-normalized
   (scale * w / ||w||) and outputs pass through ReLU.
2. Bypass. After every stage the newest slot of each polarity (2 channels)
   is sliced off and retained.
3. Fusion. The retained slices concatenate (stage order, polarity 0 then 1)
   and feed a 2-layer perceptron: out = W2 @ relu(W1 @ f + b1) + b2.

Weight files: save_weights writes one tensor-container file per parameter
plus a ``manifest.json``:

    {"version": 1, "queue_depth": K,
     "stages": [{"weights": "...", "bias": "...", "scale": "..."}, ...],
     "mlp": {"w1": "...", "b1": "...", "w2": "...", "b2": "..."}}

Parameters are stored with their natural shape right-padded to 3-D (stage
weights (2, out_slots, 2); biases/scales (1, 2, out_slots); MLP matrices
(1, rows, cols); MLP biases (1, 1, n)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EvrepError, InvalidParamError
from .io import read_tensor, write_tensor
from .model import TensorCHW


def _relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0)


def _param(name: str, value, shape: tuple[int | None, ...]) -> np.ndarray:
    """value as a float32 array of the given shape, where None is any size.
    A wrong shape raises EvrepError, a non-finite value InvalidParamError
    (a finite value past float32's range casts to inf, silently)."""
    with np.errstate(over="ignore"):
        a = np.asarray(value, dtype=np.float32)
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        want = ", ".join("any" if n is None else str(n) for n in shape)
        got = ", ".join(map(str, a.shape))
        raise EvrepError(f"{name} must have shape ({want}), got ({got})")
    if not np.all(np.isfinite(a)):
        raise InvalidParamError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class FoldStage:
    """One pair-aggregation stage: per (polarity, output slot) a weight pair,
    bias and weight-normalization scale."""

    weights: np.ndarray  # (2, out_slots, 2) float32
    bias: np.ndarray     # (2, out_slots)
    scale: np.ndarray    # (2, out_slots)

    def __post_init__(self):
        w = _param("stage weights", self.weights, (2, None, 2))
        b = _param("stage bias", self.bias, w.shape[:2])
        s = _param("stage scale", self.scale, w.shape[:2])
        if np.any(np.linalg.norm(w, axis=-1) == 0.0):
            raise InvalidParamError("weight pairs must have non-zero norm")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "scale", s)

    @property
    def out_slots(self) -> int:
        return int(self.weights.shape[1])

    def normalized_weights(self) -> np.ndarray:
        norm = np.linalg.norm(self.weights, axis=-1, keepdims=True)
        return self.scale[..., None] * self.weights / norm


@dataclass(frozen=True)
class BfmWeights:
    """Full parameter set; validates the dimension chain end to end."""

    queue_depth: int
    stages: tuple[FoldStage, ...]
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray

    def __post_init__(self):
        if self.queue_depth < 1:
            raise InvalidParamError("queue_depth must be >= 1")
        if not self.stages:
            raise EvrepError("at least one folding stage is required")
        slots = self.queue_depth
        for i, stage in enumerate(self.stages):
            expected = (slots + 1) // 2
            if stage.out_slots != expected:
                raise EvrepError(
                    f"stage {i}: expected {expected} output slots for {slots} inputs, "
                    f"got {stage.out_slots}"
                )
            slots = expected

        w1 = _param("mlp_w1", self.mlp_w1, (None, 2 * len(self.stages)))
        b1 = _param("mlp_b1", self.mlp_b1, w1.shape[:1])
        w2 = _param("mlp_w2", self.mlp_w2, (None, w1.shape[0]))
        b2 = _param("mlp_b2", self.mlp_b2, w2.shape[:1])
        object.__setattr__(self, "mlp_w1", w1)
        object.__setattr__(self, "mlp_b1", b1)
        object.__setattr__(self, "mlp_w2", w2)
        object.__setattr__(self, "mlp_b2", b2)

    @property
    def in_channels(self) -> int:
        return 2 * self.queue_depth

    @property
    def out_channels(self) -> int:
        return int(self.mlp_w2.shape[0])


def default_stage_count(queue_depth: int) -> int:
    """Stages needed to fold K slots down to one: ceil(log2 K), at least 1."""
    return max(1, math.ceil(math.log2(queue_depth))) if queue_depth > 1 else 1


def random_weights(
    queue_depth: int,
    out_channels: int | None = None,
    seed: int = 0,
) -> BfmWeights:
    """Randomly initialized weights with the default schedule.

    ceil(log2 K) folding stages, MLP hidden width twice the retained channel
    count, and 2K output channels unless overridden.
    """
    rng = np.random.default_rng(seed)
    stages = []
    slots = queue_depth
    for _ in range(default_stage_count(queue_depth)):
        out = (slots + 1) // 2
        stages.append(
            FoldStage(
                weights=rng.normal(0.0, 1.0, size=(2, out, 2)),
                bias=rng.normal(0.0, 0.1, size=(2, out)),
                scale=rng.uniform(0.5, 1.5, size=(2, out)),
            )
        )
        slots = out
    retained = 2 * len(stages)
    hidden = 2 * retained
    s_star = 2 * queue_depth if out_channels is None else out_channels
    return BfmWeights(
        queue_depth=queue_depth,
        stages=tuple(stages),
        mlp_w1=rng.normal(0.0, 1.0 / math.sqrt(retained), size=(hidden, retained)),
        mlp_b1=rng.normal(0.0, 0.1, size=(hidden,)),
        mlp_w2=rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(s_star, hidden)),
        mlp_b2=rng.normal(0.0, 0.1, size=(s_star,)),
    )


def identity_stage(out_slots: int) -> FoldStage:
    """Stage that reproduces the even (newer) slot of each pair unchanged."""
    weights = np.zeros((2, out_slots, 2), dtype=np.float32)
    weights[..., 0] = 1.0
    return FoldStage(
        weights=weights,
        bias=np.zeros((2, out_slots), dtype=np.float32),
        scale=np.ones((2, out_slots), dtype=np.float32),
    )


def bfm_forward(tensor: TensorCHW, weights: BfmWeights) -> TensorCHW:
    """Apply the folding head point-wise; (2K, H, W) in, (S*, H, W) out."""
    a = np.asarray(tensor, dtype=np.float32)
    if a.ndim != 3 or a.shape[0] != weights.in_channels:
        raise EvrepError(f"expected ({weights.in_channels}, H, W) input, got {a.shape}")
    _, h, w = a.shape
    k = weights.queue_depth
    # channel 2*slot + polarity -> slots[pol, slot]
    slots = a.reshape(k, 2, h, w).transpose(1, 0, 2, 3)

    retained = []
    for stage in weights.stages:
        m = slots.shape[1]
        if m % 2:
            pad = np.zeros((2, 1, h, w), dtype=np.float32)
            slots = np.concatenate([slots, pad], axis=1)
        left = slots[:, 0::2]
        right = slots[:, 1::2]
        wn = stage.normalized_weights()
        slots = _relu(
            wn[..., 0, None, None] * left
            + wn[..., 1, None, None] * right
            + stage.bias[..., None, None]
        )
        retained.append(slots[:, 0])

    features = np.concatenate(retained, axis=0).reshape(-1, h * w)
    hidden = _relu(weights.mlp_w1 @ features + weights.mlp_b1[:, None])
    out = weights.mlp_w2 @ hidden + weights.mlp_b2[:, None]
    return np.ascontiguousarray(out.reshape(weights.out_channels, h, w), dtype=np.float32)


def save_weights(weights: BfmWeights, directory: str | Path) -> None:
    """Write one tensor file per parameter plus the manifest (see module docs)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest: dict = {"version": 1, "queue_depth": weights.queue_depth, "stages": []}
    for i, stage in enumerate(weights.stages):
        names = {k: f"stage{i}.{k}.evtn" for k in ("weights", "bias", "scale")}
        write_tensor(stage.weights, directory / names["weights"])
        write_tensor(stage.bias[None, ...], directory / names["bias"])
        write_tensor(stage.scale[None, ...], directory / names["scale"])
        manifest["stages"].append(names)

    mlp_names = {k: f"mlp.{k}.evtn" for k in ("w1", "b1", "w2", "b2")}
    write_tensor(weights.mlp_w1[None, ...], directory / mlp_names["w1"])
    write_tensor(weights.mlp_b1[None, None, ...], directory / mlp_names["b1"])
    write_tensor(weights.mlp_w2[None, ...], directory / mlp_names["w2"])
    write_tensor(weights.mlp_b2[None, None, ...], directory / mlp_names["b2"])
    manifest["mlp"] = mlp_names

    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_weights(directory: str | Path) -> BfmWeights:
    """Inverse of save_weights. A manifest that is not the object save_weights
    writes raises EvrepError."""
    directory = Path(directory)
    path = directory / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        if manifest.get("version") != 1:
            raise EvrepError(f"unsupported weight manifest version {manifest.get('version')}")
        queue_depth = int(manifest["queue_depth"])
        stages = [[directory / e[k] for k in ("weights", "bias", "scale")]
                  for e in manifest["stages"]]
        w1, b1, w2, b2 = (directory / manifest["mlp"][k] for k in ("w1", "b1", "w2", "b2"))
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        why = f"{type(exc).__name__}: {exc}"
        raise EvrepError(f"{path}: malformed weight manifest ({why})") from None
    return BfmWeights(
        queue_depth=queue_depth,
        stages=tuple(FoldStage(read_tensor(w), read_tensor(b)[0], read_tensor(s)[0])
                     for w, b, s in stages),
        mlp_w1=read_tensor(w1)[0],
        mlp_b1=read_tensor(b1)[0, 0],
        mlp_w2=read_tensor(w2)[0],
        mlp_b2=read_tensor(b2)[0, 0],
    )
