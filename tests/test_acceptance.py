"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print. Tolerances are fixed here, not configurable.
"""

import functools
import math
import time

import numpy as np

from evrep.augment import AugmentConfig, augment, flip_h
from evrep.bfm import bfm_forward, random_weights
from evrep.encoders import (
    WindowState,
    event_count_image,
    event_volume,
    sae_init,
    surface_active_events,
)
from evrep.evalmap import EvalConfig, map_metric
from evrep.io import (
    read_annotations_csv,
    read_detections_csv,
    read_events_binary,
    read_events_csv,
    read_flow,
    read_tensor,
    write_annotations_csv,
    write_detections_csv,
    write_events_binary,
    write_events_csv,
    write_flow,
    write_tensor,
)
from evrep.model import (
    Annotation,
    Detection,
    EncoderParams,
    EventStream,
    FlowField,
    FrameGeometry,
    WindowView,
)
from evrep.motion import motion_levels
from evrep.taf import taf_init, taf_render, taf_step, transform_elapse

from conftest import make_random_stream
from taf_oracle import taf_batch_oracle

SENSOR = FrameGeometry(304, 240, 60_000_000)
DT = 10_000
T_MAX = 60_000_000


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")

        return wrapper

    return decorate


def _run_incremental(stream, n_steps, queue_depth):
    state = taf_init(stream.geometry, EncoderParams(delta_tau_us=DT, queue_depth=queue_depth))
    for n in range(n_steps):
        window = WindowView.from_stream(stream, n * DT, (n + 1) * DT, (n + 1) * DT)
        taf_step(state, window)
    return taf_render(state)


@criterion("taf-equivalence: incremental == batch oracle on >=50 random streams")
def test_taf_incremental_equals_batch_oracle():
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    cases = 0
    worst = 0.0
    for i in range(50):
        if i < 40:  # broad sweep: sparse windows, many steps
            n_events = int(rng.integers(0, 20_001))
            n_steps = int(rng.integers(1, 81))
        elif i < 48:  # heavier streams up to the stated bounds
            n_events = int(rng.integers(50_000, 100_001))
            n_steps = int(rng.integers(100, 201))
        else:  # everything packed into a few windows: dense update path
            n_events = 80_000
            n_steps = 4
        k = 4 if i % 2 == 0 else 8
        stream = make_random_stream(rng, SENSOR, n_events, t_hi=n_steps * DT)
        inc = _run_incremental(stream, n_steps, k)
        oracle = taf_batch_oracle(stream, n_steps * DT, DT, k, T_MAX)
        diff = float(np.max(np.abs(inc - oracle))) if inc.size else 0.0
        worst = max(worst, diff)
        assert diff <= 1e-6, f"stream {i}: max abs diff {diff}"
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 50
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.1f} s"


@criterion("transform endpoints: F(0)=1, F(T_max)=0, strictly decreasing")
def test_transform_endpoints_and_monotonicity():
    assert abs(transform_elapse(0, T_MAX) - 1.0) < 1e-12
    assert abs(transform_elapse(T_MAX, T_MAX)) < 1e-12
    grid = np.linspace(0, T_MAX, 10_000)
    values = transform_elapse(grid, T_MAX)
    assert np.all(np.diff(values) < 0)


@criterion("representation timing: taf step < 10 ms median; count faster than volume")
def test_representation_timing():
    rng = np.random.default_rng(7)
    n_windows = 12
    n = n_windows * 100_000
    t = np.sort(rng.integers(0, n_windows * DT, size=n))
    stream = EventStream.from_arrays(
        SENSOR, t,
        rng.integers(0, SENSOR.width, n),
        rng.integers(0, SENSOR.height, n),
        rng.integers(0, 2, n),
    )

    state = taf_init(SENSOR, EncoderParams(delta_tau_us=DT, queue_depth=4))
    samples = []
    for i in range(n_windows):
        window = WindowView.from_stream(stream, i * DT, (i + 1) * DT, (i + 1) * DT)
        assert len(window) > 90_000  # ~1e5 in-window events per step
        t0 = time.perf_counter()
        taf_step(state, window)
        samples.append((time.perf_counter() - t0) * 1e3)
    median = sorted(samples)[len(samples) // 2]
    assert median < 10.0, f"taf step median {median:.2f} ms"

    t_n = 10 * DT
    params = EncoderParams(delta_tau_us=DT, bins=5, recent_events=50_000)
    event_volume(stream, t_n, WindowState(stream.geometry, params))
    event_count_image(stream, t_n, WindowState(stream.geometry, params))
    vol, cnt = [], []
    for _ in range(9):
        t0 = time.perf_counter()
        event_volume(stream, t_n, WindowState(stream.geometry, params))
        vol.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        event_count_image(stream, t_n, WindowState(stream.geometry, params))
        cnt.append(time.perf_counter() - t0)
    assert sorted(cnt)[4] < sorted(vol)[4]


@criterion("encoder conservation: volume mass == window count; count mass == min(N, available)")
def test_encoder_mass_conservation():
    rng = np.random.default_rng(11)
    geo = FrameGeometry(32, 24, 1_000_000)
    for _ in range(1000):
        stream = make_random_stream(rng, geo, int(rng.integers(0, 1000)))
        t_n = int(rng.integers(1, geo.t_max_us))
        dt = int(rng.integers(1_000, 100_000))
        b = int(rng.integers(1, 7))
        volume = event_volume(
            stream, t_n, WindowState(stream.geometry, EncoderParams(delta_tau_us=dt, bins=b))
        )
        in_window = int(np.sum((stream.t >= t_n - b * dt) & (stream.t < t_n)))
        assert float(volume.sum()) == in_window

        n = int(rng.integers(1, 1500))
        image = event_count_image(
            stream, t_n, WindowState(stream.geometry, EncoderParams(recent_events=n))
        )
        available = int(np.searchsorted(stream.t, t_n, side="left"))
        assert float(image.sum()) == min(n, available)


@criterion("sae range and monotonicity: values in [0, 1]; recency never decreases a cell")
def test_sae_range_and_recency_monotonicity():
    rng = np.random.default_rng(13)
    geo = FrameGeometry(32, 24, 1_000_000)
    stream = make_random_stream(rng, geo, 2_000)
    t_n = 900_000
    params = EncoderParams(sae_decay_per_us=1e-5)
    base = surface_active_events(stream, t_n, sae_init(geo, params))
    assert np.all(base >= 0.0) and np.all(base <= 1.0)

    eligible = np.nonzero(stream.t < t_n)[0]
    for _ in range(1000):
        idx = int(rng.choice(eligible))
        old_t = int(stream.t[idx])
        new_t = int(rng.integers(old_t, t_n))
        x, y, p = int(stream.x[idx]), int(stream.y[idx]), int(stream.p[idx])
        # re-insert the event at its more recent time, keeping order sorted
        t2 = np.delete(np.asarray(stream.t), idx)
        x2 = np.delete(np.asarray(stream.x), idx)
        y2 = np.delete(np.asarray(stream.y), idx)
        p2 = np.delete(np.asarray(stream.p), idx)
        pos = int(np.searchsorted(t2, new_t, side="right"))
        bumped = EventStream.from_arrays(
            geo,
            np.insert(t2, pos, new_t),
            np.insert(x2, pos, x),
            np.insert(y2, pos, y),
            np.insert(p2, pos, p),
        )
        value = surface_active_events(bumped, t_n, sae_init(geo, params))[p, y, x]
        assert value >= base[p, y, x]
        assert 0.0 <= value <= 1.0


@criterion("map oracle fixtures: perfect -> 1.0; IoU-0.6 -> 0.3; threshold monotone")
def test_map_oracle_fixtures():
    cfg = EvalConfig()
    anns = [Annotation(0, 10, 10, 20, 20, 0), Annotation(1000, 40, 3, 7, 11, 1)]
    perfect = [Detection(a.t, a.x, a.y, a.w, a.h, a.class_id, 1.0) for a in anns]
    assert map_metric(perfect, anns, cfg).overall_map == 1.0

    gt = [Annotation(0, 0, 0, 10, 10, 0)]
    det = [Detection(0, 2.5, 0, 10, 10, 0, 1.0)]  # IoU exactly 0.6
    assert math.isclose(map_metric(det, gt, cfg).overall_map, 0.3)

    rng = np.random.default_rng(17)
    for _ in range(100):
        anns = [
            Annotation(
                int(rng.integers(0, 3)) * 1000,
                float(rng.uniform(0, 80)), float(rng.uniform(0, 80)),
                float(rng.uniform(4, 20)), float(rng.uniform(4, 20)),
                int(rng.integers(0, 2)),
            )
            for _ in range(10)
        ]
        dets = [
            Detection(
                int(rng.integers(0, 3)) * 1000,
                float(rng.uniform(0, 80)), float(rng.uniform(0, 80)),
                float(rng.uniform(4, 20)), float(rng.uniform(4, 20)),
                int(rng.integers(0, 2)), float(rng.uniform(0.01, 1.0)),
            )
            for _ in range(18)
        ]
        result = map_metric(dets, anns, cfg)
        values = [result.per_threshold[t] for t in cfg.iou_thresholds]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@criterion("motion levels: 1000 iid values give 200 +/- 10 per level, monotone")
def test_motion_level_mass_and_monotonicity():
    rng = np.random.default_rng(19)
    values = rng.random(1000)
    levels = motion_levels(values)
    counts = np.bincount(levels.levels, minlength=6)[1:]
    assert all(190 <= c <= 210 for c in counts), counts
    order = np.argsort(values)
    ranked = np.asarray(levels.levels)[order]
    assert np.all(np.diff(ranked) >= 0)


@criterion("augmentation: flip involution bitwise; degenerate identity; seeded determinism")
def test_augmentation_contracts():
    rng = np.random.default_rng(23)
    for _ in range(100):
        tensor = rng.random((3, 5, 7)).astype(np.float32)
        assert np.array_equal(flip_h(flip_h(tensor)), tensor)

    tensor = rng.random((4, 16, 16)).astype(np.float32)
    identity_cfg = AugmentConfig(flip_prob=0.0, crop_prob=0.0, seed=5)
    assert np.array_equal(augment(tensor, identity_cfg), tensor)

    cfg = AugmentConfig(seed=99)
    assert np.array_equal(augment(tensor, cfg), augment(tensor, cfg))


@criterion("bfm forward: flip-equivariant within 1e-6; spatially local on an 8x8 grid")
def test_bfm_contracts():
    rng = np.random.default_rng(29)
    for seed in range(20):
        k = 4 if seed % 2 == 0 else 8
        weights = random_weights(k, seed=seed)
        x = rng.random((2 * k, 6, 9)).astype(np.float32)
        lhs = flip_h(bfm_forward(x, weights))
        rhs = bfm_forward(flip_h(x), weights)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-6

    weights = random_weights(4, seed=101)
    x = rng.random((8, 8, 8)).astype(np.float32)
    base = bfm_forward(x, weights)
    for y in range(8):
        for xx in range(8):
            bumped = x.copy()
            bumped[:, y, xx] += 0.25
            diff = np.any(base != bfm_forward(bumped, weights), axis=0)
            assert diff[y, xx]
            diff[y, xx] = False
            assert not diff.any()


@criterion("io round-trips: all five formats bitwise on 100 random instances each")
def test_io_round_trips(tmp_path):
    rng = np.random.default_rng(31)
    geo = FrameGeometry(48, 36, 500_000)

    for _ in range(100):
        stream = make_random_stream(rng, geo, int(rng.integers(0, 60)))
        data = write_events_binary(stream)
        assert write_events_binary(read_events_binary(data)) == data

    for _ in range(100):
        stream = make_random_stream(rng, geo, int(rng.integers(0, 60)))
        text = write_events_csv(stream)
        assert write_events_csv(read_events_csv(text, geo)) == text

    path = tmp_path / "t.evtn"
    for _ in range(100):
        c, h, w = rng.integers(1, 5, size=3)
        tensor = rng.normal(size=(c, h, w)).astype(np.float32)
        write_tensor(tensor, path)
        first = path.read_bytes()
        write_tensor(read_tensor(path), path)
        assert path.read_bytes() == first

    for _ in range(100):
        anns = [
            Annotation(
                int(rng.integers(0, 10**6)),
                float(rng.uniform(-5, 40)), float(rng.uniform(-5, 30)),
                float(rng.uniform(0.5, 20)), float(rng.uniform(0.5, 20)),
                int(rng.integers(0, 4)),
            )
            for _ in range(int(rng.integers(0, 10)))
        ]
        text = write_annotations_csv(anns)
        assert write_annotations_csv(read_annotations_csv(text)) == text
        dets = [
            Detection(a.t, a.x, a.y, a.w, a.h, a.class_id, float(rng.uniform(0, 1)))
            for a in anns
        ]
        text = write_detections_csv(dets)
        assert write_detections_csv(read_detections_csv(text)) == text

    path = tmp_path / "f.flow"
    for _ in range(100):
        h, w = rng.integers(1, 7, size=2)
        field = FlowField.from_planes(
            int(rng.integers(0, 10**7)),
            rng.normal(size=(h, w)).astype(np.float32),
            rng.normal(size=(h, w)).astype(np.float32),
        )
        write_flow(field, path)
        first = path.read_bytes()
        write_flow(read_flow(path), path)
        assert path.read_bytes() == first
