"""The vectorized eval engine against the scalar oracle in evalmap_oracle.py.

Every value must be equal, not close: the engine builds IoU with the same
operations as ``iou`` and sums the 101 recall points in the same order.
"""

import numpy as np
import pytest

import evalmap_oracle as oracle
from evrep.evalmap import EvalConfig, map_by_level, map_metric
from evrep.model import Annotation, Detection

N_CASES = 240


def _box(rng, t, cls):
    # a coarse integer grid makes tied IoUs and exact threshold hits common
    x, y = (int(v) for v in rng.integers(0, 12, size=2) * 2)
    w, h = (int(v) for v in rng.integers(2, 9, size=2) * 2)
    return t, x, y, w, h, cls


def _case(seed):
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(1, 4))
    frame_times = sorted({int(v) * 1000 for v in rng.integers(0, 8, size=int(rng.integers(1, 6)))})
    anns = [
        Annotation(*_box(rng, int(rng.choice(frame_times)), int(rng.integers(0, n_classes))))
        for _ in range(int(rng.integers(1, 16)))
    ]
    # removed boxes sit at annotation times and at times no annotation has
    removed = [
        Annotation(*_box(rng, int(rng.choice(frame_times + [99_000])), int(rng.integers(0, n_classes))))
        for _ in range(int(rng.integers(0, 5)))
    ]
    # detections near annotated and removed boxes, plus strays; some at
    # unmapped times, some shifted so that only a nonzero tolerance maps them
    det_times = frame_times + [t + 400 for t in frame_times] + [50_000]
    scores = (0.3, 0.5, 0.5, 0.9) if rng.random() < 0.5 else None
    dets = []
    for _ in range(int(rng.integers(0, 30))):
        if rng.random() < 0.6:
            near = anns + removed
            a = near[int(rng.integers(len(near)))]
            t = a.t if rng.random() < 0.7 else int(rng.choice(det_times))
            x = a.x + int(rng.integers(-2, 3))
            y = a.y + int(rng.integers(-2, 3))
            box = (t, x, y, a.w, a.h, a.class_id if rng.random() < 0.9 else int(rng.integers(0, n_classes)))
        else:
            box = _box(rng, int(rng.choice(det_times)), int(rng.integers(0, n_classes)))
        score = float(rng.choice(scores)) if scores else float(rng.uniform(0.01, 1.0))
        dets.append(Detection(*box, score))
    # levels drawn from a subset of 1..5, so some levels stay empty
    allowed = rng.choice(np.arange(1, 6), size=int(rng.integers(1, 6)), replace=False)
    levels = [int(rng.choice(allowed)) for _ in anns]
    tolerance = int(rng.choice([0, 0, 500, 1000]))
    return dets, anns, levels, removed, EvalConfig(timestamp_tolerance_us=tolerance)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_engine_equals_oracle(seed):
    dets, anns, levels, removed, cfg = _case(seed)
    want = oracle.map_by_level(dets, anns, levels, cfg, removed_boxes=removed)
    got = map_by_level(dets, anns, levels, cfg, removed_boxes=removed)
    assert got.per_level == want.per_level
    assert got.overall == want.overall
    assert map_metric(dets, anns, cfg) == oracle.map_metric(dets, anns, cfg)
    at_half = EvalConfig((0.5,), cfg.timestamp_tolerance_us)
    for c in {a.class_id for a in anns} | {7}:
        got_ap = map_metric(dets, anns, at_half).per_class.get(c, 0.0)
        assert got_ap == oracle.average_precision(dets, anns, c, 0.5, cfg.timestamp_tolerance_us)


def test_cases_cover_the_edge_cases():
    """The seeded cases reach every situation the engine must agree on."""
    seen = set()
    for seed in range(N_CASES):
        dets, anns, levels, removed, cfg = _case(seed)
        result = oracle.map_by_level(dets, anns, levels, cfg, removed_boxes=removed)
        classes = {a.class_id for a in anns}
        if len(classes) > 1:
            seen.add("several classes")
        if any({a.class_id for a, lv in zip(anns, levels) if lv == l} < classes for l in set(levels)):
            seen.add("class missing from a level")
        if None in result.per_level.values():
            seen.add("level with no GT")
        if len({d.score for d in dets}) < len(dets):
            seen.add("tied scores")
        if result.per_level != oracle.map_by_level(dets, anns, levels, cfg).per_level:
            seen.add("removed box excuses")
        if cfg.timestamp_tolerance_us:
            seen.add("nonzero tolerance")
        frames = oracle._build_frames(dets, anns, cfg.timestamp_tolerance_us)
        if any(not f.dets for f in frames):
            seen.add("empty frame")
        mapped = {f.dets[0].t for f in frames if f.dets}
        if any(d.t not in mapped for d in dets):
            seen.add("unmapped detection")
        if len(mapped) < sum(1 for f in frames if f.dets):
            seen.add("detection shared by two frames")
        counts = [len(f.dets) for f in frames if f.dets]
        if counts and max(counts) >= 3 * min(counts):
            seen.add("frames of unequal detection counts")
        for f in frames:
            at_t = [g for g in anns + removed if g.t == f.t]
            for d in f.dets:
                values = [oracle.iou(d, g) for g in f.gts if g.class_id == d.class_id]
                if any(v > 0 and values.count(v) > 1 for v in values):
                    seen.add("tied IoU")
                lowest = cfg.iou_thresholds[0]
                if all(oracle.iou(d, g) < lowest for g in at_t if g.class_id == d.class_id):
                    seen.add("detection with no candidate pair")
    assert seen == {
        "several classes", "class missing from a level", "level with no GT", "tied scores",
        "removed box excuses", "nonzero tolerance", "empty frame", "unmapped detection", "tied IoU",
        "detection shared by two frames", "frames of unequal detection counts",
        "detection with no candidate pair",
    }


def test_one_crowded_frame_among_sparse_ones():
    """A frame of 40 detections beside frames of 0 or 1: the rank loop runs
    40 steps, and from step 2 on only the crowded frame takes part."""
    rng = np.random.default_rng(23)
    anns, dets, levels = [], [], []
    for t in range(0, 10_000, 1000):
        for _ in range(12 if t == 0 else 2):
            anns.append(Annotation(*_box(rng, t, int(rng.integers(0, 2)))))
            levels.append(int(rng.integers(1, 6)))
    for _ in range(40):
        a = anns[int(rng.integers(12))]
        x, y = a.x + int(rng.integers(-2, 3)), a.y + int(rng.integers(-2, 3))
        dets.append(Detection(0, x, y, a.w, a.h, a.class_id, float(rng.choice((0.3, 0.5, 0.9)))))
    for a in anns[12::2][::2]:
        dets.append(Detection(a.t, a.x + 1, a.y, a.w, a.h, a.class_id, 0.5))
    removed = [Annotation(*_box(rng, 0, 0)), Annotation(*_box(rng, 3000, 1))]
    per_frame = [sum(d.t == t for d in dets) for t in range(0, 10_000, 1000)]
    assert per_frame[0] == 40 and set(per_frame[1:]) == {0, 1}
    cfg = EvalConfig()
    want = oracle.map_by_level(dets, anns, levels, cfg, removed_boxes=removed)
    got = map_by_level(dets, anns, levels, cfg, removed_boxes=removed)
    assert got.per_level == want.per_level
    assert got.overall == want.overall
    assert map_metric(dets, anns, cfg) == oracle.map_metric(dets, anns, cfg)
