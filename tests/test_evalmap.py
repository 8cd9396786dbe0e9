import math

import numpy as np
import pytest

from evrep.errors import EvrepError
from evrep.evalmap import (
    DEFAULT_IOU_THRESHOLDS,
    EvalConfig,
    iou,
    map_by_level,
    map_metric,
    match_timestamps,
)
from evrep.errors import InvalidParamError
from evrep.model import Annotation, Detection


def _ap(dets, anns, class_id, thr):
    """AP of one class at one IoU threshold (0.0 when the class has no GT)."""
    return map_metric(dets, anns, EvalConfig((thr,))).per_class.get(class_id, 0.0)


def _ann(t, x, y, w, h, cls=0):
    return Annotation(t, x, y, w, h, cls)


def _det(t, x, y, w, h, cls=0, score=1.0):
    return Detection(t, x, y, w, h, cls, score)


def _perfect(annotations, score=1.0):
    return [Detection(a.t, a.x, a.y, a.w, a.h, a.class_id, score) for a in annotations]


class TestIou:
    def test_identical_boxes(self):
        assert iou(_ann(0, 1, 2, 10, 10), _det(0, 1, 2, 10, 10)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(_ann(0, 0, 0, 5, 5), _ann(0, 50, 50, 5, 5)) == 0.0

    def test_half_overlap(self):
        v = iou(_ann(0, 0, 0, 10, 10), _ann(0, 5, 0, 10, 10))
        assert math.isclose(v, 50 / 150)


class TestMatchTimestamps:
    def test_equidistant_tie_prefers_earlier(self):
        detections = list(range(0, 2_000_001, 10_000))
        out = match_timestamps([1_005_000], detections, 5_000)
        assert out[1_005_000] == 1_000_000

    def test_out_of_tolerance_unmatched(self):
        out = match_timestamps([123_456], [0, 200_000], 5_000)
        assert out[123_456] is None

    def test_zero_tolerance_exact_hit(self):
        out = match_timestamps([50_000], [40_000, 50_000], 0)
        assert out[50_000] == 50_000

    def test_nearest_wins(self):
        out = match_timestamps([104_000], [100_000, 110_000], 10_000)
        assert out[104_000] == 100_000


class TestAveragePrecision:
    def test_perfect_detection_every_threshold(self):
        anns = [_ann(0, 10, 10, 20, 20), _ann(0, 50, 50, 10, 10)]
        dets = _perfect(anns)
        for thr in DEFAULT_IOU_THRESHOLDS:
            assert _ap(dets, anns, 0, thr) == 1.0

    def test_no_detections(self):
        anns = [_ann(0, 10, 10, 20, 20)]
        for thr in DEFAULT_IOU_THRESHOLDS:
            assert _ap([], anns, 0, thr) == 0.0

    def test_iou_point_six_steps_at_threshold(self):
        anns = [_ann(0, 0, 0, 10, 10)]
        dets = [_det(0, 2.5, 0, 10, 10)]  # IoU exactly 0.6
        for thr in DEFAULT_IOU_THRESHOLDS:
            expected = 1.0 if thr <= 0.6 else 0.0
            assert _ap(dets, anns, 0, thr) == expected

    def test_greedy_prefers_highest_iou(self):
        anns = [_ann(0, 0, 0, 10, 10), _ann(0, 8, 0, 10, 10)]
        dets = [_det(0, 1, 0, 10, 10, score=0.9), _det(0, 7, 0, 10, 10, score=0.8)]
        assert _ap(dets, anns, 0, 0.5) == 1.0

    def test_lower_scored_duplicate_is_fp(self):
        anns = [_ann(0, 0, 0, 10, 10)]
        dets = [_det(0, 0, 0, 10, 10, score=0.9), _det(0, 0.5, 0, 10, 10, score=0.8)]
        ap = _ap(dets, anns, 0, 0.5)
        assert ap == 1.0  # precision envelope at full recall is reached first


class TestMapMetric:
    def test_iou_point_six_fixture(self):
        anns = [_ann(0, 0, 0, 10, 10)]
        dets = [_det(0, 2.5, 0, 10, 10)]
        result = map_metric(dets, anns, EvalConfig())
        assert math.isclose(result.overall_map, 0.3)

    def test_perfect_is_one(self):
        anns = [_ann(0, 5, 5, 12, 9, cls=0), _ann(1000, 40, 3, 7, 11, cls=1)]
        result = map_metric(_perfect(anns), anns, EvalConfig())
        assert result.overall_map == 1.0
        assert result.per_class == {0: 1.0, 1: 1.0}

    def test_empty_inputs_warn(self):
        result = map_metric([], [], EvalConfig())
        assert result.overall_map == 0.0
        assert result.warning is not None

    def test_mean_over_classes_then_thresholds(self):
        # class 0 perfect, class 1 missed entirely -> overall 0.5
        anns = [_ann(0, 0, 0, 10, 10, cls=0), _ann(0, 50, 50, 10, 10, cls=1)]
        dets = _perfect([anns[0]])
        result = map_metric(dets, anns, EvalConfig())
        assert math.isclose(result.overall_map, 0.5)

    def test_timestamp_tolerance_applies(self):
        anns = [_ann(1_005_000, 0, 0, 10, 10)]
        dets = [_det(1_000_000, 0, 0, 10, 10)]
        missed = map_metric(dets, anns, EvalConfig(timestamp_tolerance_us=0))
        assert missed.overall_map == 0.0
        matched = map_metric(dets, anns, EvalConfig(timestamp_tolerance_us=5_000))
        assert matched.overall_map == 1.0

    def test_one_detection_serves_every_frame_within_tolerance(self):
        # both annotation frames map to the one detection time 500 us away,
        # and the single prediction is a true positive in each
        anns = [_ann(0, 0, 0, 10, 10), _ann(1000, 0, 0, 10, 10)]
        dets = [_det(500, 0, 0, 10, 10)]
        result = map_metric(dets, anns, EvalConfig(timestamp_tolerance_us=500))
        assert result.overall_map == 1.0

    def test_threshold_monotonicity_random(self, rng):
        cfg = EvalConfig()
        for _ in range(10):
            anns = [
                _ann(
                    int(rng.integers(0, 3)) * 1000,
                    float(rng.uniform(0, 80)),
                    float(rng.uniform(0, 80)),
                    float(rng.uniform(4, 20)),
                    float(rng.uniform(4, 20)),
                    int(rng.integers(0, 2)),
                )
                for _ in range(12)
            ]
            dets = [
                _det(
                    int(rng.integers(0, 3)) * 1000,
                    float(rng.uniform(0, 80)),
                    float(rng.uniform(0, 80)),
                    float(rng.uniform(4, 20)),
                    float(rng.uniform(4, 20)),
                    int(rng.integers(0, 2)),
                    float(rng.uniform(0.01, 1.0)),
                )
                for _ in range(20)
            ]
            result = map_metric(dets, anns, cfg)
            values = [result.per_threshold[t] for t in cfg.iou_thresholds]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_score_scaling_invariance(self, rng):
        anns = [_ann(0, 10, 10, 20, 20), _ann(0, 50, 50, 10, 10)]
        dets = [
            _det(0, 11, 10, 20, 20, score=0.8),
            _det(0, 48, 50, 10, 10, score=0.6),
            _det(0, 70, 70, 5, 5, score=0.4),
        ]
        halved = [
            Detection(d.t, d.x, d.y, d.w, d.h, d.class_id, d.score / 2) for d in dets
        ]
        cfg = EvalConfig()
        assert map_metric(dets, anns, cfg) == map_metric(halved, anns, cfg)

    def test_extra_false_positive_never_helps(self, rng):
        anns = [_ann(0, 10, 10, 20, 20)]
        dets = [_det(0, 11, 10, 20, 20, score=0.8), _det(0, 70, 70, 5, 5, score=0.4)]
        more = dets + [_det(0, 70, 70, 5, 5, score=0.4)]
        cfg = EvalConfig()
        assert map_metric(more, anns, cfg).overall_map <= map_metric(dets, anns, cfg).overall_map

    def test_threshold_grid_validation(self):
        with pytest.raises(InvalidParamError):
            EvalConfig(iou_thresholds=(0.9, 0.5))
        with pytest.raises(InvalidParamError):
            EvalConfig(iou_thresholds=(0.0, 0.5))
        with pytest.raises(InvalidParamError, match="^need at least one IoU threshold$"):
            EvalConfig(iou_thresholds=())


def _reference_ap(detections, annotations, class_id, thr):
    """Slow independent AP: explicit greedy matching plus a direct
    max-precision scan at every recall grid point (no envelope trick)."""
    gts = [a for a in annotations if a.class_id == class_id]
    dets = sorted(
        (d for d in detections if d.class_id == class_id),
        key=lambda d: -d.score,
    )
    if not gts:
        return 0.0
    used = set()
    flags = []
    for d in dets:
        best, best_v = None, 0.0
        for gi, g in enumerate(gts):
            if gi in used or g.t != d.t:
                continue
            v = iou(d, g)
            if v > best_v:
                best, best_v = gi, v
        if best is not None and best_v >= thr:
            used.add(best)
            flags.append(True)
        else:
            flags.append(False)
    total = 0.0
    for i in range(101):
        r = i / 100
        best_p = 0.0
        tp = fp = 0
        for flag in flags:
            tp += flag
            fp += not flag
            if tp / len(gts) >= r:
                best_p = max(best_p, tp / (tp + fp))
        total += best_p
    return total / 101


def test_ap_matches_independent_reference(rng):
    # single shared timestamp so both matchers see one frame
    for trial in range(30):
        anns = [
            _ann(0, float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
                 float(rng.uniform(5, 15)), float(rng.uniform(5, 15)))
            for _ in range(int(rng.integers(1, 8)))
        ]
        dets = [
            _det(0, float(rng.uniform(0, 60)), float(rng.uniform(0, 60)),
                 float(rng.uniform(5, 15)), float(rng.uniform(5, 15)),
                 score=float(rng.uniform(0.01, 1.0)))
            for _ in range(int(rng.integers(0, 12)))
        ]
        for thr in (0.5, 0.75):
            got = _ap(dets, anns, 0, thr)
            want = _reference_ap(dets, anns, 0, thr)
            assert math.isclose(got, want, abs_tol=1e-12), (trial, thr, got, want)


class TestMapByLevel:
    def test_single_level_equals_overall(self):
        anns = [_ann(0, 0, 0, 10, 10), _ann(0, 40, 40, 10, 10)]
        dets = [_det(0, 2.5, 0, 10, 10), _det(0, 40, 40, 10, 10, score=0.9)]
        cfg = EvalConfig()
        result = map_by_level(dets, anns, [3, 3], cfg)
        assert result.per_level[3] == result.overall.overall_map
        for lv in (1, 2, 4, 5):
            assert result.per_level[lv] is None

    def test_perfect_detections_every_level(self):
        anns = [
            _ann(0, 0, 0, 10, 10),
            _ann(0, 20, 20, 10, 10),
            _ann(0, 40, 40, 10, 10),
        ]
        result = map_by_level(_perfect(anns), anns, [1, 3, 5], EvalConfig())
        assert result.per_level[1] == 1.0
        assert result.per_level[3] == 1.0
        assert result.per_level[5] == 1.0
        assert result.overall.overall_map == 1.0

    def test_two_level_split_with_one_side_missing(self):
        slow = [_ann(0, 0, 0, 10, 10), _ann(1000, 5, 5, 10, 10)]
        fast = [_ann(0, 40, 40, 10, 10), _ann(1000, 60, 60, 10, 10)]
        anns = slow + fast
        dets = _perfect(fast)  # the slow level's detections are deleted
        result = map_by_level(dets, anns, [1, 1, 5, 5], EvalConfig())
        assert result.per_level[1] == 0.0
        assert result.per_level[5] == 1.0
        assert 0.0 < result.overall.overall_map < 1.0

    def test_cross_level_match_is_not_fp(self):
        # one detection per box; each level must not punish the other's match
        lv1 = _ann(0, 0, 0, 10, 10)
        lv5 = _ann(0, 40, 40, 10, 10)
        dets = _perfect([lv1, lv5], score=0.9)
        result = map_by_level(dets, [lv1, lv5], [1, 5], EvalConfig())
        assert result.per_level[1] == 1.0
        assert result.per_level[5] == 1.0

    def test_unmatched_everywhere_is_fp_for_all_levels(self):
        lv1 = _ann(0, 0, 0, 10, 10)
        lv5 = _ann(0, 40, 40, 10, 10)
        stray = _det(0, 70, 70, 5, 5, score=0.95)  # overlaps nothing
        dets = _perfect([lv1, lv5], score=0.9) + [stray]
        result = map_by_level(dets, [lv1, lv5], [1, 5], EvalConfig())
        # the stray outranks the true matches, so precision at recall 1 dips
        assert result.per_level[1] < 1.0
        assert result.per_level[5] < 1.0

    def test_removed_boxes_excuse_detections(self):
        kept = _ann(0, 0, 0, 10, 10)
        removed = _ann(0, 40, 40, 10, 10)
        dets = _perfect([kept, removed], score=0.9)
        result = map_by_level(dets, [kept], [1], EvalConfig(), removed_boxes=[removed])
        assert result.per_level[1] == 1.0

    def test_level_counts_partition_ground_truth(self):
        anns = [_ann(0, i * 12.0, 0, 10, 10) for i in range(6)]
        levels = [1, 1, 2, 3, 5, 5]
        result = map_by_level(_perfect(anns), anns, levels, EvalConfig())
        populated = [lv for lv in range(1, 6) if result.per_level[lv] is not None]
        assert populated == [1, 2, 3, 5]

    def test_mismatched_levels_rejected(self):
        anns = [_ann(0, 0, 0, 10, 10)]
        with pytest.raises(EvrepError, match="^1 annotations but 2 level assignments$"):
            map_by_level([], anns, [1, 2], EvalConfig())
