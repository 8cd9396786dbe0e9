import math

import numpy as np
import pytest

from evrep.errors import EvrepError
from evrep.model import Annotation, FlowField
from evrep.motion import (
    SanitizeReport,
    bbofd,
    flow_intensity,
    motion_levels,
    sanitize_report,
)

SIZE = (100, 80)  # the sanitization frame: width, height


def _field(u, v, t=0):
    return FlowField.from_planes(t, u, v)


class TestFlowIntensity:
    def test_three_four_five(self):
        f = _field(np.full((4, 5), 3.0), np.full((4, 5), 4.0))
        assert np.allclose(flow_intensity(f), 5.0)

    def test_zero_field(self):
        f = _field(np.zeros((3, 3)), np.zeros((3, 3)))
        assert not flow_intensity(f).any()

    def test_matches_scalar_oracle(self, rng):
        u = rng.normal(size=(6, 7)).astype(np.float32)
        v = rng.normal(size=(6, 7)).astype(np.float32)
        plane = flow_intensity(_field(u, v))
        for y in range(6):
            for x in range(7):
                want = math.hypot(float(u[y, x]), float(v[y, x]))
                assert math.isclose(float(plane[y, x]), want, rel_tol=1e-6)


class TestBbofd:
    def test_constant_plane(self):
        plane = np.full((20, 20), 5.0, dtype=np.float32)
        assert bbofd(plane, Annotation(0, 2.0, 3.0, 7.5, 4.2, 0)) == 5.0

    def test_two_pixel_mean(self):
        plane = np.zeros((4, 4), dtype=np.float32)
        plane[1, 1] = 2.0
        plane[1, 2] = 4.0
        assert bbofd(plane, Annotation(0, 1.0, 1.0, 2.0, 1.0, 0)) == 3.0

    def test_translation_invariance(self, rng):
        plane = rng.random((30, 30)).astype(np.float32)
        box = Annotation(0, 4.0, 6.0, 5.0, 3.0, 0)
        shifted_plane = np.roll(np.roll(plane, 2, axis=0), 3, axis=1)
        shifted_box = Annotation(0, box.x + 3, box.y + 2, box.w, box.h, 0)
        assert math.isclose(bbofd(plane, box), bbofd(shifted_plane, shifted_box), rel_tol=1e-12)

    def test_outside_values_irrelevant(self, rng):
        plane = rng.random((10, 10)).astype(np.float32)
        box = Annotation(0, 2.0, 2.0, 3.0, 3.0, 0)
        base = bbofd(plane, box)
        noisy = plane.copy()
        noisy[0, :] = 99.0
        noisy[:, 9] = -7.0
        assert bbofd(noisy, box) == base

    def test_degenerate_box(self):
        plane = np.ones((10, 10), dtype=np.float32)
        with pytest.raises(EvrepError, match=r"^box at \(1\.0, 1\.0\) size \(0\.5, 5\.0\)$"):
            bbofd(plane, Annotation(0, 1.0, 1.0, 0.5, 5.0, 0))  # floor(w) = 0

    def test_truncation_toward_zero(self):
        plane = np.zeros((4, 4), dtype=np.float32)
        plane[2, 2] = 8.0
        # corner (2.9, 2.9) truncates to pixel (2, 2)
        assert bbofd(plane, Annotation(0, 2.9, 2.9, 1.0, 1.0, 0)) == 8.0


class TestSanitize:
    def test_disjoint_boxes_kept(self):
        boxes = [
            Annotation(0, 0.0, 0.0, 10.0, 10.0, 0),
            Annotation(0, 50.0, 50.0, 10.0, 10.0, 1),
        ]
        assert list(sanitize_report(boxes, *SIZE).kept) == boxes

    def test_identical_boxes_both_removed(self):
        boxes = [
            Annotation(0, 5.0, 5.0, 10.0, 10.0, 0),
            Annotation(0, 5.0, 5.0, 10.0, 10.0, 1),
        ]
        assert list(sanitize_report(boxes, *SIZE).kept) == []

    def test_overlap_requires_same_timestamp(self):
        boxes = [
            Annotation(0, 5.0, 5.0, 10.0, 10.0, 0),
            Annotation(1000, 5.0, 5.0, 10.0, 10.0, 1),
        ]
        assert list(sanitize_report(boxes, *SIZE).kept) == boxes

    def test_edge_touching_is_not_overlap(self):
        boxes = [
            Annotation(0, 0.0, 0.0, 10.0, 10.0, 0),
            Annotation(0, 10.0, 0.0, 10.0, 10.0, 1),
        ]
        assert list(sanitize_report(boxes, *SIZE).kept) == boxes

    def test_clip_to_right_edge(self):
        boxes = [Annotation(0, 95.0, 10.0, 20.0, 5.0, 0)]
        (kept,) = list(sanitize_report(boxes, *SIZE).kept)
        assert kept.x == 95.0
        assert kept.w == SIZE[0] - 95.0

    def test_fully_outside_dropped(self):
        boxes = [Annotation(0, 200.0, 10.0, 5.0, 5.0, 0)]
        assert list(sanitize_report(boxes, *SIZE).kept) == []

    def test_idempotent(self, rng):
        boxes = [
            Annotation(
                int(rng.integers(0, 3)) * 1000,
                float(rng.uniform(-10, 95)),
                float(rng.uniform(-10, 75)),
                float(rng.uniform(1, 30)),
                float(rng.uniform(1, 30)),
                int(rng.integers(0, 3)),
            )
            for _ in range(40)
        ]
        once = list(sanitize_report(boxes, *SIZE).kept)
        assert list(sanitize_report(once, *SIZE).kept) == once

    def test_report_tracks_indices_and_removals(self):
        boxes = [
            Annotation(0, 0.0, 0.0, 10.0, 10.0, 0),
            Annotation(0, 5.0, 5.0, 10.0, 10.0, 1),   # overlaps 0
            Annotation(0, 50.0, 50.0, 10.0, 10.0, 2),
        ]
        report = sanitize_report(boxes, *SIZE)
        assert report.kept_indices == (2,)
        assert len(report.removed_overlapping) == 2


    def test_matches_pairwise_reference(self, rng):
        for case in range(300):
            boxes = [_random_box(rng) for _ in range(int(rng.integers(0, 25)))]
            assert sanitize_report(boxes, *SIZE) == _sanitize_pairwise(boxes, *SIZE), case


def _random_box(rng) -> Annotation:
    """A box on a half-pixel lattice (so edges often touch) or at random
    real coordinates, reaching up to 10 px past any side of the SIZE frame, at one of
    three shared timestamps."""
    if rng.random() < 0.5:
        x, y = rng.integers(-20, 210) / 2, rng.integers(-20, 170) / 2
        w, h = rng.integers(1, 60, size=2) / 2
    else:
        x, y = rng.uniform(-10, 105), rng.uniform(-10, 85)
        w, h = rng.uniform(0.1, 30, size=2)
    return Annotation(int(rng.integers(0, 3)) * 1000, float(x), float(y), float(w), float(h),
                      int(rng.integers(0, 3)))


def _sanitize_pairwise(boxes, width, height) -> SanitizeReport:
    """Reference sanitizer: clip each box, then compare every pair in turn."""
    clipped = []
    for i, b in enumerate(boxes):
        x0, y0 = max(b.x, 0.0), max(b.y, 0.0)
        x1 = min(b.x + b.w, float(width))
        y1 = min(b.y + b.h, float(height))
        if x1 - x0 > 0 and y1 - y0 > 0:
            clipped.append((i, Annotation(b.t, x0, y0, x1 - x0, y1 - y0, b.class_id)))
    drop = set()
    for p, (_, a) in enumerate(clipped):
        for q, (_, b) in enumerate(clipped[:p]):
            iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
            ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
            if a.t == b.t and iw > 0 and ih > 0:
                drop |= {p, q}
    return SanitizeReport(
        tuple(b for pos, (_, b) in enumerate(clipped) if pos not in drop),
        tuple(i for pos, (i, _) in enumerate(clipped) if pos not in drop),
        tuple(b for pos, (_, b) in enumerate(clipped) if pos in drop),
    )

class TestMotionLevels:
    def test_decile_boundaries(self):
        levels = motion_levels([10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
        assert levels.boundaries == (20, 40, 60, 80)

    def test_constant_values_all_level_one(self):
        levels = motion_levels([7.0] * 25)
        assert set(levels.levels) == {1}

    def test_uniform_values_split_evenly(self, rng):
        values = rng.random(1000)
        levels = motion_levels(values)
        counts = np.bincount(levels.levels, minlength=6)[1:]
        assert all(190 <= c <= 210 for c in counts)

    def test_assignment_monotone(self, rng):
        values = rng.random(500)
        levels = motion_levels(values)
        order = np.argsort(values)
        ranked = np.asarray(levels.levels)[order]
        assert np.all(np.diff(ranked) >= 0)

    def test_empty_input(self):
        with pytest.raises(EvrepError, match="^need at least one value$"):
            motion_levels([])

    def test_nan_is_rejected_and_inf_orders(self):
        # NaN has no place in the order the quantiles are taken from
        with pytest.raises(EvrepError, match="^a NaN value has no motion level$"):
            motion_levels([1.0, float("nan"), 3.0, 2.0, 5.0])
        # +inf is a BBOFD a box can have, and the fastest
        levels = motion_levels([1.0, np.inf, 3.0, 2.0, 5.0])
        assert levels.boundaries == (1.0, 2.0, 3.0, 5.0)
        assert levels.levels == (1, 5, 3, 2, 4)
