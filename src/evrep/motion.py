"""Motion-speed stratification of annotations via optical-flow density.

Pipeline: flow fields -> per-pixel intensity -> per-box mean intensity
(BBOFD) -> dataset-wide 20% quantile boundaries -> motion level 1 (slowest)
to 5 (fastest) per annotation. Boxes are sanitized first: clipped to the
frame, and any two boxes that still overlap at the same timestamp are both
dropped so an ambiguous flow region never contributes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvrepError
from .model import Annotation, FlowField, FrameGeometry


def flow_intensity(flow: FlowField) -> np.ndarray:
    """Element-wise Euclidean norm of (u, v); float32 (H, W) plane."""
    return np.hypot(flow.u, flow.v)


def bbofd(intensity: np.ndarray, box: Annotation) -> float:
    """Mean flow intensity over the box's rasterized pixel region.

    The region is floor(w) x floor(h) pixels anchored at the truncated
    upper-left corner; for boxes already clipped to the frame that region
    lies fully inside the plane. Rasterizing to zero area raises.
    """
    plane_h, plane_w = intensity.shape
    x0 = int(box.x)
    y0 = int(box.y)
    w = int(box.w)
    h = int(box.h)
    xs, ys = max(x0, 0), max(y0, 0)
    xe, ye = min(x0 + w, plane_w), min(y0 + h, plane_h)
    if xe <= xs or ye <= ys:
        raise EvrepError(f"box at ({box.x}, {box.y}) size ({box.w}, {box.h})")
    region = intensity[ys:ye, xs:xe]
    return float(np.mean(region, dtype=np.float64))


@dataclass(frozen=True)
class SanitizeReport:
    """Outcome of sanitize: surviving boxes (clipped), their original indices,
    and the clipped boxes dropped for overlapping."""

    kept: tuple[Annotation, ...]
    kept_indices: tuple[int, ...]
    removed_overlapping: tuple[Annotation, ...]


def sanitize_report(boxes: Sequence[Annotation], geometry: FrameGeometry) -> SanitizeReport:
    """Clip boxes to the frame, then drop both members of every same-timestamp
    pair whose clipped regions intersect with positive area."""
    clipped: list[tuple[int, Annotation]] = []
    for i, b in enumerate(boxes):
        x0 = max(b.x, 0.0)
        y0 = max(b.y, 0.0)
        x1 = min(b.x + b.w, float(geometry.width))
        y1 = min(b.y + b.h, float(geometry.height))
        if x1 - x0 <= 0 or y1 - y0 <= 0:
            continue
        clipped.append((i, Annotation(b.t, x0, y0, x1 - x0, y1 - y0, b.class_id)))

    t = np.array([b.t for _, b in clipped], dtype=np.int64)
    xywh = np.array([(b.x, b.y, b.w, b.h) for _, b in clipped], dtype=np.float64).reshape(-1, 4)
    lo, hi = xywh[:, :2], xywh[:, :2] + xywh[:, 2:]
    order = np.argsort(t)
    drop = np.zeros(len(clipped), dtype=bool)
    for group in np.split(order, np.flatnonzero(np.diff(t[order])) + 1):
        # a pair overlaps when min(right) - max(left) > 0 on both axes
        g_lo, g_hi = lo[group], hi[group]
        gap = np.minimum(g_hi[:, None], g_hi) - np.maximum(g_lo[:, None], g_lo)
        overlap = (gap > 0).all(axis=2)
        np.fill_diagonal(overlap, False)
        drop[group] = overlap.any(axis=1)

    kept = tuple(b for (_, b), d in zip(clipped, drop) if not d)
    kept_idx = tuple(i for (i, _), d in zip(clipped, drop) if not d)
    removed = tuple(b for (_, b), d in zip(clipped, drop) if d)
    return SanitizeReport(kept, kept_idx, removed)


@dataclass(frozen=True)
class MotionLevels:
    """Quantile boundaries plus the level (1..5) assigned to each input value."""

    boundaries: tuple[float, float, float, float]
    levels: tuple[int, ...]


def motion_levels(bbofds: Sequence[float]) -> MotionLevels:
    """Stratify values at the 20/40/60/80% nearest-rank quantiles.

    The q-quantile is the ceil(q*n)-th order statistic; levels are monotone
    in the value, and a constant input lands entirely in level 1.
    """
    n = len(bbofds)
    if n == 0:
        raise EvrepError("need at least one value")
    ordered = sorted(float(v) for v in bbofds)
    # ceil(k*n/5) via integers; k/5 are the exact quantile fractions
    boundaries = tuple(ordered[(k * n + 4) // 5 - 1] for k in (1, 2, 3, 4))
    # 1 + the number of boundaries strictly below the value, so 1..5
    return MotionLevels(
        boundaries, tuple(1 + bisect.bisect_left(boundaries, float(v)) for v in bbofds)
    )
