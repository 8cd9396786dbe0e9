"""COCO-style mAP with timestamp-tolerance matching and motion-level breakdown.

Evaluation frames are the unique annotation timestamps. Each frame pulls in
the detections of the nearest detection timestamp within the configured
tolerance (ties break toward the earlier detection time); detections at
timestamps no annotation maps to are ignored. Within a frame, detections
match ground truth greedily in descending score order: a detection takes
the unmatched same-class box with the highest IoU, provided that IoU
reaches the threshold. AP is the 101-point interpolation of the precision
envelope; mAP averages AP over the classes present in the ground truth and
then over the IoU thresholds.

The per-level breakdown restricts ground truth to one motion level at a
time. A detection that fails to match the level's ground truth but overlaps
(same class, IoU at threshold) a box of another level, or a box removed by
sanitization, is excluded from that level's false positives; detections
matching nothing anywhere count as false positives at every level.

Frames do not compete for detections: under a nonzero tolerance one detection
timestamp may be the nearest for several annotation frames, and each of its
predictions is then matched in each of them and can be a true positive in each.

The engine matches every frame at once. Frame by frame, it computes one IoU
matrix and keeps only the candidate pairs: same class and IoU at or above
the lowest threshold, since no other pair can match or excuse. So it holds
one frame's matrix plus the kept pairs, never an array over every pair of
every frame. The greedy loop then runs once per detection rank, not once per
detection: step r matches the r-th ranked detection of every frame together,
which is exact because frames share no ground-truth box.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvrepError, InvalidParamError
from .model import Annotation, Detection

DEFAULT_IOU_THRESHOLDS = tuple(i / 100 for i in range(50, 100, 5))
_RECALL_POINTS = 101
_RECALL_GRID = np.arange(_RECALL_POINTS) / (_RECALL_POINTS - 1)


@dataclass(frozen=True)
class EvalConfig:
    """IoU threshold grid and timestamp tolerance."""

    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    timestamp_tolerance_us: int = 0

    def __post_init__(self):
        thr = tuple(self.iou_thresholds)
        if not thr:
            raise InvalidParamError("need at least one IoU threshold")
        if any(not 0.0 < t < 1.0 for t in thr):
            raise InvalidParamError("IoU thresholds must lie in (0, 1)")
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise InvalidParamError("IoU thresholds must be strictly ascending")
        if self.timestamp_tolerance_us < 0:
            raise InvalidParamError("tolerance must be non-negative")
        object.__setattr__(self, "iou_thresholds", thr)


@dataclass(frozen=True)
class EvalResult:
    """Overall mAP plus the per-class and per-threshold marginals."""

    overall_map: float
    per_class: dict[int, float]
    per_threshold: dict[float, float]
    warning: str | None = None


@dataclass(frozen=True)
class LevelEvalResult:
    """mAP per motion level (None where the level has no ground truth)."""

    per_level: dict[int, float | None]
    overall: EvalResult


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    iw = min(a.x + a.w, b.x + b.w) - ix
    ih = min(a.y + a.h, b.y + b.h) - iy
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def match_timestamps(
    annotation_times: Sequence[int],
    detection_times: Sequence[int],
    tolerance_us: int,
) -> dict[int, int | None]:
    """Map each annotation time to the nearest detection time within tolerance.

    Equidistant candidates resolve to the earlier detection time; annotation
    times with no candidate map to None. Input sequences must be sorted.
    """
    det = list(detection_times)
    out: dict[int, int | None] = {}
    for a in annotation_times:
        i = bisect.bisect_left(det, a)
        best: int | None = None
        if i > 0:
            best = det[i - 1]
        if i < len(det):
            cand = det[i]
            if best is None or abs(cand - a) < abs(best - a):
                best = cand
        if best is not None and abs(best - a) <= tolerance_us:
            out[a] = best
        else:
            out[a] = None
    return out


def _build_frames(
    detections: Sequence[Detection],
    boxes: Sequence[Annotation],
    n_annotations: int,
    tolerance_us: int,
) -> list[tuple[list[int], list[Detection]]]:
    """(columns, detections) per annotation time, in time order; a frame's columns
    index every box at its time, but only ``boxes[:n_annotations]`` make frames."""
    cols_by_t: dict[int, list[int]] = {}
    for i, b in enumerate(boxes):
        cols_by_t.setdefault(b.t, []).append(i)
    det_by_t: dict[int, list[Detection]] = {}
    for d in detections:
        det_by_t.setdefault(d.t, []).append(d)
    ann_times = sorted({b.t for b in boxes[:n_annotations]})
    mapping = match_timestamps(ann_times, sorted(det_by_t), tolerance_us)
    return [(cols_by_t[t], det_by_t.get(mapping[t], [])) for t in ann_times]


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every (x, y, w, h) row of a against every row of b, computed
    with the same operations, in the same order, as ``iou``."""
    ax, ay, aw, ah = (c[:, None] for c in a.T)
    bx, by, bw, bh = b.T
    ix = np.maximum(ax, bx)
    iy = np.maximum(ay, by)
    iw = np.minimum(ax + aw, bx + bw) - ix
    ih = np.minimum(ay + ah, by + bh) - iy
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=(iw > 0) & (ih > 0))


def _candidate_pairs(frames, det, det_cls, box_xywh, box_cls, thr0):
    """(row, column, IoU) of every same-class pair with IoU at or above thr0,
    ordered by row and then column: no other pair can match or excuse a
    detection. One frame's IoU matrix is held at a time."""
    rows, cols, ious = [], [], []
    a = 0
    for frame_cols, dets in frames:
        b = a + len(dets)
        if a < b:
            frame_cols = np.asarray(frame_cols)
            m = _iou_matrix(det[a:b, :4], box_xywh[frame_cols])
            i, j = np.nonzero((det_cls[a:b, None] == box_cls[frame_cols]) & (m >= thr0))
            rows.append(a + i)
            cols.append(frame_cols[j])
            ious.append(m[i, j])
        a = b
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(ious)


def _match(frames, det, det_cls, box_xywh, box_cls, keep, thr):
    """Greedy match of every frame's detections for every evaluation and threshold.

    In stable descending-score order each detection takes the unused kept
    same-class box of highest IoU (the first column on ties) if that IoU
    reaches the threshold. Only the candidate pairs take part. Step r of the
    loop matches the r-th detection of every frame at once, so the loop runs
    as often as the largest frame has detections. A detection left unmatched
    is excused where it hits a same-class box the evaluation does not keep; a
    TP or unexcused FP is counted. Returns (tp, counted) as (detections,
    evaluations, thresholds).
    """
    tp = np.zeros((len(det), len(keep), thr.size), dtype=bool)
    excused = np.zeros_like(tp)
    row, col, val = _candidate_pairs(frames, det, det_cls, box_xywh, box_cls, thr[0])
    if row.size:
        # a detection unmatched in e at threshold k is excused by any pair it
        # hits at k whose column e does not keep
        first = np.flatnonzero(np.diff(row, prepend=-1))
        hits = ~keep[:, col].T[:, :, None] & (val[:, None] >= thr)[:, None, :]
        excused[row[first]] = np.logical_or.reduceat(hits, first)

        # rank of each detection within its frame, in stable descending score
        sizes = [len(dets) for _, dets in frames]
        frame_of = np.repeat(np.arange(len(frames)), sizes)
        rank = np.empty(len(det), dtype=np.int64)
        rank[np.lexsort((-det[:, 4], frame_of))] = (
            np.arange(len(det)) - np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
        )
        by_rank = np.argsort(rank[row], kind="stable")
        row, col, val = row[by_rank], col[by_rank], val[by_rank]
        steps = np.flatnonzero(np.diff(rank[row], prepend=-1, append=-1))

        # frames never share a column, so one step advances the r-th detection
        # of every frame at once, for every evaluation and threshold
        used = np.zeros((len(keep), thr.size, len(box_cls)), dtype=bool)
        for a, b in zip(steps, steps[1:]):
            r, c, v = row[a:b], col[a:b], val[a:b]
            seg = np.flatnonzero(np.diff(r, prepend=-1))
            vals = np.where(used[:, :, c] | ~keep[:, None, c], -1.0, v)
            best = np.maximum.reduceat(vals, seg, axis=-1)
            ok = best >= thr[:, None]
            tp[r[seg]] = ok.transpose(2, 0, 1)
            # the first pair equal to its segment's maximum, as argmax picks
            at = np.repeat(np.arange(seg.size), np.diff(seg, append=r.size))
            pos = np.where(vals == best[..., at], np.arange(r.size), r.size)
            e, k, s = np.nonzero(ok)
            used[e, k, c[np.minimum.reduceat(pos, seg, axis=-1)[e, k, s]]] = True
    return tp, tp | ~excused


def _ap(flags: np.ndarray, gt_count: int) -> float:
    """101-point interpolated AP of rank-ordered TP flags: the precision
    envelope at the first rank reaching each recall point, summed in order."""
    tp = np.cumsum(flags)
    precision = np.append(tp / np.arange(1, tp.size + 1), 0.0)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    picked = envelope[np.searchsorted(tp / gt_count, _RECALL_GRID, side="left")]
    return float(np.add.accumulate(picked)[-1]) / _RECALL_POINTS


def _ap_tables(
    detections: Sequence[Detection],
    annotations: Sequence[Annotation],
    thresholds: Sequence[float],
    tolerance_us: int,
    removed: Sequence[Annotation] = (),
    keep: np.ndarray | None = None,
) -> list[dict[int, list[float]]]:
    """Per evaluation, {class: AP per threshold} over the classes of its GT.

    Columns are ``annotations`` then ``removed``; ``keep[e]`` marks evaluation
    e's ground truth among them, and the other columns excuse. By default
    there is one evaluation, which keeps every annotation. Matching works on
    the candidate pairs, found one frame's IoU matrix at a time, and its
    greedy loop runs once per detection rank across all frames (``_match``).
    """
    boxes = [*annotations, *removed]
    keep = np.ones((1, len(boxes)), dtype=bool) if keep is None else keep
    box_xywh = np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)
    box_cls = np.array([b.class_id for b in boxes], dtype=np.int64)
    thr = np.asarray(thresholds, dtype=np.float64)
    frames = _build_frames(detections, boxes, len(annotations), tolerance_us)
    rows = [d for _, dets in frames for d in dets]
    det = np.array([(d.x, d.y, d.w, d.h, d.score) for d in rows], dtype=np.float64).reshape(-1, 5)
    det_cls = np.array([d.class_id for d in rows], dtype=np.int64)

    tp, counted = _match(frames, det, det_cls, box_xywh, box_cls, keep, thr)

    rank = np.argsort(-det[:, 4], kind="stable")
    tables = []
    for e in range(len(keep)):
        table = {}
        for c in sorted(set(box_cls[keep[e]].tolist())):
            order = rank[det_cls[rank] == c]
            n_gt = int(np.count_nonzero(keep[e] & (box_cls == c)))
            table[c] = [_ap(tp[order, e, k][counted[order, e, k]], n_gt) for k in range(thr.size)]
        tables.append(table)
    return tables


def _mean_ap(table: dict[int, list[float]], thresholds: Sequence[float]):
    classes = list(table)
    per_class = {c: sum(table[c]) / len(thresholds) for c in classes}
    per_threshold = {
        thr: sum(table[c][k] for c in classes) / len(classes) for k, thr in enumerate(thresholds)
    }
    overall = sum(per_class.values()) / len(classes)
    return overall, per_class, per_threshold


def map_metric(
    detections: Sequence[Detection],
    annotations: Sequence[Annotation],
    cfg: EvalConfig,
) -> EvalResult:
    """mAP over the IoU grid, averaged over classes present in the ground truth.

    A ground truth with no classes (empty annotation list) yields 0 with a
    warning instead of an error so batch jobs complete.
    """
    if not annotations:
        return EvalResult(
            0.0, {}, {thr: 0.0 for thr in cfg.iou_thresholds},
            warning="no ground truth classes; mAP defined as 0",
        )
    (table,) = _ap_tables(detections, annotations, cfg.iou_thresholds, cfg.timestamp_tolerance_us)
    return EvalResult(*_mean_ap(table, cfg.iou_thresholds))


def map_by_level(
    detections: Sequence[Detection],
    annotations: Sequence[Annotation],
    levels: Sequence[int],
    cfg: EvalConfig,
    removed_boxes: Sequence[Annotation] = (),
) -> LevelEvalResult:
    """mAP restricted to each motion level, plus the unrestricted overall.

    ``levels`` assigns one level per annotation (same order). ``removed_boxes``
    are sanitize-dropped boxes; detections overlapping them are excused from
    every level's false positives. No annotations give map_metric's 0, with
    its warning, and no level a value.
    """
    if len(levels) != len(annotations):
        raise EvrepError(f"{len(annotations)} annotations but {len(levels)} level assignments")

    overall = map_metric(detections, annotations, cfg)

    # removed boxes belong to no level, so every level excuses them
    keep = np.array([*levels, *(0 for _ in removed_boxes)]) == np.arange(1, 6)[:, None]
    tables = _ap_tables(
        detections, annotations, cfg.iou_thresholds, cfg.timestamp_tolerance_us,
        removed_boxes, keep,
    )
    per_level = {
        lv: _mean_ap(table, cfg.iou_thresholds)[0] if table else None
        for lv, table in enumerate(tables, start=1)
    }
    return LevelEvalResult(per_level, overall)
