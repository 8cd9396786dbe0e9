"""Test-only oracle for evrep.evalmap: the scalar greedy matcher.

One detection at a time, in descending score order over all frames, scans
the frame's unmatched same-class ground truth with the scalar ``iou`` and
then, if it matched nothing, every excused box. It is deliberately plain and
shares only ``iou``, ``match_timestamps`` and the result types with the
vectorized engine, which must reproduce every value it returns exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence

from evrep.evalmap import EvalResult, LevelEvalResult, iou, match_timestamps
from evrep.model import Annotation, Detection

_RECALL_POINTS = 101


@dataclass
class _Frame:
    """One evaluation frame: ground truth, candidate detections, and boxes a
    failed detection may be excused against (per-level mode only)."""

    t: int
    gts: list[Annotation] = field(default_factory=list)
    gt_levels: list[int] = field(default_factory=list)
    dets: list[Detection] = field(default_factory=list)
    excluded_gts: list[Annotation] = field(default_factory=list)


def _build_frames(detections, annotations, tolerance_us, levels=None) -> list[_Frame]:
    ann_by_t: dict[int, _Frame] = {}
    for i, a in enumerate(annotations):
        frame = ann_by_t.setdefault(a.t, _Frame(t=a.t))
        frame.gts.append(a)
        if levels is not None:
            frame.gt_levels.append(levels[i])
    det_by_t: dict[int, list[Detection]] = {}
    for d in detections:
        det_by_t.setdefault(d.t, []).append(d)

    ann_times = sorted(ann_by_t)
    mapping = match_timestamps(ann_times, sorted(det_by_t), tolerance_us)
    for t in ann_times:
        matched = mapping[t]
        if matched is not None:
            ann_by_t[t].dets = det_by_t.get(matched, [])
    return [ann_by_t[t] for t in ann_times]


def ap_from_frames(frames: Sequence[_Frame], class_id: int, iou_threshold: float) -> float:
    gt_count = sum(1 for f in frames for g in f.gts if g.class_id == class_id)
    if gt_count == 0:
        return 0.0

    ranked = [
        (d, fi)
        for fi, f in enumerate(frames)
        for d in f.dets
        if d.class_id == class_id
    ]
    ranked.sort(key=lambda item: -item[0].score)

    taken: dict[int, set[int]] = {}
    tp_flags: list[bool] = []
    for det, fi in ranked:
        frame = frames[fi]
        used = taken.setdefault(fi, set())
        best_iou = 0.0
        best_gi = -1
        for gi, gt in enumerate(frame.gts):
            if gt.class_id != class_id or gi in used:
                continue
            v = iou(det, gt)
            if v > best_iou:
                best_iou = v
                best_gi = gi
        if best_gi >= 0 and best_iou >= iou_threshold:
            used.add(best_gi)
            tp_flags.append(True)
            continue
        if any(
            g.class_id == class_id and iou(det, g) >= iou_threshold
            for g in frame.excluded_gts
        ):
            continue  # excused: overlaps a box outside this evaluation's GT
        tp_flags.append(False)

    # 101-point interpolated AP over the precision envelope
    precisions: list[float] = []
    recalls: list[float] = []
    tp = fp = 0
    for flag in tp_flags:
        tp += flag
        fp += not flag
        precisions.append(tp / (tp + fp))
        recalls.append(tp / gt_count)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])

    total = 0.0
    for i in range(_RECALL_POINTS):
        r = i / (_RECALL_POINTS - 1)
        j = bisect.bisect_left(recalls, r)
        if j < len(precisions):
            total += precisions[j]
    return total / _RECALL_POINTS


def average_precision(detections, annotations, class_id, iou_threshold, tolerance_us=0) -> float:
    frames = _build_frames(detections, annotations, tolerance_us)
    return ap_from_frames(frames, class_id, iou_threshold)


def _mean_ap(frames, classes, cfg):
    ap = {
        c: {thr: ap_from_frames(frames, c, thr) for thr in cfg.iou_thresholds}
        for c in classes
    }
    per_class = {c: sum(ap[c].values()) / len(cfg.iou_thresholds) for c in classes}
    per_threshold = {
        thr: sum(ap[c][thr] for c in classes) / len(classes) for thr in cfg.iou_thresholds
    }
    overall = sum(per_class.values()) / len(classes)
    return overall, per_class, per_threshold


def map_metric(detections, annotations, cfg) -> EvalResult:
    classes = sorted({a.class_id for a in annotations})
    if not classes:
        return EvalResult(
            0.0, {}, {thr: 0.0 for thr in cfg.iou_thresholds},
            warning="no ground truth classes; mAP defined as 0",
        )
    frames = _build_frames(detections, annotations, cfg.timestamp_tolerance_us)
    overall, per_class, per_threshold = _mean_ap(frames, classes, cfg)
    return EvalResult(overall, per_class, per_threshold)


def map_by_level(detections, annotations, levels, cfg, removed_boxes=()) -> LevelEvalResult:
    level_seq = tuple(levels)
    overall = map_metric(detections, annotations, cfg)

    removed_by_t: dict[int, list[Annotation]] = {}
    for b in removed_boxes:
        removed_by_t.setdefault(b.t, []).append(b)

    per_level: dict[int, float | None] = {}
    all_frames = _build_frames(
        detections, annotations, cfg.timestamp_tolerance_us, levels=level_seq
    )
    for lv in range(1, 6):
        frames = []
        classes = set()
        for f in all_frames:
            gts = [g for g, l in zip(f.gts, f.gt_levels) if l == lv]
            others = [g for g, l in zip(f.gts, f.gt_levels) if l != lv]
            frames.append(
                _Frame(
                    t=f.t,
                    gts=gts,
                    dets=f.dets,
                    excluded_gts=others + removed_by_t.get(f.t, []),
                )
            )
            classes.update(g.class_id for g in gts)
        if not classes:
            per_level[lv] = None
            continue
        lv_map, _, _ = _mean_ap(frames, sorted(classes), cfg)
        per_level[lv] = lv_map
    return LevelEvalResult(per_level, overall)
