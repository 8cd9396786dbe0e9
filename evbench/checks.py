"""Output checks computed apart from evrep, from the generated arrays.

Each check returns a list of failure messages; an empty list means the
output is correct. Nothing here imports evrep: tensors are parsed with this
module's own reader of the documented .evtn layout, and every reference
value is recomputed from the definitions in the evrep README and the paper.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from scenes import DELTA_TAU_US, Recording, Scene

TENSOR_HEADER = struct.Struct("<4sIIIIB")  # magic, version, C, H, W, dtype code
IOU_THRESHOLDS = np.arange(50, 100, 5) / 100
FLOAT32_ROUNDING = 2 * np.finfo(np.float32).eps
TAF_TOLERANCE = 1e-6
MAP_TOLERANCE = 1e-9


def read_evtn(path: Path) -> np.ndarray:
    """Parse one .evtn file: header, then C*H*W little-endian float32."""
    data = path.read_bytes()
    if len(data) < TENSOR_HEADER.size:
        raise ValueError(f"{path.name}: shorter than the header")
    magic, version, c, h, w, dtype_code = TENSOR_HEADER.unpack_from(data)
    if (magic, version, dtype_code) != (b"EVTN", 1, 0):
        raise ValueError(f"{path.name}: bad header {magic!r} v{version} dtype {dtype_code}")
    if len(data) != TENSOR_HEADER.size + 4 * c * h * w:
        raise ValueError(f"{path.name}: payload does not match {c}x{h}x{w}")
    return np.frombuffer(data, dtype="<f4", offset=TENSOR_HEADER.size).reshape(c, h, w)


def _flat_cells(rec: Recording) -> np.ndarray:
    return (rec.p.astype(np.int64) * rec.height + rec.y) * rec.width + rec.x


def taf_reference(rec: Recording, step: int, queue_depth: int) -> np.ndarray:
    """The TAF tensor after `step` periods, walking the periods newest first.

    Per (p, y, x) cell: the K most recent periods in which it fired, each
    reduced to the mean timestamp of its events; the value of slot k is
    clamp(1 - ln(1 + 1e-4 * elapse) / ln(1 + 1e-4 * t_max), 0, 1) with
    elapse = t_n - mean, channel 2k + p, and 0 for an empty slot.
    """
    h, w = rec.height, rec.width
    cells = 2 * h * w
    t_n = step * DELTA_TAU_US
    flat = _flat_cells(rec)
    edges = np.searchsorted(rec.t, np.arange(step + 1) * DELTA_TAU_US)
    means = np.zeros((queue_depth, cells))
    filled = np.zeros(cells, dtype=np.int64)
    for period in range(step - 1, -1, -1):
        i, j = edges[period], edges[period + 1]
        counts = np.bincount(flat[i:j], minlength=cells)
        sums = np.bincount(flat[i:j], weights=rec.t[i:j].astype(np.float64), minlength=cells)
        fired = np.nonzero((counts > 0) & (filled < queue_depth))[0]
        means[filled[fired], fired] = sums[fired] / counts[fired]
        filled[fired] += 1
    value = 1 - np.log1p((t_n - means) * 1e-4) / np.log1p(rec.t_max_us * 1e-4)
    value = np.clip(value, 0, 1)
    value[np.arange(queue_depth)[:, None] >= filled[None, :]] = 0
    return value.reshape(2 * queue_depth, h, w)


def check_taf(tensor: np.ndarray, rec: Recording, step: int, queue_depth: int) -> list[str]:
    out = []
    if tensor.min() < 0 or tensor.max() > 1:
        out.append(f"taf step {step}: values outside [0, 1]")
    slots = tensor.reshape(queue_depth, 2, rec.height, rec.width)
    if np.any(np.diff(slots, axis=0) > 0):
        out.append(f"taf step {step}: a slot is newer-valued than the slot before it")
    err = float(np.max(np.abs(tensor - taf_reference(rec, step, queue_depth))))
    if err > TAF_TOLERANCE:
        out.append(f"taf step {step}: differs from the definition by {err:.3g}")
    return out


def check_volume(tensor: np.ndarray, rec: Recording, step: int, bins: int) -> list[str]:
    """Channel 2b + p holds the events of polarity p in bin b of [t_n - B*dt, t_n)."""
    t_lo = (step - bins) * DELTA_TAU_US
    edges = np.searchsorted(rec.t, t_lo + np.arange(bins + 1) * DELTA_TAU_US)
    expected = np.concatenate(
        [np.bincount(rec.p[i:j], minlength=2) for i, j in zip(edges, edges[1:])]
    )
    got = tensor.sum(axis=(1, 2), dtype=np.float64)
    if not np.array_equal(got, expected):
        return [f"volume step {step}: channel sums {got.tolist()} != counts {expected.tolist()}"]
    return []


def check_count(tensor: np.ndarray, rec: Recording, step: int, recent: int) -> list[str]:
    before = int(np.searchsorted(rec.t, step * DELTA_TAU_US))
    mass = float(tensor.sum(dtype=np.float64))
    if tensor.min() < 0 or mass != min(recent, before):
        return [f"count step {step}: mass {mass} != min({recent}, {before})"]
    return []


def check_sae(tensor: np.ndarray, rec: Recording, step: int, decay: float) -> list[str]:
    """Support = cells that fired before t_n; value = exp(decay * (t_latest - t_n))."""
    t_n = step * DELTA_TAU_US
    j = int(np.searchsorted(rec.t, t_n))
    newest_first = _flat_cells(rec)[:j][::-1]
    cells, pos = np.unique(newest_first, return_index=True)
    latest = rec.t[:j][::-1][pos]
    flat = tensor.reshape(-1)
    if not np.array_equal(np.flatnonzero(flat), cells):
        return [f"sae step {step}: support differs from the cells that fired"]
    expected = np.exp(decay * (latest - t_n).astype(np.float64))
    if not np.allclose(flat[cells], expected, rtol=TAF_TOLERANCE, atol=0):
        return [f"sae step {step}: values differ from exp(decay * (t_latest - t_n))"]
    return []


def check_encode(rep: str, out_dir: Path, stem: str, rec: Recording, steps: list[int],
                 params: dict) -> list[str]:
    """One tensor per grid step, named by t_n; full checks at the given steps."""
    expected = {f"{stem}_{(n + 1) * DELTA_TAU_US}.evtn" for n in range(rec.steps)}
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != expected:
        return [f"{rep}: wrote {len(found)} tensors, the grid has {len(expected)}"
                f" (missing {sorted(expected - found)[:3]}, extra {sorted(found - expected)[:3]})"]
    channels = {"taf": 2 * params["queue_depth"], "volume": 2 * params["bins"]}.get(rep, 2)
    out = []
    for step in steps:
        try:
            tensor = read_evtn(out_dir / f"{stem}_{step * DELTA_TAU_US}.evtn")
        except ValueError as exc:
            out.append(f"{rep}: {exc}")
            continue
        if tensor.shape != (channels, rec.height, rec.width):
            out.append(f"{rep} step {step}: shape {tensor.shape}")
        elif rep == "taf":
            out += check_taf(tensor, rec, step, params["queue_depth"])
        elif rep == "volume":
            out += check_volume(tensor, rec, step, params["bins"])
        elif rep == "count":
            out += check_count(tensor, rec, step, params["recent_events"])
        else:
            out += check_sae(tensor, rec, step, params["sae_decay"])
    return out


def read_levels_csv(path: Path) -> dict[int, tuple[int, float, int]]:
    """box_index -> (t, bbofd, level), from the levels command's output."""
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        t, index, value, level = line.split(",")
        rows[int(index)] = (int(t), float(value), int(level))
    return rows


def check_levels(rows: dict[int, tuple[int, float, int]], scene: Scene) -> list[str]:
    out = []
    removed = set(range(len(scene.annotations))) - set(rows)
    if removed != scene.planted:
        out.append(f"levels: removed boxes differ from the planted ones at"
                   f" {sorted(removed ^ scene.planted)[:5]}")
    by_speed = []
    for index, (t, value, level) in rows.items():
        if index >= len(scene.annotations) or scene.annotations[index].t != t:
            out.append(f"levels: row for box {index} at t={t} matches no annotation")
            continue
        speed = float(scene.speed[index])
        if abs(value - speed) > FLOAT32_ROUNDING * speed:
            out.append(f"levels: box {index} BBOFD {value!r} != constructed speed {speed!r}")
        if not 1 <= level <= 5:
            out.append(f"levels: box {index} level {level} outside 1..5")
        by_speed.append((speed, level))
    # a box must not have a lower level than any box slower than it by more
    # than float32 rounding; closer speeds may round either way
    speeds, levels = np.array(sorted(by_speed)).T
    slower = np.searchsorted(speeds, speeds * (1 - 2 * FLOAT32_ROUNDING)) - 1
    highest = np.maximum.accumulate(levels)
    if np.any((slower >= 0) & (highest[np.maximum(slower, 0)] > levels)):
        out.append("levels: a faster box has a lower level")
    return out[:5]


def ap101(scores: np.ndarray, tp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of ranked detections (COCO, Lin et al. 2014)."""
    if n_gt == 0 or len(tp) == 0:
        return 0.0
    tp = tp[np.argsort(-scores, kind="stable")]
    hits = np.cumsum(tp)
    precision = hits / np.arange(1, len(tp) + 1)
    recall = hits / n_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, np.arange(101) / 100, side="left")
    return float(envelope[first[first < len(tp)]].sum() / 101)


def expected_map(scene: Scene, level: dict[int, int], only_level: int | None):
    """(mAP, {class: AP}) from the TP flags the scene's construction fixes.

    Overall (only_level None): a detection of a kept box is a TP when its
    designed IoU reaches the threshold; every other detection is a false
    positive. At one level: a detection of a box of another level, or of a
    planted box, that reaches the threshold is set aside, not counted.
    Detections that no annotation frame maps to are ignored throughout.
    Returns (None, {}) when the level has no ground truth.
    """
    gt_class = {i: scene.annotations[i].class_id for i in level
                if only_level is None or level[i] == only_level}
    classes = sorted(set(gt_class.values()))
    if not classes:
        return None, {}
    per_class = {}
    for c in classes:
        n_gt = sum(1 for v in gt_class.values() if v == c)
        aps = []
        for thr in IOU_THRESHOLDS:
            scores, flags = [], []
            for j, det in enumerate(scene.detections):
                if det.class_id != c or scene.det_ignored[j]:
                    continue
                src, reaches = int(scene.det_source[j]), scene.det_iou[j] >= thr
                if only_level is not None and src >= 0 and reaches and (
                        src in scene.planted or level[src] != only_level):
                    continue
                scores.append(scene.scores[j])
                flags.append(bool(reaches and src in gt_class))
            aps.append(ap101(np.array(scores), np.array(flags, dtype=bool), n_gt))
        per_class[c] = float(np.mean(aps))
    return float(np.mean(list(per_class.values()))), per_class


def check_eval(result_csv: Path, rows: dict[int, tuple[int, float, int]], scene: Scene) -> list[str]:
    """Overall, per-class and per-level mAP against expected_map."""
    got: dict[tuple[str, str], str] = {}
    for line in result_csv.read_text().splitlines()[1:]:
        section, key, value = line.split(",", 2)
        got[(section, key)] = value
    level = {i: lv for i, (_, _, lv) in rows.items()}
    overall, per_class = expected_map(scene, level, None)
    want = {("overall", ""): overall}
    want.update({("class", str(c)): v for c, v in per_class.items()})
    for lv in range(1, 6):
        want[("level", str(lv))] = expected_map(scene, level, lv)[0]
    out = []
    for key, value in want.items():
        text = got.get(key)
        if text is None:
            out.append(f"eval: no {key} row")
        elif value is None:
            if text != "":
                out.append(f"eval: {key} is {text}, expected n/a")
        elif text == "" or abs(float(text) - value) > MAP_TOLERANCE:
            out.append(f"eval: {key} is {text!r}, expected {value!r}")
    return out
