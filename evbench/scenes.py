"""Seeded inputs for the benchmark: an event recording and an evaluation scene.

Everything here is a pure function of a numpy Generator, so one seed gives
one set of inputs. The arrays are kept by the caller as the ground truth the
output checks recompute from; the files are written through evrep's own
writers, the way a user would produce them.

Recording: events on a 10 ms grid whose last step ends exactly on t_max.
Every window holds the same number of events, so a seed changes where
events fall but not how many there are; 70% are drawn around a few objects
moving across the frame and 30% are uniform noise.

Evaluation scene: the frame is cut into a grid of slots, and each slot of a
frame holds at most one thing: a moving box, a planted pair of overlapping
boxes (which sanitization must remove), a false-positive detection, or
nothing. Slots keep every box and detection apart, so every IoU the
evaluator can see is fixed by construction. Each frame has the same number
of each kind of slot, the same split of classes and the same ladder of
speeds, so a seed changes where boxes are and how they move, but not how
much work the evaluator has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DELTA_TAU_US = 10_000
FRAME_DT_US = 50_000
TOLERANCE_US = 5_000
# Designed IoUs of a detection with its box; each sits at least 0.025 from
# every COCO threshold 0.50:0.05:0.95, so rounding cannot move a match.
DESIGNED_IOUS = (0.975, 0.925, 0.825, 0.725, 0.625, 0.525, 0.3)
CLASSES = 2
OBJECTS = 6  # moving objects that most events of a recording come from


@dataclass(frozen=True)
class Recording:
    width: int
    height: int
    steps: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    @property
    def t_max_us(self) -> int:
        return self.steps * DELTA_TAU_US

    @property
    def seconds(self) -> float:
        return self.t_max_us / 1e6


def make_recording(rng: np.random.Generator, width: int, height: int,
                   rate_per_s: float, steps: int) -> Recording:
    """rate * 10 ms events in every window; t sorted, in [0, t_max)."""
    per_window = round(rate_per_s * DELTA_TAU_US * 1e-6)
    n = per_window * steps
    window = np.repeat(np.arange(steps, dtype=np.int64), per_window)
    t = window * DELTA_TAU_US + rng.integers(0, DELTA_TAU_US, size=n)
    t.sort()  # stays inside each window: offsets are below DELTA_TAU_US

    start = rng.uniform((0, 0), (width, height), size=(OBJECTS, 2))
    velocity = rng.uniform(-1, 1, size=(OBJECTS, 2)) * (width, height)  # px per s
    which = rng.integers(0, OBJECTS, size=n)
    centre = start[which] + velocity[which] * (t[:, None] * 1e-6)
    centre %= (width, height)
    xy = centre + rng.normal(0, 6, size=(n, 2))
    noise = rng.random(n) < 0.3
    xy[noise] = rng.uniform((0, 0), (width, height), size=(int(noise.sum()), 2))
    x = np.clip(xy[:, 0], 0, width - 1).astype(np.int32)
    y = np.clip(xy[:, 1], 0, height - 1).astype(np.int32)
    p = rng.integers(0, 2, size=n).astype(np.uint8)
    return Recording(width, height, steps, t, x, y, p)


@dataclass(frozen=True)
class Box:
    t: int
    x: float
    y: float
    w: float
    h: float
    class_id: int


@dataclass(frozen=True)
class Scene:
    """Annotations in file order, with what each detection is by design.

    speed[i] is the flow magnitude painted inside annotation i; planted holds
    the annotation indices of overlapping pairs. Each detection is tagged
    with the annotation it was made from and its designed IoU (for a
    detection of a planted box the IoU is 1), or (-1, 0) for a false
    positive; ignored[j] marks detections placed at a time no annotation
    frame maps to.
    """

    width: int
    height: int
    frame_times: tuple[int, ...]
    annotations: tuple[Box, ...]
    speed: np.ndarray
    velocity: np.ndarray  # (n_annotations, 2) float32 u, v
    planted: frozenset[int]
    detections: tuple[Box, ...]
    scores: np.ndarray
    det_source: np.ndarray
    det_iou: np.ndarray
    det_ignored: np.ndarray


def make_scene(rng: np.random.Generator, width: int, height: int, frames: int,
               slot_w: int, slot_h: int) -> Scene:
    cols, rows = width // slot_w, height // slot_h
    n_slots = cols * rows
    n_boxes, n_pairs, n_false = round(0.6 * n_slots), max(1, round(0.05 * n_slots)), round(0.1 * n_slots)
    annotations: list[Box] = []
    speeds: list[float] = []
    velocities: list[tuple[float, float]] = []
    planted: set[int] = set()
    dets: list[Box] = []
    det_source: list[int] = []
    det_iou: list[float] = []
    det_ignored: list[bool] = []
    frame_times = tuple(FRAME_DT_US * (i + 1) for i in range(frames))

    for frame, t in enumerate(frame_times):
        # every 20th frame's detections sit where no annotation frame maps to
        ignored = frame % 20 == 19
        det_t = t + (20_000 if ignored else int(rng.integers(-2_000, 2_001)))
        for rank, slot in enumerate(rng.permutation(n_slots)[:n_boxes + n_pairs + n_false]):
            sx, sy = (slot % cols) * slot_w, (slot // cols) * slot_h
            if rank < n_boxes:
                # a moving box; all but every tenth get one detection at a designed IoU
                w, h = int(rng.integers(12, 25)), int(rng.integers(12, 25))
                q = DESIGNED_IOUS[rank % len(DESIGNED_IOUS)]
                shift = w * (1 - q) / (1 + q)  # (w - shift) / (w + shift) == q
                bx = sx + 1 + int(rng.integers(0, slot_w - 2 - w - int(np.ceil(shift)) + 1))
                by = sy + 1 + int(rng.integers(0, slot_h - 2 - h + 1))
                cls = rank % CLASSES
                # rung `rank` of a log ladder over [0.1, 20] px/frame, so that
                # every frame spans the five motion levels alike
                speed = float(10 ** (-1.0 + 2.3 * (rank + rng.random()) / n_boxes))
                theta = rng.uniform(0, 2 * np.pi)
                velocities.append((speed * np.cos(theta), speed * np.sin(theta)))
                speeds.append(speed)
                annotations.append(Box(t, float(bx), float(by), float(w), float(h), cls))
                if rank % 10 != 9:
                    dets.append(Box(det_t, bx + shift, float(by), float(w), float(h), cls))
                    det_source.append(len(annotations) - 1)
                    det_iou.append(q)
                    det_ignored.append(ignored)
            elif rank < n_boxes + n_pairs:
                # a planted overlapping pair and a detection equal to its first box
                cls = rank % CLASSES
                for dx in (0, 8):
                    velocities.append((1.0, 0.0))
                    speeds.append(1.0)
                    planted.add(len(annotations))
                    annotations.append(Box(t, float(sx + 2 + dx), float(sy + 4), 20.0, 20.0, cls))
                first = annotations[-2]
                dets.append(Box(det_t, first.x, first.y, first.w, first.h, cls))
                det_source.append(len(annotations) - 2)
                det_iou.append(1.0)
                det_ignored.append(ignored)
            else:
                w, h = int(rng.integers(10, 30)), int(rng.integers(10, 30))
                bx = sx + 1 + int(rng.integers(0, slot_w - 2 - w + 1))
                by = sy + 1 + int(rng.integers(0, slot_h - 2 - h + 1))
                dets.append(Box(det_t, float(bx), float(by), float(w), float(h), rank % CLASSES))
                det_source.append(-1)
                det_iou.append(0.0)
                det_ignored.append(ignored)

    n_det = len(dets)
    scores = (rng.permutation(n_det) + 1) / (n_det + 2)  # distinct, in (0, 1)
    return Scene(
        width, height, frame_times, tuple(annotations),
        np.array(speeds), np.array(velocities, dtype=np.float32), frozenset(planted),
        tuple(dets), scores, np.array(det_source), np.array(det_iou), np.array(det_ignored),
    )


def flow_planes(scene: Scene):
    """Yield (t, u, v) per frame: each box's velocity inside it, 0 elsewhere."""
    by_t: dict[int, list[int]] = {}
    for i, a in enumerate(scene.annotations):
        by_t.setdefault(a.t, []).append(i)
    for t in scene.frame_times:
        u = np.zeros((scene.height, scene.width), dtype=np.float32)
        v = np.zeros_like(u)
        for i in by_t.get(t, ()):
            a = scene.annotations[i]
            region = (slice(int(a.y), int(a.y + a.h)), slice(int(a.x), int(a.x + a.w)))
            u[region], v[region] = scene.velocity[i]
        yield t, u, v
