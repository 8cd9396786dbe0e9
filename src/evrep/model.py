"""Shared data model: events, streams, tensors, boxes, flow fields, configs.

Conventions used throughout the toolkit:

* Timestamps are integer microseconds everywhere. Event, detection and box
  times lie in [0, 2**63), so they fit int64: FrameGeometry bounds
  t_max_us, and with it every event and detection time. Unit conversions
  happen only inside formulas whose constants demand another unit.
* Polarity is stored as {0, 1}, never as {-1, +1}.
* Dense tensors are numpy float32 arrays of shape (C, H, W), channel-major.
* Box coordinates are continuous; rasterization to pixel indices happens
  only where a metric needs pixels (truncation toward zero).

All types are immutable after construction (array payloads are marked
read-only), so values can be shared freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import EvrepError, InvalidParamError

# A dense channel-major float tensor: np.float32, shape (C, H, W).
TensorCHW = np.ndarray


@dataclass(frozen=True)
class FrameGeometry:
    """Sensor picture size plus the maximum record duration in microseconds,
    in [1, 2**63): the one owner of the time domain."""

    width: int
    height: int
    t_max_us: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidParamError("frame dimensions must be positive")
        if not 1 <= self.t_max_us < 2**63:
            raise InvalidParamError("t_max_us must lie in [1, 2**63)")

    def check_detection_time(self, t_n: int, since: int = 0) -> None:
        """Raise EvrepError unless 0 <= t_n <= t_max_us and since <= t_n,
        where since is the time a running state has already read up to."""
        if not 0 <= t_n <= self.t_max_us:
            raise EvrepError(f"detection timestamp {t_n} outside [0, {self.t_max_us}]")
        if t_n < since:
            raise EvrepError(f"detection timestamp {t_n} precedes the state's {since}")

    def check_stream(self, stream: EventStream | WindowView) -> None:
        """Raise EvrepError unless the stream (or the window cut from one) was
        recorded in this geometry."""
        if stream.geometry != self:
            raise EvrepError(f"stream geometry {stream.geometry} is not {self}")

    def cells(self, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The int64 flat index (p*H + y)*W + x of each event's cell: the
        polarity-major order every tensor's channels share."""
        return (p.astype(np.int64) * self.height + y) * self.width + x


# TAF and SAE render only the cells that have fired while those are fewer
# than this share of the frame's 2*H*W cells. Past it, gathering and
# scattering each fired cell's K slots costs more than one dense pass: the
# TAF render at K = 4 crossed over at 0.32 of the cells on a 640x360 and at
# 0.42 on a 304x240 recording, and later at K = 1 and 8.
FIRED_SHARE = 0.3


def add_fired(fired: np.ndarray, new: np.ndarray, n_cells: int) -> np.ndarray | None:
    """The sorted flat index of fired cells with new merged in, or None once
    it reaches FIRED_SHARE of n_cells: the caller then drops the index for
    good and renders densely. new holds cells that fired for the first
    time, none of them in fired, in any order and with repeats."""
    if len(new):
        new = np.sort(new)
        new = new[np.r_[True, new[1:] != new[:-1]]]
        # timsort merges the two sorted runs in one pass
        fired = np.sort(np.concatenate([fired, new]), kind="stable")
    return fired if len(fired) < FIRED_SHARE * n_cells else None


@dataclass(frozen=True)
class EventStream:
    """An ordered event sequence bound to a frame geometry.

    Events are stored column-wise as read-only numpy arrays so encoders can
    vectorize over them; ``t`` is int64, ``x``/``y`` int32, ``p`` uint8.
    Use :meth:`from_arrays` to construct; arrays that already have the right
    dtype are adopted (and frozen) without a copy. Only the readers in ``io``
    check the stream invariants.
    """

    geometry: FrameGeometry
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    @classmethod
    def from_arrays(cls, geometry: FrameGeometry, t, x, y, p) -> "EventStream":
        t = np.ascontiguousarray(t, dtype=np.int64)
        x = np.ascontiguousarray(x, dtype=np.int32)
        y = np.ascontiguousarray(y, dtype=np.int32)
        p = np.ascontiguousarray(p, dtype=np.uint8)
        if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
            raise InvalidParamError("event columns must be 1-D and equally long")
        for a in (t, x, y, p):
            a.flags.writeable = False
        return cls(geometry, t, x, y, p)

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def count_before(self, t_us: int) -> int:
        """The number of events with t < t_us."""
        return int(np.searchsorted(self.t, t_us, side="left"))

    def slice_range(self, t_lo: int, t_hi: int) -> tuple[int, int]:
        """Index range [i, j) of events with t in [t_lo, t_hi)."""
        return self.count_before(t_lo), self.count_before(t_hi)


@dataclass(frozen=True)
class WindowView:
    """A contiguous slice of a stream restricted to [t_lo, t_hi), t_hi <= t_n.

    Holds the stream's geometry and column views into the stream (no
    copies); ``t_n`` is the detection timestamp the window feeds.
    """

    geometry: FrameGeometry
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    t_lo: int
    t_hi: int
    t_n: int

    @classmethod
    def from_stream(cls, stream: EventStream, t_lo: int, t_hi: int, t_n: int) -> "WindowView":
        if t_hi > t_n:
            raise InvalidParamError("window must end at or before the detection timestamp")
        i, j = stream.slice_range(t_lo, t_hi)
        return cls(
            stream.geometry, stream.t[i:j], stream.x[i:j], stream.y[i:j], stream.p[i:j],
            t_lo, t_hi, t_n,
        )

    def __len__(self) -> int:
        return int(self.t.shape[0])


@dataclass(frozen=True)
class Annotation:
    """A timestamped ground-truth box: upper-left corner, size, class label.

    Coordinates and sizes are real-valued pixels; class_id is a small
    non-negative integer.
    """

    t: int
    x: float
    y: float
    w: float
    h: float
    class_id: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise InvalidParamError("box width and height must be positive")


@dataclass(frozen=True)
class Detection(Annotation):
    """A scored predicted box: an Annotation plus a score in [0, 1]."""

    score: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.score <= 1.0:
            raise InvalidParamError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class FlowField:
    """Dense per-pixel optical flow (u, v) at one timestamp.

    ``u`` and ``v`` are float32 (H, W) planes in pixels per flow frame.
    """

    t: int
    u: np.ndarray
    v: np.ndarray

    @classmethod
    def from_planes(cls, t: int, u, v) -> "FlowField":
        u = np.ascontiguousarray(u, dtype=np.float32)
        v = np.ascontiguousarray(v, dtype=np.float32)
        if u.ndim != 2 or u.shape != v.shape:
            raise InvalidParamError("u and v must be equal-shape 2-D planes")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise InvalidParamError("flow planes must be finite")
        u.flags.writeable = False
        v.flags.writeable = False
        return cls(t, u, v)

    @property
    def height(self) -> int:
        return int(self.u.shape[0])

    @property
    def width(self) -> int:
        return int(self.u.shape[1])


@dataclass(frozen=True)
class EncoderParams:
    """Hyper-parameters shared by the encoders, and the one check of their domains.

    Every encoder takes these checked values (or a state built from them),
    never a loose int or float, so no encoder repeats a domain check.

    delta_tau_us:      sampling/detection period (default 10 ms)
    bins:              temporal bin count for the event volume
    recent_events:     event count for the count image
    sae_decay_per_us:  exponential decay rate for the active-event surface
    queue_depth:       per-position FIFO depth for the focus encoder
    kernel:            event volume accumulation kernel, rect or triangular
    """

    delta_tau_us: int = 10_000
    bins: int = 5
    recent_events: int = 50_000
    sae_decay_per_us: float = 1e-5
    queue_depth: int = 4
    kernel: str = "rect"

    def __post_init__(self):
        if self.delta_tau_us <= 0:
            raise InvalidParamError("delta_tau_us must be positive")
        # 2 * bins and 2 * queue_depth channels fit a .evtn header's u32
        if not 1 <= self.bins < 2**31:
            raise InvalidParamError("bins must lie in [1, 2**31)")
        if self.bins * self.delta_tau_us >= 2**63:
            raise InvalidParamError("the volume window bins * delta_tau_us must be below 2**63 µs")
        if self.recent_events < 1:
            raise InvalidParamError("recent_events must be >= 1")
        if not 0 < self.sae_decay_per_us < np.inf:
            raise InvalidParamError("sae_decay_per_us must be positive and finite")
        if not 1 <= self.queue_depth < 2**31:
            raise InvalidParamError("queue_depth must lie in [1, 2**31)")
        if self.kernel not in ("rect", "triangular"):
            raise InvalidParamError(f"unknown kernel {self.kernel!r}")
