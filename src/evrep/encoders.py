"""Dense baseline representations of an event stream at a detection time.

Three encoders returning float32 (C, H, W) tensors:

* event_volume:          2B channels; events binned over [t_n - B*dt, t_n)
* event_count_image:     2 channels; per-pixel counts of the most recent N events
* surface_active_events: 2 channels; exp-decayed latest-event timestamps

Each, like TAF, is an init (geometry, params) -> state and a read (stream,
t_n, state) -> tensor. A state keeps its geometry and the checked params its
read needs, and counts in events_read the events its reads slice; a stream
of another geometry raises EvrepError before the state is touched. Volume
and count share WindowState, built by its constructor, and their tensors
stay pure functions of (stream, t_n, params). SAE steps a running SaeState
(sae_init): the latest timestamp per cell, into which each call folds only
the events since the previous call's t_n (a one-slot TAF), so a run over
ascending times costs one window per step, not the whole prefix. Decay
stays implicit until the render, as TAF's aging does, and the render, like
TAF's, works on the cells that have fired only, until they reach
model.FIRED_SHARE of the frame, and on the whole frame after, in place
through one float64 buffer the state holds (a dense step allocates only
its float32 output and one bool plane). No encoder checks a parameter
domain; EncoderParams and FrameGeometry do.

Every read finds an event's cell with FrameGeometry.cells, the polarity-major
order of every tensor's channels: volume channel c = 2b + p (bin 0 oldest),
count and SAE channel = polarity. The count image is the one-bin rect volume
of its last N events, and both count through _accumulate, in float32 below
2**24 events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EncoderParams, EventStream, FrameGeometry, TensorCHW, add_fired


@dataclass
class WindowState:
    """The volume and count reads' state: geometry, params and events read so far."""

    geometry: FrameGeometry
    params: EncoderParams
    events_read: int = 0


def _accumulate(shape: tuple, cells: np.ndarray, mass: np.ndarray | None = None) -> TensorCHW:
    """Zeros of shape plus, at each flat index in cells, its mass (default 1),
    summed in the order given by one np.add.at. Unit counts of fewer than
    2**24 events are integers float32 holds exactly, so they accumulate in
    float32; masses and larger counts accumulate in float64, cast once."""
    exact32 = mass is None and len(cells) < 2**24
    out = np.zeros(shape, dtype=np.float32 if exact32 else np.float64)
    # a float32 scalar: np.add.at takes a slow path for a Python float
    np.add.at(out.reshape(-1), cells, out.dtype.type(1) if mass is None else mass)
    return out.astype(np.float32, copy=False)


def event_volume(stream: EventStream, t_n: int, state: WindowState) -> TensorCHW:
    """Accumulate events of the window [t_n - bins*delta_tau, t_n) into 2*bins channels.

    state.params.kernel spreads each event over the bins. The rect kernel adds 1
    to the bin containing each event, so total tensor mass equals the
    in-window event count. The triangular kernel splits each event linearly
    between the two nearest bin centers; mass falling outside the first/last
    bin center is clipped.
    """
    geo, params = state.geometry, state.params
    geo.check_stream(stream)
    geo.check_detection_time(t_n)

    bins, delta_tau_us, plane = params.bins, params.delta_tau_us, 2 * geo.height * geo.width
    shape = (2 * bins, geo.height, geo.width)
    t_lo = t_n - bins * delta_tau_us
    i, j = stream.slice_range(t_lo, t_n)
    state.events_read += j - i
    since = stream.t[i:j] - t_lo  # offsets from t_lo
    cells = geo.cells(stream.x[i:j], stream.y[i:j], stream.p[i:j])
    # bin b's two channels start at flat index b * 2HW
    if params.kernel == "rect":
        return _accumulate(shape, since // delta_tau_us * plane + cells)
    # continuous bin coordinate, 0 at the first bin center; every left share,
    # then every right share
    u = since / float(delta_tau_us) - 0.5
    left = np.floor(u).astype(np.int64)
    frac = u - left
    b = np.concatenate([left, left + 1])
    ok = (b >= 0) & (b < bins)
    mass = np.concatenate([1.0 - frac, frac])
    return _accumulate(shape, (b * plane + np.tile(cells, 2))[ok], mass[ok])


def event_count_image(stream: EventStream, t_n: int, state: WindowState) -> TensorCHW:
    """Per-pixel, per-polarity counts of the last min(N, available) events
    before t_n: the one-bin rect count of those events."""
    geo = state.geometry
    geo.check_stream(stream)
    geo.check_detection_time(t_n)

    j = stream.count_before(t_n)
    i = max(0, j - state.params.recent_events)
    state.events_read += j - i
    cells = geo.cells(stream.x[i:j], stream.y[i:j], stream.p[i:j])
    return _accumulate((2, geo.height, geo.width), cells)


@dataclass
class SaeState:
    """Running surface of active events; one writer, ascending detection times.

    latest[FrameGeometry.cells] holds the newest timestamp of a cell's events
    with t < t_n, or -1 if it never fired (event timestamps are >= 0);
    geometry and decay_per_us are the ones sae_init was given. fired is the
    sorted flat index of the cells with latest >= 0, which a cell joins when
    it first fires and never leaves, or None once it has reached FIRED_SHARE
    of the frame (model.add_fired): the render works on those cells only
    while the index is live, and on the whole frame after. buffer is the
    dense render's float64 scratch, one value per cell: None until the first
    dense render allocates it, and reused by every later one.
    """

    geometry: FrameGeometry
    decay_per_us: float
    latest: np.ndarray
    fired: np.ndarray | None
    t_n: int = 0
    events_read: int = 0
    buffer: np.ndarray | None = None


def sae_init(geometry: FrameGeometry, params: EncoderParams) -> SaeState:
    """Fresh state at t_n = 0: no event folded in, every cell unseen."""
    latest = np.full(2 * geometry.height * geometry.width, -1, dtype=np.int64)
    return SaeState(geometry, params.sae_decay_per_us, latest, np.zeros(0, dtype=np.int64))


def surface_active_events(stream: EventStream, t_n: int, state: SaeState) -> TensorCHW:
    """Exponentially decayed snapshot of the latest event time per (x, y, p).

    Cells with at least one event before t_n hold exp(decay * (t_latest - t_n));
    cells without history hold 0, the limit of the decay as the latest event
    recedes to the infinite past. All values lie in [0, 1].

    ``state`` carries the decay, the geometry and the latest timestamps of
    the previous call on the same stream; only the events in [state.t_n,
    t_n) are folded into it, and it is updated in place. A stream of another
    geometry or a t_n before the state's raises EvrepError.
    """
    geo = state.geometry
    geo.check_stream(stream)
    geo.check_detection_time(t_n, state.t_n)

    i, j = stream.slice_range(state.t_n, t_n)
    state.events_read += j - i
    latest = state.latest
    cells = geo.cells(stream.x[i:j], stream.y[i:j], stream.p[i:j])
    if state.fired is not None:
        state.fired = add_fired(state.fired, cells[latest[cells] < 0], len(latest))
    # unbuffered reduction: well-defined under repeated pixel indices
    np.maximum.at(latest, cells, stream.t[i:j])
    state.t_n = t_n

    # a huge decay times a long elapse overflows to -inf, and exp(-inf) = 0
    # is the value meant
    with np.errstate(over="ignore"):
        if state.fired is not None:
            out = np.zeros_like(latest, dtype=np.float32)
            out[state.fired] = np.exp(state.decay_per_us * (latest[state.fired] - float(t_n)))
        else:
            # every cell in place in the state's buffer, then one cast; the
            # cells that never fired are zeroed in the output
            if state.buffer is None:
                state.buffer = np.empty(len(latest))
            buf = state.buffer
            np.subtract(latest, float(t_n), out=buf)
            np.multiply(state.decay_per_us, buf, out=buf)
            np.exp(buf, out=buf)
            out = buf.astype(np.float32)
            np.copyto(out, 0, where=latest < 0)
    return out.reshape(2, geo.height, geo.width)
