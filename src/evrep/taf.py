"""Temporal Active Focus: an incrementally updated, per-position FIFO encoding.

Each (x, y, polarity) cell keeps a FIFO of up to K entries, one per recent
period in which the cell fired. An entry summarizes one period's events by
their mean elapse to the detection time; entries age as detections advance
and are evicted when K newer periods have fired.

The trick that makes stepping cheap: instead of storing elapses (which
would need a +delta_tau rewrite of every entry per step), each entry stores
the mean event *timestamp* of its period. The elapse of an entry at
detection time t is then just t - stored_mean, so aging is implicit and one
step touches only the cells that fired in the step's window.

The state is one float64 array mean_ts[slot, p, y, x], slot 0 newest.
Rendering maps slots elementwise through a logarithmic transform onto
[0, 1] (1 = just now, 0 = t_max or older), and a reshape gives channel
c = 2*slot + polarity. An empty slot holds the far-past timestamp _EMPTY:
its elapse exceeds any t_max, so the render's clamp turns it into 0, i.e.
"infinitely old" (the transform's far limit), not its value at elapse 0.
Event timestamps are non-negative, so a slot is filled iff mean_ts >= 0.

The render takes one of two paths, which give the same bits. While fewer
than model.FIRED_SHARE of the cells have fired, it maps only the K slots of
those cells, which the state indexes as they first fire, and scatters them
into a zero tensor: a sparse step then costs in proportion to the cells
that have fired, not to the frame. Past that share the state drops the
index for good and the render maps every slot, as a dense step needs.

taf_init builds the state from a FrameGeometry and the checked
EncoderParams, and the state keeps both: K, dt and the render's t_max come
from it, so no call here takes them again or checks their domains.
temporal_active_focus reads the tensor at any ascending detection time t_n:
it steps every full period that ends at or before t_n, and off the grid it
pushes the open period [k*dt, t_n) as each fired cell's newest slot for the
render only. The test-only oracle tests/taf_oracle.py recomputes the same
tensor from the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvrepError, InvalidParamError
from .model import EncoderParams, EventStream, FrameGeometry, TensorCHW, WindowView, add_fired

# Far-past timestamp of an empty slot (µs). Finite on purpose: numpy's log1p
# takes a slow path on inf, and 1e30 µs already lies past any t_max (< 2**63).
_EMPTY = -1e30


def transform_elapse(delta_t_us, t_max_us: int):
    """Map a non-negative elapse (µs) into [0, 1], newest -> 1, t_max -> 0.

    value = clamp(1 - ln(1 + dt*1e-4) / ln(1 + t_max*1e-4), 0, 1)

    Strictly decreasing on [0, t_max]; elapses beyond t_max clamp to 0.
    Accepts scalars or arrays.
    """
    if t_max_us <= 0:
        raise InvalidParamError("t_max_us must be positive")
    dt = np.asarray(delta_t_us, dtype=np.float64)
    if np.any(dt < 0):
        raise InvalidParamError("elapse must be non-negative")
    val = 1.0 - np.log1p(dt * 1e-4) / np.log1p(t_max_us * 1e-4)
    out = np.clip(val, 0.0, 1.0)
    return float(out) if np.isscalar(delta_t_us) else out


@dataclass
class TafState:
    """Mutable per-position FIFO state; one writer, strictly sequential steps.

    mean_ts[slot, p, y, x] holds the mean event timestamp of one stored
    period, slot 0 newest; an empty slot holds _EMPTY (negative, while
    every filled slot is >= 0). A push shifts a cell's slots toward the
    back (the eldest falls off), so only cells that fired in a step are
    ever touched. fired is the sorted flat (p, y, x) index of the cells
    whose slot 0 is filled, which a cell joins at its first push and never
    leaves, or None once it has reached FIRED_SHARE of the frame
    (model.add_fired): the render works on those cells only while the index
    is live, and on every slot after. events_read counts the events of every
    window stepped or read as the open period. t_n is the end of the last
    period stepped, the state's detection time: the next step's window
    starts there, and no read may ask for an earlier time.
    """

    geometry: FrameGeometry
    queue_depth: int
    delta_tau_us: int
    mean_ts: np.ndarray
    fired: np.ndarray | None
    t_n: int = 0
    events_read: int = 0


def taf_init(geometry: FrameGeometry, params: EncoderParams) -> TafState:
    """Fresh state at t_n = 0 with every queue empty."""
    k, h, w = params.queue_depth, geometry.height, geometry.width
    return TafState(
        geometry=geometry,
        queue_depth=k,
        delta_tau_us=params.delta_tau_us,
        mean_ts=np.full((k, 2, h, w), _EMPTY, dtype=np.float64),
        fired=np.zeros(0, dtype=np.int64),
    )


def _window_mean_timestamps(window: WindowView):
    """Flat cell index and mean timestamp for every cell that fired."""
    n, geo = len(window), window.geometry
    flat = geo.cells(window.x, window.y, window.p)
    t = window.t.astype(np.float64)

    n_cells = 2 * geo.height * geo.width
    if 8 * n < n_cells:
        # sparse window: group by sorting, cost independent of the frame size
        order = np.argsort(flat, kind="stable")
        sf = flat[order]
        st = t[order]
        starts = np.r_[0, np.nonzero(np.diff(sf))[0] + 1]
        sums = np.add.reduceat(st, starts)
        counts = np.diff(np.r_[starts, n])
        return sf[starts], sums / counts

    sums = np.bincount(flat, weights=t, minlength=n_cells)
    counts = np.bincount(flat, minlength=n_cells)
    active = np.nonzero(counts)[0]
    return active, sums[active] / counts[active]


def _push(state: TafState, active: np.ndarray, mu: np.ndarray) -> None:
    """Make mu the newest slot of each active cell; its eldest slot falls off."""
    mean_ts = state.mean_ts.reshape(state.queue_depth, -1)
    block = mean_ts[:, active]
    if state.fired is not None:  # a cell fires first when its slot 0 is empty
        state.fired = add_fired(state.fired, active[block[0] < 0], mean_ts.shape[1])
    block[1:] = block[:-1]
    block[0] = mu
    mean_ts[:, active] = block


def taf_step(state: TafState, window: WindowView) -> TafState:
    """Advance the state by one period using the window's events.

    The window must cover exactly [t_n, t_n + dt) for the state's t_n and
    end at its detection timestamp. Cells that fired get the period's
    mean elapse pushed as their newest entry (evicting the oldest when
    full); all other cells only age, which costs nothing here. Returns the
    same state object, updated in place. A window cut from a stream of
    another geometry raises EvrepError before the state is touched.
    """
    t_lo = state.t_n
    t_hi = t_lo + state.delta_tau_us
    if window.t_lo != t_lo or window.t_hi != t_hi or window.t_n != t_hi:
        raise EvrepError(
            f"expected window [{t_lo}, {t_hi}) at detection {t_hi}, "
            f"got [{window.t_lo}, {window.t_hi}) at {window.t_n}"
        )
    if len(window) and (int(window.t[0]) < t_lo or int(window.t[-1]) >= t_hi):
        raise EvrepError("window holds events outside its bounds")
    state.geometry.check_stream(window)

    if len(window):
        _push(state, *_window_mean_timestamps(window))

    state.events_read += len(window)
    state.t_n = t_hi
    return state


def taf_render(state: TafState, t_n: int | None = None) -> TensorCHW:
    """Render the state at t_n (default: its detection time) into a float32
    (2K, H, W) tensor.

    Channel c holds polarity c % 2 at slot c // 2 (slot 0 newest). Filled
    slots hold transform_elapse of their entry's elapse to t_n, against the
    t_max of the state's geometry; empty slots hold 0.

    While the state's fired index is live, only the K slots of those cells
    are mapped, by the same operations in the same order, and scattered into
    a zero tensor; a cell that never fired holds only empty slots, which
    render to 0 either way, so both paths give the same bits.
    """
    t_max_us = state.geometry.t_max_us
    t_now = float(state.t_n if t_n is None else t_n)
    slots, fired = state.mean_ts.reshape(state.queue_depth, -1), state.fired
    # elapses stay float64 (timestamps need it); once scaled by 1e-4 the
    # argument is small enough that float32 log1p costs < 1e-7 of accuracy.
    # Each slot's elapse goes through one reused float64 buffer of one slot's
    # length into its row of the float32 output, and the rest of the chain
    # runs in place on that output; the fired-cell path then scatters it
    # into a zero tensor.
    elapse = np.empty(slots.shape[1] if fired is None else len(fired))
    rendered = np.empty((state.queue_depth, len(elapse)), dtype=np.float32)
    for k, slot in enumerate(slots):
        if fired is None:
            np.subtract(t_now, slot, out=elapse)
        else:
            np.take(slot, fired, out=elapse)  # faster than slot[fired]
            np.subtract(t_now, elapse, out=elapse)
        elapse *= 1e-4
        rendered[k] = elapse
    np.clip(rendered, 0.0, None, out=rendered)
    np.log1p(rendered, out=rendered)
    rendered /= np.float32(np.log1p(t_max_us * 1e-4))
    np.subtract(1.0, rendered, out=rendered)
    np.clip(rendered, 0.0, 1.0, out=rendered)
    if fired is not None:
        rendered, at_fired = np.zeros(slots.shape, dtype=np.float32), rendered
        rendered[:, fired] = at_fired
    h, w = state.geometry.height, state.geometry.width
    return rendered.reshape(2 * state.queue_depth, h, w)


def temporal_active_focus(stream: EventStream, t_n: int, state: TafState) -> TensorCHW:
    """TAF tensor at t_n: for each (p, y, x), the K most recent non-empty
    delta_tau-aligned periods of the events with t < t_n, each as its mean
    elapse to t_n; the newest may be the open period [k*delta_tau, t_n).

    ``state`` carries K, delta_tau and the geometry, and is stepped in place
    through every full period that ends at or before t_n. The open period is
    pushed into the cells that fired in it for the render only, then those
    cells and the fired index are restored. A stream of another geometry, or
    a t_n before the end of the state's last full period, raises EvrepError.
    """
    geo, delta_tau_us = state.geometry, state.delta_tau_us
    geo.check_stream(stream)
    geo.check_detection_time(t_n, state.t_n)

    while state.t_n + delta_tau_us <= t_n:
        t_hi = state.t_n + delta_tau_us
        taf_step(state, WindowView.from_stream(stream, state.t_n, t_hi, t_hi))
    t_lo = state.t_n
    if t_n == t_lo:  # on the grid: no open window is built
        return taf_render(state)
    window = WindowView.from_stream(stream, t_lo, t_n, t_n)
    state.events_read += len(window)
    if not len(window):
        return taf_render(state, t_n)
    active, mu = _window_mean_timestamps(window)
    slots = state.mean_ts.reshape(state.queue_depth, -1)
    saved, fired = slots[:, active], state.fired
    _push(state, active, mu)
    tensor = taf_render(state, t_n)
    slots[:, active], state.fired = saved, fired
    return tensor
