import copy
import math
import re
import tracemalloc

import numpy as np
import pytest

from evrep.encoders import (
    WindowState,
    event_count_image,
    event_volume,
    sae_init,
    surface_active_events,
)
from evrep.errors import EvrepError, InvalidParamError
from evrep.model import EncoderParams, EventStream, FrameGeometry
from evrep.taf import taf_init, temporal_active_focus

from conftest import make_random_stream, same_bits
from encoders_oracle import sae_batch_oracle

PARAMS = EncoderParams(delta_tau_us=10_000, bins=5, sae_decay_per_us=1e-5)


def _window_count(stream, t_lo, t_hi) -> int:
    return int(np.sum((stream.t >= t_lo) & (stream.t < t_hi)))


class TestEventVolume:
    def test_empty_stream_gives_zero_tensor(self, small_geometry):
        stream = EventStream.from_arrays(small_geometry, [], [], [], [])
        vol = event_volume(stream, 500_000, WindowState(stream.geometry, PARAMS))
        assert vol.shape == (10, small_geometry.height, small_geometry.width)
        assert not vol.any()

    def test_rect_mass_equals_window_count(self, rng, small_geometry):
        for _ in range(30):
            stream = make_random_stream(rng, small_geometry, int(rng.integers(0, 2000)))
            t_n = int(rng.integers(1, small_geometry.t_max_us))
            dt = int(rng.integers(1000, 100_000))
            b = int(rng.integers(1, 8))
            vol = event_volume(
                stream, t_n, WindowState(stream.geometry, EncoderParams(delta_tau_us=dt, bins=b))
            )
            assert vol.sum() == _window_count(stream, t_n - b * dt, t_n)

    def test_default_bin_placement(self):
        # one event 1 µs before detection lands in the newest bin, channel 2*4+1
        geo = FrameGeometry(8, 8, 1_000_000)
        t_n = 200_000
        stream = EventStream.from_arrays(geo, [t_n - 1], [3], [4], [1])
        vol = event_volume(stream, t_n, WindowState(stream.geometry, PARAMS))
        assert vol[9, 4, 3] == 1.0
        assert vol.sum() == 1.0

    def test_bin_zero_is_oldest(self):
        geo = FrameGeometry(4, 4, 1_000_000)
        t_n = 50_000
        stream = EventStream.from_arrays(geo, [0, 49_999], [0, 0], [0, 0], [0, 0])
        vol = event_volume(stream, t_n, WindowState(stream.geometry, PARAMS))
        assert vol[0, 0, 0] == 1.0   # event at t=0 -> oldest bin
        assert vol[8, 0, 0] == 1.0   # event just before t_n -> newest bin

    def test_events_outside_window_ignored(self, small_geometry):
        stream = EventStream.from_arrays(small_geometry, [100, 900_000], [1, 1], [1, 1], [0, 0])
        vol = event_volume(stream, 500_000, WindowState(stream.geometry, PARAMS))
        assert vol.sum() == 0.0

    def test_triangular_conserves_interior_mass(self, rng, small_geometry):
        # keep events away from the first/last half-bin so no mass clips
        dt, b = 10_000, 5
        t_n = 500_000
        t_lo = t_n - b * dt
        t = np.sort(rng.integers(t_lo + dt // 2, t_n - dt // 2, size=500))
        stream = EventStream.from_arrays(
            small_geometry, t,
            rng.integers(0, small_geometry.width, 500),
            rng.integers(0, small_geometry.height, 500),
            rng.integers(0, 2, 500),
        )
        vol = event_volume(
            stream, t_n,
            WindowState(stream.geometry, EncoderParams(delta_tau_us=dt, bins=b, kernel="triangular")),
        )
        assert math.isclose(float(vol.sum()), 500.0, rel_tol=1e-4)

    def test_triangular_splits_between_bin_centers(self):
        geo = FrameGeometry(4, 4, 1_000_000)
        dt, b = 10_000, 2
        t_n = 20_000
        # event at 12 500 sits 3/4 of the way from bin-0 center to bin-1 center
        stream = EventStream.from_arrays(geo, [12_500], [2], [1], [0])
        vol = event_volume(
            stream, t_n,
            WindowState(stream.geometry, EncoderParams(delta_tau_us=dt, bins=b, kernel="triangular")),
        )
        assert math.isclose(float(vol[0, 1, 2]), 0.25, abs_tol=1e-7)
        assert math.isclose(float(vol[2, 1, 2]), 0.75, abs_tol=1e-7)

    def test_detection_time_validated(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 10)
        expected = r"^detection timestamp 1000001 outside \[0, 1000000\]$"
        with pytest.raises(EvrepError, match=expected):
            event_volume(stream, small_geometry.t_max_us + 1, WindowState(stream.geometry, PARAMS))

    def test_unknown_kernel(self):
        with pytest.raises(InvalidParamError, match="^unknown kernel 'gauss'$"):
            EncoderParams(kernel="gauss")

    def test_purity(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 500)
        a = event_volume(stream, 800_000, WindowState(stream.geometry, PARAMS))
        b = event_volume(stream, 800_000, WindowState(stream.geometry, PARAMS))
        assert np.array_equal(a, b)


def test_rect_float32_counts_equal_float64_counts(rng, small_geometry):
    # one cell takes 100k events in one bin; float32 holds every count exactly
    geo, dt, bins, t_n = small_geometry, 10_000, 3, 600_000
    base = make_random_stream(rng, geo, 5_000)
    hot = 100_000
    t = np.concatenate([base.t, rng.integers(t_n - dt, t_n, size=hot)])
    x = np.concatenate([base.x, np.full(hot, 7)])
    y = np.concatenate([base.y, np.full(hot, 5)])
    p = np.concatenate([base.p, np.ones(hot, dtype=base.p.dtype)])
    order = np.argsort(t, kind="stable")
    stream = EventStream.from_arrays(geo, t[order], x[order], y[order], p[order])

    got = event_volume(
        stream, t_n, WindowState(stream.geometry, EncoderParams(delta_tau_us=dt, bins=bins))
    )

    t_lo = t_n - bins * dt
    keep = (stream.t >= t_lo) & (stream.t < t_n)
    b = (stream.t[keep] - t_lo) // dt
    cell = ((2 * b + stream.p[keep]) * geo.height + stream.y[keep]) * geo.width + stream.x[keep]
    want = np.zeros(2 * bins * geo.height * geo.width, dtype=np.float64)
    np.add.at(want, cell.astype(np.int64), 1.0)
    want = want.reshape(2 * bins, geo.height, geo.width).astype(np.float32)
    assert got.dtype == np.float32
    assert got[2 * (bins - 1) + 1, 5, 7] >= hot
    assert np.array_equal(got, want)

    # the count image of every event before t_n: the same float32 accumulation
    count = event_count_image(
        stream, t_n, WindowState(stream.geometry, EncoderParams(recent_events=len(stream)))
    )
    before = stream.t < t_n
    cell = (stream.p[before].astype(np.int64) * geo.height + stream.y[before]) * geo.width
    cell += stream.x[before]
    want = np.bincount(cell, minlength=2 * geo.height * geo.width).astype(np.float32)
    assert count.dtype == np.float32
    assert count[1, 5, 7] >= hot
    assert np.array_equal(count, want.reshape(2, geo.height, geo.width))


def test_triangular_matches_per_event_oracle(rng, small_geometry):
    # slow per-event recomputation of the linear split between bin centers
    dt, bins = 10_000, 4
    t_n = 600_000
    stream = make_random_stream(rng, small_geometry, 400)
    got = event_volume(
        stream, t_n,
        WindowState(stream.geometry, EncoderParams(delta_tau_us=dt, bins=bins, kernel="triangular")),
    )

    want = np.zeros_like(got, dtype=np.float64)
    t_lo = t_n - bins * dt
    for i in range(len(stream)):
        t = int(stream.t[i])
        if not t_lo <= t < t_n:
            continue
        x, y, p = int(stream.x[i]), int(stream.y[i]), int(stream.p[i])
        u = (t - t_lo) / dt - 0.5
        left = math.floor(u)
        frac = u - left
        if 0 <= left < bins:
            want[2 * left + p, y, x] += 1.0 - frac
        if 0 <= left + 1 < bins:
            want[2 * (left + 1) + p, y, x] += frac
    assert np.allclose(got, want.astype(np.float32), atol=1e-6)


def test_all_encoders_pure(rng, small_geometry):
    stream = make_random_stream(rng, small_geometry, 600)
    for encode in (
        lambda: event_volume(
            stream, 700_000, WindowState(stream.geometry, EncoderParams(kernel="triangular"))
        ),
        lambda: event_count_image(
            stream, 700_000, WindowState(stream.geometry, EncoderParams(recent_events=250))
        ),
        lambda: surface_active_events(stream, 700_000, sae_init(stream.geometry, PARAMS)),
    ):
        assert np.array_equal(encode(), encode())


class TestEventCountImage:
    def test_fewer_events_than_n(self, small_geometry):
        t = [10, 20, 30, 40, 50]
        stream = EventStream.from_arrays(small_geometry, t, [1] * 5, [2] * 5, [1] * 5)
        img = event_count_image(
            stream, 100, WindowState(stream.geometry, EncoderParams(recent_events=10))
        )
        assert img.sum() == 5.0
        assert img[1, 2, 1] == 5.0

    def test_suffix_selection(self):
        # 3 events at pixel A (p=1) then 2 at pixel B (p=0); N=4 keeps the last four
        geo = FrameGeometry(8, 8, 1_000)
        stream = EventStream.from_arrays(
            geo,
            [1, 2, 3, 4, 5],
            [2, 2, 2, 5, 5],
            [3, 3, 3, 6, 6],
            [1, 1, 1, 0, 0],
        )
        img = event_count_image(
            stream, 10, WindowState(stream.geometry, EncoderParams(recent_events=4))
        )
        assert img[1, 3, 2] == 2.0
        assert img[0, 6, 5] == 2.0
        assert img.sum() == 4.0

    def test_mass_is_min_of_n_and_available(self, rng, small_geometry):
        for _ in range(30):
            stream = make_random_stream(rng, small_geometry, int(rng.integers(0, 1500)))
            t_n = int(rng.integers(1, small_geometry.t_max_us))
            n = int(rng.integers(1, 2000))
            img = event_count_image(
                stream, t_n, WindowState(stream.geometry, EncoderParams(recent_events=n))
            )
            available = int(np.searchsorted(stream.t, t_n, side="left"))
            assert img.sum() == min(n, available)

    def test_invariant_to_future_events(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 800)
        t_n = 500_000
        before = event_count_image(
            stream, t_n, WindowState(stream.geometry, EncoderParams(recent_events=100))
        )
        # replay with the future suffix removed
        keep = stream.t < t_n
        trimmed = EventStream.from_arrays(
            small_geometry, stream.t[keep], stream.x[keep], stream.y[keep], stream.p[keep]
        )
        assert np.array_equal(
            before, event_count_image(
                trimmed, t_n, WindowState(trimmed.geometry, EncoderParams(recent_events=100))
            )
        )


class TestSurfaceActiveEvents:
    def test_event_one_microsecond_old(self, small_geometry):
        t_n = 100_000
        stream = EventStream.from_arrays(small_geometry, [t_n - 1], [3], [4], [1])
        surf = surface_active_events(stream, t_n, sae_init(stream.geometry, PARAMS))
        assert math.isclose(float(surf[1, 4, 3]), math.exp(-1e-5), rel_tol=1e-6)

    def test_decay_at_tenth_of_second(self, small_geometry):
        t_n = 200_000
        stream = EventStream.from_arrays(small_geometry, [t_n - 100_000], [0], [0], [0])
        surf = surface_active_events(stream, t_n, sae_init(stream.geometry, PARAMS))
        assert math.isclose(float(surf[0, 0, 0]), math.exp(-1.0), rel_tol=1e-6)

    def test_empty_cells_hold_zero(self, small_geometry):
        stream = EventStream.from_arrays(small_geometry, [10], [3], [4], [1])
        surf = surface_active_events(stream, 100, sae_init(stream.geometry, PARAMS))
        assert np.count_nonzero(surf) == 1

    def test_only_latest_timestamp_counts(self, small_geometry):
        t_n = 100_000
        stream = EventStream.from_arrays(
            small_geometry, [10, 50_000, 99_999], [3, 3, 3], [4, 4, 4], [1, 1, 1]
        )
        surf = surface_active_events(stream, t_n, sae_init(stream.geometry, PARAMS))
        assert math.isclose(float(surf[1, 4, 3]), math.exp(-1e-5), rel_tol=1e-6)

    def test_range_and_monotonicity(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 1500)
        t_n = 900_000
        surf = surface_active_events(stream, t_n, sae_init(stream.geometry, PARAMS))
        assert np.all(surf >= 0.0) and np.all(surf <= 1.0)
        # making one pixel's history more recent never decreases its value
        # bump the last pre-t_n event; order is preserved so pairings survive
        idx = int(np.searchsorted(stream.t, t_n) - 1)
        assert idx >= 0
        t2 = np.array(stream.t)
        t2[idx] = t_n - 1
        bumped = EventStream.from_arrays(small_geometry, t2, stream.x, stream.y, stream.p)
        # same pixel set; only the bumped pixel may change, and only upward
        x, y, p = int(stream.x[idx]), int(stream.y[idx]), int(stream.p[idx])
        surf2 = surface_active_events(bumped, t_n, sae_init(bumped.geometry, PARAMS))
        assert surf2[p, y, x] >= surf[p, y, x]


def _bursty_stream(rng, geometry):
    """A few bursts with empty stretches between them; timestamps on a 50 µs
    lattice so many coincide, and one pixel firing many times in one burst."""
    t, x, y, p = [], [], [], []
    for _ in range(int(rng.integers(1, 4))):
        lo = int(rng.integers(0, geometry.t_max_us - 2_000))
        n = int(rng.integers(0, 300))
        t.append(rng.integers(lo, lo + 2_000, size=n) // 50 * 50)
        x.append(rng.integers(0, geometry.width, size=n))
        y.append(rng.integers(0, geometry.height, size=n))
        p.append(rng.integers(0, 2, size=n))
    lo = int(rng.integers(0, geometry.t_max_us - 2_000))
    n = int(rng.integers(20, 60))
    t.append(rng.integers(lo, lo + 2_000, size=n))
    x.append(np.full(n, rng.integers(0, geometry.width)))
    y.append(np.full(n, rng.integers(0, geometry.height)))
    p.append(np.full(n, rng.integers(0, 2)))
    t, x, y, p = (np.concatenate(c) for c in (t, x, y, p))
    order = np.argsort(t, kind="stable")
    return EventStream.from_arrays(geometry, t[order], x[order], y[order], p[order])


def _ascending_times(rng, stream):
    """0 and t_max, times on and beside event timestamps, two times inside the
    longest empty stretch, and random times, ascending with repeats."""
    t_max = stream.geometry.t_max_us
    ts = np.unique(np.r_[0, stream.t, t_max])
    gap = int(np.argmax(np.diff(ts)))
    picks = rng.choice(stream.t, size=min(len(stream.t), 15), replace=False)
    times = np.r_[
        0, t_max, picks, picks + 1, picks - 1, ts[gap] + 1, ts[gap + 1] - 1,
        rng.integers(0, t_max + 1, size=10),
    ]
    times = np.clip(times, 0, t_max)
    return sorted(int(v) for v in np.r_[times, rng.choice(times, size=5)])


class TestSaeIncremental:
    def test_matches_batch_oracle_at_every_step(self):
        rng = np.random.default_rng(909)
        geo = FrameGeometry(8, 6, 100_000)
        for _ in range(40):
            stream = _bursty_stream(rng, geo)
            decay = float(10 ** rng.uniform(-6, -3))
            state = sae_init(geo, EncoderParams(sae_decay_per_us=decay))
            for t_n in _ascending_times(rng, stream):
                got = surface_active_events(stream, t_n, state)
                assert np.array_equal(got, sae_batch_oracle(stream, t_n, decay)), t_n

    def test_out_of_order_time_raises(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 500)
        state = sae_init(small_geometry, PARAMS)
        surface_active_events(stream, 500_000, state)
        expected = "^detection timestamp 499999 precedes the state's 500000$"
        with pytest.raises(EvrepError, match=expected):
            surface_active_events(stream, 499_999, state)
        # the rejected call leaves the state as it was
        assert state.t_n == 500_000
        got = surface_active_events(stream, 600_000, state)
        assert np.array_equal(got, sae_batch_oracle(stream, 600_000, 1e-5))

    def test_indexed_render_equals_dense(self):
        # 1536 cells: the fired share runs from under 5% to past FIRED_SHARE,
        # at grid times and at times between them
        rng = np.random.default_rng(1818)
        geo = FrameGeometry(32, 24, 500_000)
        stream = make_random_stream(rng, geo, 1700)
        state, dense = sae_init(geo, PARAMS), sae_init(geo, PARAMS)
        dense.fired = None
        times = np.r_[np.arange(1, 51) * 10_000, rng.integers(1, 500_000, size=50)]
        shares = []
        for t_n in np.unique(times).tolist():
            got = surface_active_events(stream, t_n, state)
            want = surface_active_events(stream, t_n, dense)
            assert same_bits(got, want), t_n
            fired = np.flatnonzero(state.latest >= 0)
            if state.fired is not None:  # each fired cell once, and no other
                assert np.array_equal(np.sort(state.fired), fired)
            shares.append(fired.size / state.latest.size)
        assert shares[0] < 0.05 and shares[-1] > 0.5
        assert state.fired is None  # dropped past the share, and for good


class TestSaeDenseRender:
    """The dense render runs in place through the state's one float64 buffer."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("decay", [1e-300, 1e-5, 1e3, 1e308])
    @pytest.mark.parametrize("t0", [0, 2**53 - 40_000], ids=["t0-zero", "t0-near-2**53"])
    def test_equals_batch_oracle(self, decay, t0):
        # the first step renders the fired cells only, and the 96 cells fill
        # past FIRED_SHARE soon after; from t0 near 2**53 the later times lie
        # past it, where float(t_n) rounds
        rng = np.random.default_rng(2020)
        geo = FrameGeometry(8, 6, t0 + 100_000)
        n = 400
        t = np.sort(rng.integers(t0, t0 + 90_000, size=n, dtype=np.int64))
        stream = EventStream.from_arrays(
            geo, t, rng.integers(0, 8, n), rng.integers(0, 6, n), rng.integers(0, 2, n)
        )
        state = sae_init(geo, EncoderParams(sae_decay_per_us=decay))
        times = np.unique(np.r_[t[5] + 1, t0 + np.arange(1, 11) * 10_000, rng.choice(t, 20) + 1])
        dense = []
        for t_n in times.tolist():
            got = surface_active_events(stream, t_n, state)
            with np.errstate(over="ignore"):
                want = sae_batch_oracle(stream, t_n, decay)
            assert same_bits(got, want), (decay, t_n)
            dense.append(state.fired is None)
        assert not dense[0] and dense[-1] and state.buffer is not None
        assert t0 == 0 or times[-1] > 2**53

    def test_no_buffer_while_the_fired_index_is_live(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 2_000)
        state = sae_init(small_geometry, PARAMS)
        t_n = 0
        while state.fired is not None:
            assert state.buffer is None
            t_n += 10_000
            surface_active_events(stream, t_n, state)
        # allocated at the first dense render, then reused
        buffer = state.buffer
        assert buffer is not None and buffer.dtype == np.float64
        assert buffer.shape == (2 * small_geometry.height * small_geometry.width,)
        surface_active_events(stream, t_n + 10_000, state)
        assert state.buffer is buffer

    def test_dense_read_holds_the_tensor_and_one_bool_plane(self, rng, sensor_geometry):
        stream = make_random_stream(rng, sensor_geometry, 100_000, t_hi=100_000)
        state = sae_init(sensor_geometry, PARAMS)
        surface_active_events(stream, 80_000, state)
        assert state.fired is None and state.buffer is not None
        window = int(np.searchsorted(stream.t, 90_000) - np.searchsorted(stream.t, 80_000))
        cells = 2 * sensor_geometry.height * sensor_geometry.width
        tracemalloc.start()
        try:
            surface_active_events(stream, 90_000, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 output, the bool plane, two int64 arrays per window event
        assert peak < 4 * cells + cells + 16 * window + 64 * 1024


@pytest.mark.parametrize("init,read", [
    (taf_init, temporal_active_focus),
    (WindowState, event_volume),
    (WindowState, event_count_image),
    (sae_init, surface_active_events),
], ids=["taf", "volume", "count", "sae"])
def test_stream_of_another_geometry_raises(init, read, rng, small_geometry):
    state = init(small_geometry, PARAMS)
    before = copy.deepcopy(vars(state))
    larger = FrameGeometry(64, 48, 1_000_000)  # small_geometry is 32 x 24
    stream = make_random_stream(rng, larger, 500)
    expected = f"stream geometry {larger} is not {small_geometry}"
    with pytest.raises(EvrepError, match=f"^{re.escape(expected)}$"):
        read(stream, 500_000, state)
    # the rejected read leaves the state as it was
    assert state.events_read == 0
    for name, value in before.items():
        assert np.array_equal(getattr(state, name), value), name
