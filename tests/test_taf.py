import math
import re
import tracemalloc

import numpy as np
import pytest

from evrep.errors import EvrepError, InvalidParamError
from evrep.model import EncoderParams, EventStream, FrameGeometry, WindowView
from evrep.taf import taf_init, taf_render, taf_step, temporal_active_focus, transform_elapse

from conftest import make_random_stream, same_bits
from taf_oracle import taf_batch_oracle

T_MAX = 60_000_000
DT = 10_000
PARAMS = EncoderParams(delta_tau_us=DT, queue_depth=4)


def _run_incremental(stream, n_steps, queue_depth, dt=DT):
    state = taf_init(stream.geometry, EncoderParams(delta_tau_us=dt, queue_depth=queue_depth))
    for n in range(n_steps):
        window = WindowView.from_stream(stream, n * dt, (n + 1) * dt, (n + 1) * dt)
        taf_step(state, window)
    return state


def _slot_elapses(state, p, y, x):
    """Newest-first elapse list for one cell's filled slots (mean_ts >= 0)."""
    cell = state.mean_ts[:, p, y, x]
    return [state.detection_time_us - ts for ts in cell[cell >= 0]]


class TestTransform:
    def test_zero_elapse_maps_to_one(self):
        assert transform_elapse(0, T_MAX) == 1.0

    def test_t_max_elapse_maps_to_zero(self):
        assert abs(transform_elapse(T_MAX, T_MAX)) < 1e-12

    def test_known_value_one_period(self):
        assert math.isclose(transform_elapse(10_000, T_MAX), 0.9203249925358065, rel_tol=1e-9)

    def test_strictly_decreasing(self):
        grid = np.linspace(0, T_MAX, 10_000)
        vals = transform_elapse(grid, T_MAX)
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(InvalidParamError):
            transform_elapse(10, 0)
        with pytest.raises(InvalidParamError):
            transform_elapse(-1, T_MAX)

    def test_beyond_t_max_clamps_to_zero(self):
        assert transform_elapse(2 * T_MAX, T_MAX) == 0.0


class TestInitAndRender:
    def test_init_creates_empty_queues(self, sensor_geometry):
        state = taf_init(sensor_geometry, PARAMS)
        assert state.mean_ts.shape == (4, 2, 240, 304)
        assert not (state.mean_ts >= 0).any()
        assert state.step_index == 0

    def test_fresh_state_renders_zero(self, sensor_geometry):
        state = taf_init(sensor_geometry, PARAMS)
        tensor = taf_render(state)
        assert tensor.shape == (8, 240, 304)
        assert not tensor.any()

    def test_channel_layout(self):
        # single entry with elapse 10^4 at p=1 lands in channel 1 (slot 0)
        geo = FrameGeometry(8, 8, T_MAX)
        stream = EventStream.from_arrays(geo, [0], [3], [5], [1])
        state = _run_incremental(stream, 2, queue_depth=4)
        # entry pushed at step 1; after step 2 its elapse is 2*DT - 0 = 20 000
        tensor = taf_render(state)
        assert tensor[1, 5, 3] > 0
        assert np.count_nonzero(tensor) == 1

    def test_rendered_value_matches_transform(self):
        geo = FrameGeometry(4, 4, T_MAX)
        stream = EventStream.from_arrays(geo, [0], [1], [1], [1])
        state = _run_incremental(stream, 1, queue_depth=4)
        tensor = taf_render(state)
        assert math.isclose(
            float(tensor[1, 1, 1]), transform_elapse(10_000, T_MAX), rel_tol=1e-6
        )

    def test_render_idempotent(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 2000)
        state = _run_incremental(stream, 40, queue_depth=4)
        a = taf_render(state)
        b = taf_render(state)
        assert np.array_equal(a, b)

    def test_writing_into_returned_tensor_leaves_next_render(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 2000)
        state = _run_incremental(stream, 40, queue_depth=4)
        first = taf_render(state)
        expected = first.copy()
        first[...] = 7.0
        assert np.array_equal(taf_render(state), expected)

    def test_dense_render_holds_the_tensor_and_one_slot(self, rng, sensor_geometry):
        # each slot's float64 elapse goes through one slot-sized buffer
        stream = make_random_stream(rng, sensor_geometry, 50_000, t_hi=4 * DT)
        state = _run_incremental(stream, 4, queue_depth=4)
        state.fired = None
        tensor_bytes = 4 * 2 * sensor_geometry.height * sensor_geometry.width * 4
        slot_bytes = 2 * sensor_geometry.height * sensor_geometry.width * 8
        tracemalloc.start()
        try:
            taf_render(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tensor_bytes + slot_bytes + 64 * 1024

    def test_render_equals_the_one_expression(self, rng, small_geometry):
        # the in-place render against the expression it replaces, bit for bit
        t_max = small_geometry.t_max_us
        for k in range(1, 9):
            stream = make_random_stream(rng, small_geometry, int(rng.integers(0, 400)))
            state = _run_incremental(stream, int(rng.integers(1, 60)), queue_depth=k)
            assert (state.mean_ts < 0).any()  # empty slots render too
            for t_n in (None, state.detection_time_us + int(rng.integers(1, DT))):
                t_now = float(state.detection_time_us if t_n is None else t_n)
                scaled = np.clip(((t_now - state.mean_ts) * 1e-4).astype(np.float32), 0.0, None)
                want = np.clip(
                    1.0 - np.log1p(scaled) / np.float32(np.log1p(t_max * 1e-4)), 0.0, 1.0
                ).reshape(2 * k, small_geometry.height, small_geometry.width)
                got = taf_render(state, t_n)
                assert got.dtype == np.float32
                assert np.array_equal(got, want), (k, t_n)


class TestStep:
    def test_mean_elapse_of_window_events(self):
        geo = FrameGeometry(4, 4, T_MAX)
        stream = EventStream.from_arrays(geo, [9_990, 9_995], [2, 2], [1, 1], [0, 0])
        state = _run_incremental(stream, 1, queue_depth=4)
        (elapse,) = _slot_elapses(state, 0, 1, 2)
        assert elapse == 7.5

    def test_aging_only_on_empty_window(self):
        geo = FrameGeometry(4, 4, T_MAX)
        stream = EventStream.from_arrays(geo, [9_996], [0], [0], [0])
        state = _run_incremental(stream, 1, queue_depth=4)
        assert _slot_elapses(state, 0, 0, 0) == [4.0]
        state = _run_incremental(stream, 2, queue_depth=4)
        assert _slot_elapses(state, 0, 0, 0) == [10_004.0]

    def test_three_step_trace_newest_first(self):
        # push elapse 4, age through an empty step, push elapse 3
        geo = FrameGeometry(4, 4, T_MAX)
        stream = EventStream.from_arrays(geo, [9_996, 29_997], [0, 0], [0, 0], [1, 1])
        state = _run_incremental(stream, 3, queue_depth=2)
        assert _slot_elapses(state, 1, 0, 0) == [3.0, 20_004.0]

    def test_eviction_at_depth(self):
        geo = FrameGeometry(2, 2, T_MAX)
        # one event per period at the same cell, four periods, K=2
        t = [5_000, 15_000, 25_000, 35_000]
        stream = EventStream.from_arrays(geo, t, [0] * 4, [0] * 4, [0] * 4)
        state = _run_incremental(stream, 4, queue_depth=2)
        assert np.count_nonzero(state.mean_ts[:, 0, 0, 0] >= 0) == 2
        assert _slot_elapses(state, 0, 0, 0) == [5_000.0, 15_000.0]

    def test_window_out_of_order(self, small_geometry):
        state = taf_init(small_geometry, PARAMS)
        stream = EventStream.from_arrays(small_geometry, [], [], [], [])
        bad = WindowView.from_stream(stream, DT, 2 * DT, 2 * DT)  # state expects [0, DT)
        expected = "expected window [0, 10000) at detection 10000, got [10000, 20000) at 20000"
        with pytest.raises(EvrepError, match=f"^{re.escape(expected)}$"):
            taf_step(state, bad)

    def test_window_lying_about_bounds_rejected(self, small_geometry):
        state = taf_init(small_geometry, PARAMS)
        lying = WindowView(
            geometry=small_geometry,
            t=np.array([3 * DT], dtype=np.int64),
            x=np.array([0], dtype=np.int32),
            y=np.array([0], dtype=np.int32),
            p=np.array([0], dtype=np.uint8),
            t_lo=0, t_hi=DT, t_n=DT,
        )
        with pytest.raises(EvrepError, match="^window holds events outside its bounds$"):
            taf_step(state, lying)

    def test_window_of_another_geometry_raises(self, rng, small_geometry):
        # a window of a 40-wide stream would fold x >= 32 into the next row of a 32 x 24 state
        wider = FrameGeometry(40, 24, small_geometry.t_max_us)
        stream = make_random_stream(rng, wider, 5_000)
        state = taf_init(small_geometry, PARAMS)
        first = make_random_stream(rng, small_geometry, 500)
        taf_step(state, WindowView.from_stream(first, 0, DT, DT))
        before = state.mean_ts.copy()
        window = WindowView.from_stream(stream, DT, 2 * DT, 2 * DT)
        assert np.any(window.x >= small_geometry.width)
        expected = f"stream geometry {wider} is not {small_geometry}"
        with pytest.raises(EvrepError, match=f"^{re.escape(expected)}$"):
            taf_step(state, window)
        assert state.step_index == 1
        assert np.array_equal(state.mean_ts, before)

    def test_queue_monotonicity_after_random_steps(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 5000)
        state = _run_incremental(stream, 50, queue_depth=4)
        filled = np.argwhere(state.mean_ts[0] >= 0)
        for p, y, x in filled[:200]:
            elapses = _slot_elapses(state, p, y, x)
            assert all(a < b for a, b in zip(elapses, elapses[1:]))
            assert all(e > 0 for e in elapses)

    def test_per_position_independence(self, rng):
        geo = FrameGeometry(8, 8, T_MAX)
        stream = make_random_stream(rng, geo, 400, t_hi=300_000)
        base = taf_render(_run_incremental(stream, 30, 4))

        # drop every event at one busy cell and re-encode
        cells, counts = np.unique(
            np.stack([stream.p, stream.y, stream.x]), axis=1, return_counts=True
        )
        p0, y0, x0 = cells[:, int(np.argmax(counts))]
        keep = ~((stream.p == p0) & (stream.y == y0) & (stream.x == x0))
        trimmed = EventStream.from_arrays(
            geo, stream.t[keep], stream.x[keep], stream.y[keep], stream.p[keep]
        )
        other = taf_render(_run_incremental(trimmed, 30, 4))

        diff = base != other
        changed = np.argwhere(diff)
        assert len(changed)
        for c, y, x in changed:
            assert (y, x) == (y0, x0)
            assert c % 2 == p0


class TestBatchOracle:
    def test_empty_stream(self, small_geometry):
        stream = EventStream.from_arrays(small_geometry, [], [], [], [])
        assert not taf_batch_oracle(stream, 10 * DT, DT, 4, T_MAX).any()

    def test_single_event_elapse(self):
        geo = FrameGeometry(4, 4, T_MAX)
        stream = EventStream.from_arrays(geo, [4], [1], [2], [0])
        tensor = taf_batch_oracle(stream, DT, DT, 4, T_MAX)
        assert np.count_nonzero(tensor) == 1
        assert math.isclose(
            float(tensor[0, 2, 1]), transform_elapse(9_996, T_MAX), rel_tol=1e-6
        )

    def test_matches_incremental_on_random_streams(self, rng, small_geometry):
        cases = []
        for i in range(10):
            n_events = int(rng.integers(0, 3000))
            n_steps = int(rng.integers(1, 60))
            k = (1, 2, 3, 4, 8)[i % 5]
            cases.append((make_random_stream(rng, small_geometry, n_events), n_steps, k))
        # K=1 with ~1000 events per window, above the 2*H*W/8 dense threshold
        cases.append((make_random_stream(rng, small_geometry, 3000, t_hi=3 * DT), 3, 1))
        for stream, n_steps, k in cases:
            inc = taf_render(_run_incremental(stream, n_steps, k))
            oracle = taf_batch_oracle(stream, n_steps * DT, DT, k, stream.geometry.t_max_us)
            assert np.max(np.abs(inc - oracle)) <= 1e-6


class TestTemporalActiveFocus:
    def test_matches_oracle_at_any_ascending_time(self, rng):
        for i in range(30):
            dt = (1_000, 5_000, 10_000)[i % 3]
            k = (1, 2, 3, 4, 8)[i % 5]
            # t_max off the grid, so the last time reads an open period
            t_max = int(rng.integers(5, 40)) * dt + int(rng.integers(1, dt))
            geo = FrameGeometry(12, 9, t_max)
            stream = make_random_stream(rng, geo, int(rng.integers(0, 3000)))
            picks = [0, t_max, *rng.integers(0, t_max + 1, size=8).tolist()]
            if len(stream):
                picks += rng.choice(stream.t, size=3).tolist()  # event timestamps
            picks += picks[1:4]  # repeated times
            state = taf_init(geo, EncoderParams(delta_tau_us=dt, queue_depth=k))
            for t_n in sorted(picks):
                got = temporal_active_focus(stream, t_n, state)
                want = taf_batch_oracle(stream, t_n, dt, k, t_max)
                assert np.max(np.abs(got - want)) <= 1e-6, (i, t_n)

    def test_open_period_leaves_the_state_as_the_grid_does(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 2000)
        state = taf_init(small_geometry, PARAMS)
        temporal_active_focus(stream, 3 * DT + 4_321, state)
        assert state.step_index == 3
        assert np.array_equal(state.mean_ts, _run_incremental(stream, 3, 4).mean_ts)

    def test_time_before_the_state_is_out_of_order(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 500)
        state = taf_init(small_geometry, PARAMS)
        temporal_active_focus(stream, 2 * DT + 1, state)
        temporal_active_focus(stream, 2 * DT, state)  # same full periods
        expected = "^detection timestamp 19999 precedes the state's 20000$"
        with pytest.raises(EvrepError, match=expected):
            temporal_active_focus(stream, 2 * DT - 1, state)

    def test_time_past_t_max_is_rejected(self, small_geometry):
        stream = EventStream.from_arrays(small_geometry, [], [], [], [])
        expected = r"^detection timestamp 1000001 outside \[0, 1000000\]$"
        with pytest.raises(EvrepError, match=expected):
            temporal_active_focus(
                stream, small_geometry.t_max_us + 1, taf_init(small_geometry, PARAMS)
            )


def test_temporal_active_focus_on_grid_equals_step_and_render(rng, small_geometry):
    stream = make_random_stream(rng, small_geometry, 1000)
    state = taf_init(small_geometry, PARAMS)
    plain = taf_init(small_geometry, PARAMS)
    for n in range(1, 6):
        got = temporal_active_focus(stream, n * DT, state)
        taf_step(plain, WindowView.from_stream(stream, (n - 1) * DT, n * DT, n * DT))
        assert np.array_equal(got, taf_render(plain))


class TestFiredIndex:
    """The render over the fired cells against the dense render of the same slots."""

    @pytest.mark.parametrize("k", [1, 3, 4, 8])
    def test_indexed_render_equals_dense_at_grid_and_open_times(self, k):
        # 1536 cells: the fired share runs from about 2% at the first step to
        # past FIRED_SHARE, so both render paths run
        rng = np.random.default_rng(1800 + k)
        geo = FrameGeometry(32, 24, 50 * DT)
        stream = make_random_stream(rng, geo, 1700)
        params = EncoderParams(delta_tau_us=DT, queue_depth=k)
        state, dense = taf_init(geo, params), taf_init(geo, params)
        dense.fired = None
        shares, open_new = [], 0
        for n in range(1, 51):
            for t_n in (n * DT - int(rng.integers(1, DT)), n * DT):
                before = None if state.fired is None else state.fired.copy()
                if before is not None and t_n % DT:
                    i, j = stream.slice_range(t_n - t_n % DT, t_n)
                    open_cells = geo.cells(stream.x[i:j], stream.y[i:j], stream.p[i:j])
                    open_new += bool(np.isin(open_cells, before, invert=True).any())
                got = temporal_active_focus(stream, t_n, state)
                assert same_bits(got, temporal_active_focus(stream, t_n, dense)), (n, t_n)
                if t_n % DT:  # the open period leaves the index as it found it
                    assert (state.fired is None) == (before is None)
                    assert before is None or np.array_equal(state.fired, before)
                fired = np.flatnonzero(state.mean_ts[0] >= 0)
                if state.fired is not None:  # each fired cell once, and no other
                    assert np.array_equal(np.sort(state.fired), fired)
                shares.append(fired.size / state.mean_ts[0].size)
        assert shares[0] < 0.05 and shares[-1] > 0.5
        assert state.fired is None  # dropped past the share, and for good
        assert open_new > 0  # open periods fired cells the index did not hold yet

    def test_open_period_past_the_share_restores_the_live_index(self):
        # 96 cells, so the index drops at 29: 20 fire on the grid, and 20 more
        # in the open period, which renders densely and then restores the 20
        geo = FrameGeometry(8, 6, 10 * DT)
        x, y = np.arange(40) % 8, np.arange(40) // 8
        t = np.r_[np.arange(20) * 100, DT + np.arange(20) * 100]
        stream = EventStream.from_arrays(geo, t, x, y, np.zeros(40))
        state, dense = taf_init(geo, PARAMS), taf_init(geo, PARAMS)
        dense.fired = None
        temporal_active_focus(stream, DT, state)
        fired = state.fired.copy()
        assert len(fired) == 20
        got = temporal_active_focus(stream, DT + 5_000, state)
        assert same_bits(got, temporal_active_focus(stream, DT + 5_000, dense))
        assert np.array_equal(state.fired, fired)
        got = temporal_active_focus(stream, 2 * DT, state)
        assert state.fired is None
        assert same_bits(got, temporal_active_focus(stream, 2 * DT, dense))
