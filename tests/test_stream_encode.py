"""encode and bench read the .evs file forward (cli._tensors) and hold only
the events each state's next read can reach. These tests pin that the
streamed loop writes what the encoders compute over the whole stream, that
a defect anywhere in the file still fails the run with the whole file's
message, and that the loop's memory does not grow with the recording."""

import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

import evrep.cli
from evrep.cli import main
from evrep.encoders import WindowState, event_count_image, event_volume, sae_init, surface_active_events
from evrep.errors import EvrepError
from evrep.io import (
    _CHUNK_RECORDS, _EVENT_RECORD_DTYPE, read_events_binary, write_annotations_csv, write_tensor,
)
from evrep.model import Annotation, EncoderParams, EventStream
from evrep.taf import taf_init, temporal_active_focus

from conftest import chunked_records
from evs_oracle import read_events_oracle

_READS = {
    "taf": (taf_init, temporal_active_focus),
    "volume": (WindowState, event_volume),
    "count": (WindowState, event_count_image),
    "sae": (sae_init, surface_active_events),
}
_FLAGS = {"queue_depth": "--queue-depth", "bins": "--bins", "kernel": "--kernel",
          "recent_events": "--recent-events", "sae_decay_per_us": "--sae-decay"}

# Two chunks of events spread below 2**32 µs, then three and a part packed
# into the 2**20 µs from 2**32 on: record 2 * _CHUNK_RECORDS, the first of a
# chunk, is the first at 2**32, and the last of the chunk before lies below.
_T32 = 2**32
_T_MAX = _T32 + 2**20
_DT = 2**29  # 8 grid steps, each window some 2,000 events of the sparse part
_BELOW = 2 * _CHUNK_RECORDS
_N = 5 * _CHUNK_RECORDS + 321


def _header(width: int, height: int, t_max: int) -> bytes:
    return struct.pack("<4sIHHQ", b"EVST", 1, width, height, t_max)


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    rng = np.random.default_rng(11)
    records = np.zeros(_N, dtype=_EVENT_RECORD_DTYPE)
    records["t"][:_BELOW] = np.sort(rng.integers(0, _T32, size=_BELOW))
    records["t"][_BELOW:] = np.sort(rng.integers(_T32, _T_MAX, size=_N - _BELOW))
    records["t"][_BELOW] = _T32
    # one time on both sides of the next chunk edge: a read at one past it
    # needs the chunk after the one that ended on it
    edge = 3 * _CHUNK_RECORDS
    records["t"][edge] = tie = records["t"][edge - 1]
    records["x"] = rng.integers(0, 32, size=_N)
    records["y"] = rng.integers(0, 24, size=_N)
    records["p"] = rng.integers(0, 2, size=_N)
    path = tmp_path_factory.mktemp("stream") / "rec.evs"
    path.write_bytes(_header(32, 24, _T_MAX) + records.tobytes())
    # off the grid: at and around 2**32, where a chunk edge falls, and every
    # 2**16 µs of the packed part, each some 1,500 events on from the last,
    # so several times fall within one chunk
    times = sorted({1, _DT + 7, _T32 - 3, _T32, _T32 + 1, int(tie) + 1,
                    *(_T32 + k * 2**16 + 5 for k in range(16)), _T_MAX})
    anns = path.with_suffix(".csv")
    anns.write_text(write_annotations_csv([Annotation(t, 1, 1, 4, 4, 0) for t in times]))
    return path, anns, times


@pytest.mark.parametrize("rep, values", [
    ("taf", {"queue_depth": 1}),
    ("taf", {"queue_depth": 4}),
    ("taf", {"queue_depth": 8}),
    ("volume", {"bins": 3, "kernel": "rect"}),
    ("volume", {"bins": 3, "kernel": "triangular"}),
    ("count", {"recent_events": 5_000}),
    # more than the 16,384 events before 2**32, so the first reads hold them all
    ("count", {"recent_events": 30_000}),
    ("sae", {"sae_decay_per_us": 1e-8}),
], ids=["taf-k1", "taf-k4", "taf-k8", "volume-rect", "volume-triangular", "count-5000",
        "count-30000", "sae"])
@pytest.mark.parametrize("grid", [True, False], ids=["grid", "at-annotations"])
def test_streamed_encode_writes_the_whole_stream_tensors(rep, values, grid, recording, tmp_path):
    path, anns, ann_times = recording
    params = EncoderParams(delta_tau_us=_DT, **values)
    flags = [arg for name, value in values.items() for arg in (_FLAGS[name], str(value))]
    out = tmp_path / "out"
    assert main(["encode", "--rep", rep, "--events", str(path), "--out-dir", str(out),
                 "--delta-tau-us", str(_DT), *flags,
                 *([] if grid else ["--at-annotations", str(anns)])]) == 0

    geometry, columns = read_events_oracle(path.read_bytes())
    stream = EventStream.from_arrays(geometry, *columns)
    times = range(_DT, _T_MAX + 1, _DT) if grid else ann_times
    init, read = _READS[rep]
    state = init(geometry, params)
    expected = tmp_path / "expected.evtn"
    assert len(list(out.iterdir())) == len(times)
    for t_n in times:
        write_tensor(read(stream, t_n, state), expected)
        assert (out / f"rec_{t_n}.evtn").read_bytes() == expected.read_bytes(), t_n


# Each (annotation times or None for the grid, delta tau, file): a stream the
# loop fails on only after it has read past its last detection time.
_LATE = {
    # the 900 ms grid step reads up to record ~29,500; the bad polarity is
    # record 32,818 (t near 999 ms), which only the drained tail holds
    "after-the-last-grid-time": (None, 300_000, chunked_records(3, 100, [("p", 4, 50)])),
    "after-the-last-annotation": ([100_000, 150_000], 10_000,
                                  chunked_records(3, 100, [("x", 3, 0)])),
    # shorter than one delta tau: no grid time, so no tensor at all
    "shorter-than-one-step": (None, 2_000_000, chunked_records(4, 7, [("y", 2, 1)])),
    "shorter-than-one-step-at-one-time": ([50_000], 2_000_000,
                                          chunked_records(4, 7, [("y", 2, 1)])),
    # the first record of the third chunk, which a forward read starts at,
    # goes back in time: the check takes the record before it from the file
    "time-order-broken-at-a-read-edge": (None, 10_000, chunked_records(5, 100, [("early", 2, 0)])),
    # the five kinds over four chunk edges of TestChunkedEventReader's example:
    # every kind but the non-monotonic one lies before the record it names
    "defects-over-four-edges": (None, 10_000, chunked_records(1, 5, [
        ("reserved", 1, 0), ("p", 2, -1), ("x", 3, 1), ("late", 3, 2), ("early", 4, 0)])),
}


@pytest.mark.parametrize("case", list(_LATE))
@pytest.mark.parametrize("command", ["encode", "bench"])
def test_bad_body_found_late_fails_with_the_whole_file_message(case, command, tmp_path, capsys):
    times, delta_tau, data = _LATE[case]
    path = tmp_path / "rec.evs"
    path.write_bytes(data)
    with pytest.raises(EvrepError) as whole:
        read_events_oracle(data)
    with pytest.raises(EvrepError, match=f"^{re.escape(str(whole.value))}$"):
        read_events_binary(data)
    argv = ["--rep", "taf", "--events", str(path), "--delta-tau-us", str(delta_tau)]
    if times is not None:
        anns = tmp_path / "anns.csv"
        anns.write_text(write_annotations_csv([Annotation(t, 1, 1, 4, 4, 0) for t in times]))
        argv += ["--at-annotations", str(anns)]
    out = tmp_path / "out"
    if command == "encode":
        code = main(["encode", *argv, "--out-dir", str(out)])
    else:
        code = main(["bench", *argv, "--warmup", "0", "--csv", str(out) + ".csv"])
    captured = capsys.readouterr()
    if command == "bench" and case == "shorter-than-one-step":
        # bench refuses a run of no steps before it reads the body
        assert (code, captured.err) == (
            1, "evrep: error: 0 steps leave no samples after 0 warm-up steps\n")
        return
    assert code == 2
    assert captured == ("", f"evrep: {whole.value}\n")
    assert not list(tmp_path.rglob("*.evtn")) and not (tmp_path / "out.csv").exists()


def _gen1_like(path, steps: int) -> int:
    """A 304x240 recording of 20,000 events per 10 ms step, gen1_dense's
    rate, written one step at a time; its event count."""
    rng = np.random.default_rng(steps)
    with open(path, "wb") as fh:
        fh.write(_header(304, 240, steps * 10_000))
        for k in range(steps):
            records = np.zeros(20_000, dtype=_EVENT_RECORD_DTYPE)
            records["t"] = np.sort(rng.integers(k * 10_000, (k + 1) * 10_000, size=20_000))
            records["x"] = rng.integers(0, 304, size=20_000)
            records["y"] = rng.integers(0, 240, size=20_000)
            records["p"] = rng.integers(0, 2, size=20_000)
            fh.write(records.tobytes())
    return steps * 20_000


def _loop_peak(path, rep: str, steps: int) -> int:
    """tracemalloc's peak over the encode loop and its writes, in bytes."""
    times = range(10_000, steps * 10_000 + 1, 10_000)
    tracemalloc.start()
    try:
        for _, tensor, _ in evrep.cli._tensors(str(path), rep, EncoderParams(), times):
            write_tensor(tensor, os.devnull)
            del tensor
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def gen1_like(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gen1")
    return {n: (directory / f"{n}x.evs", _gen1_like(directory / f"{n}x.evs", 60 * n))
            for n in (1, 4)}


@pytest.mark.parametrize("rep", list(_READS))
def test_loop_memory_does_not_grow_with_the_recording(rep, gen1_like):
    (short, events), (long, _) = gen1_like[1], gen1_like[4]
    peaks = [_loop_peak(short, rep, 60), _loop_peak(long, rep, 240)]
    # holding the 1x recording alone would take 17 bytes per event
    assert max(peaks) < 17 * events
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
