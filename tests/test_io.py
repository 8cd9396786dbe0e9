import re
import struct
import tempfile
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evrep.errors import EvrepError, ParseError
from evrep.io import (
    _CHUNK_RECORDS,
    read_annotations_csv,
    read_detections_csv,
    read_events_binary,
    read_events_csv,
    read_events_geometry,
    read_flow,
    read_levels_csv,
    read_tensor,
    tensor_file_size,
    write_annotations_csv,
    write_detections_csv,
    write_events_binary,
    write_events_csv,
    write_flow,
    write_levels_csv,
    write_tensor,
)
from evrep.model import Annotation, Detection, EventStream, FlowField, FrameGeometry

from conftest import ShrinksAfterItsSize, make_random_stream, same_bits
from evs_oracle import read_events_oracle


def _header(width=32, height=24, t_max=1_000_000) -> bytes:
    return struct.pack("<4sIHHQ", b"EVST", 1, width, height, t_max)


def _record(t, x, y, p, reserved=0) -> bytes:
    return struct.pack("<QHHBB", t, x, y, p, reserved)


class TestEventsBinary:
    def test_single_record(self):
        stream = read_events_binary(_header() + _record(100, 3, 4, 1))
        assert len(stream) == 1
        assert (stream.t[0], stream.x[0], stream.y[0], stream.p[0]) == (100, 3, 4, 1)
        assert stream.geometry == FrameGeometry(32, 24, 1_000_000)

    def test_x_equal_to_width_rejected(self):
        with pytest.raises(EvrepError, match="^coordinate out of bounds at record 0$"):
            read_events_binary(_header() + _record(100, 32, 4, 1))

    def test_y_equal_to_height_rejected(self):
        with pytest.raises(EvrepError, match="^coordinate out of bounds at record 0$"):
            read_events_binary(_header() + _record(100, 3, 24, 1))

    def test_t_equal_to_t_max_rejected(self):
        with pytest.raises(EvrepError, match=r"^timestamp outside \[0, t_max\) at record 0$"):
            read_events_binary(_header() + _record(1_000_000, 3, 4, 1))

    def test_empty_stream_accepted(self):
        stream = read_events_binary(_header())
        assert len(stream) == 0
        assert write_events_binary(stream) == _header()

    def test_bad_magic(self):
        with pytest.raises(EvrepError, match="^expected b'EVST', found b'XXXX'$"):
            read_events_binary(b"XXXX" + _header()[4:])

    def test_truncated_record(self):
        with pytest.raises(EvrepError, match="^13 payload bytes is not a multiple of 14$"):
            read_events_binary(_header() + _record(100, 3, 4, 1)[:-1])

    def test_non_monotonic_index(self):
        data = _header() + _record(100, 0, 0, 0) + _record(99, 0, 0, 0)
        with pytest.raises(EvrepError, match="^non-monotonic timestamp at record 1$"):
            read_events_binary(data)

    def test_non_monotonic_reported_at_later_index(self):
        data = (_header() + _record(100, 0, 0, 0) + _record(100, 1, 0, 0)
                + _record(200, 0, 0, 0) + _record(150, 0, 0, 0))
        with pytest.raises(EvrepError, match="^non-monotonic timestamp at record 3$"):
            read_events_binary(data)

    def test_polarity_domain(self):
        with pytest.raises(EvrepError, match=r"^polarity not in \{0, 1\} at record 0$"):
            read_events_binary(_header() + _record(100, 3, 4, 2))

    def test_reserved_byte_rejected(self):
        # a stream read back must write back to the same bytes
        data = _header(8, 6) + _record(100, 3, 4, 1, reserved=7)
        with pytest.raises(EvrepError, match="^reserved byte not 0 at record 0$"):
            read_events_binary(data)

    def test_round_trip_bitwise(self, rng, small_geometry):
        for _ in range(20):
            stream = make_random_stream(rng, small_geometry, int(rng.integers(0, 500)))
            data = write_events_binary(stream)
            assert write_events_binary(read_events_binary(data)) == data

    def test_reader_output_passes_validation(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 200)
        again = read_events_binary(write_events_binary(stream))
        for name in "txyp":
            assert np.array_equal(getattr(stream, name), getattr(again, name))

    def test_geometry_read_from_header_alone(self, tmp_path):
        path = tmp_path / "e.evs"
        # the payload is truncated mid-record: only the header is read
        path.write_bytes(_header(16, 12, 150_000) + _record(100, 3, 4, 1)[:-1])
        assert read_events_geometry(path) == FrameGeometry(16, 12, 150_000)
        path.write_bytes(_header()[:-1])
        with pytest.raises(EvrepError, match="^input shorter than the stream header$"):
            read_events_geometry(path)

    def test_large_generated_stream_read_back_intact(self, rng, small_geometry):
        # the reader validates every record, so a generated stream must pass it intact
        stream = make_random_stream(rng, small_geometry, 10_000)
        again = read_events_binary(write_events_binary(stream))
        assert len(again) == 10_000
        for name in "txyp":
            assert np.array_equal(getattr(stream, name), getattr(again, name))


# A valid stream of more than three chunks, and single-record defects placed
# within two records of a chunk edge: (kind, chunk edge, offset from it).
_EDGES = 4
_DEFECT = st.tuples(
    st.sampled_from(["early", "late", "u64", "x", "y", "p", "reserved"]),
    st.integers(0, _EDGES),
    st.integers(-2, 2),
)


def _chunked_records(seed: int, extra: int, defects) -> bytes:
    n = _EDGES * _CHUNK_RECORDS + extra
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=[("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"),
                                 ("reserved", "u1")])
    records["t"] = np.sort(rng.integers(0, 1_000_000, size=n))
    records["x"] = rng.integers(0, 32, size=n)
    records["y"] = rng.integers(0, 24, size=n)
    records["p"] = rng.integers(0, 2, size=n)
    for kind, edge, offset in defects:
        i = min(max(edge * _CHUNK_RECORDS + offset, 0), n - 1)
        r = records[i:i + 1]
        if kind == "early":
            r["t"] = r["t"] // 2
        elif kind == "late":
            r["t"] = 1_000_000 + int(r["t"][0])
        elif kind == "u64":
            r["t"] = 2**63 + 5
        elif kind in ("x", "y"):
            r[kind] = 32 if kind == "x" else 24
        elif kind == "p":
            r["p"] = 2 + int(r["p"][0])
        else:
            r["reserved"] = 1
    return _header() + records.tobytes()


def _read_both_sources(data: bytes):
    """The reader's result, or its error message, on the bytes and on a file;
    the two must agree."""
    results = []
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        for source in (data, fh):
            try:
                stream = read_events_binary(source)
                results.append((stream.geometry, (stream.t, stream.x, stream.y, stream.p)))
            except EvrepError as exc:
                results.append(str(exc))
    from_bytes, from_file = results
    if isinstance(from_bytes, str):
        assert from_file == from_bytes
    else:
        assert from_file[0] == from_bytes[0]
        for a, b in zip(from_file[1], from_bytes[1]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    return from_bytes


def _assert_matches_oracle(data: bytes) -> None:
    got = _read_both_sources(data)
    try:
        expected = read_events_oracle(data)
    except EvrepError as exc:
        assert got == str(exc)
        return
    assert not isinstance(got, str), got
    assert got[0] == expected[0]
    for a, b in zip(got[1], expected[1]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestChunkedEventReader:
    """read_events_binary decodes _CHUNK_RECORDS at a time; tests/evs_oracle.py
    decodes the whole payload at once."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, _CHUNK_RECORDS - 1),
           defects=st.lists(_DEFECT, max_size=4))
    @example(seed=0, extra=0, defects=[])
    @example(seed=1, extra=5, defects=[("reserved", 1, 0), ("p", 2, -1), ("x", 3, 1),
                                       ("late", 3, 2), ("early", 4, 0)])
    @example(seed=2, extra=1, defects=[("early", 1, 0), ("early", 1, -1), ("u64", 2, 0)])
    def test_same_columns_or_message_as_the_oracle(self, seed, extra, defects):
        _assert_matches_oracle(_chunked_records(seed, extra, defects))

    @pytest.mark.parametrize("before, after, message", [
        (2**32 - 1, 2**32, None),
        (2**32, 2**32 + 1, None),
        (2**63 - 2, 2**63 + 5, "timestamp outside [0, t_max) at record 8192"),
        (2**63 + 5, 2**63 + 6, "timestamp outside [0, t_max) at record 8191"),
        # past int64 the timestamp wraps negative, so time order breaks next
        (2**63 + 5, 7, "non-monotonic timestamp at record 8192"),
    ])
    def test_timestamps_past_u32_and_int64_across_a_chunk_edge(self, before, after, message):
        assert _CHUNK_RECORDS == 8192
        n = 2 * _CHUNK_RECORDS
        t = np.sort(np.random.default_rng(5).integers(0, 2**31, size=n)).astype(np.uint64)
        t[_CHUNK_RECORDS - 1:_CHUNK_RECORDS + 1] = before, after
        if after >= before:
            t[_CHUNK_RECORDS + 1:] = after
        # the largest t_max a header may hold, so only a wrap is out of range
        data = _header(t_max=2**63 - 1) + b"".join(_record(int(v), 1, 2, 0) for v in t)
        _assert_matches_oracle(data)
        if message is None:
            assert read_events_binary(data).t[_CHUNK_RECORDS] == after
        else:
            with pytest.raises(EvrepError, match=f"^{re.escape(message)}$"):
                read_events_binary(data)

    def test_file_that_shrinks_after_its_size_is_read(self, tmp_path):
        path = tmp_path / "e.evs"
        path.write_bytes(_header() + b"".join(_record(i, 1, 2, 0) for i in range(100)))
        with ShrinksAfterItsSize(path) as fh:
            with pytest.raises(EvrepError, match="^input ended 14 bytes short of its size$"):
                read_events_binary(fh)

    @pytest.mark.parametrize("source", ["bytes", "file"])
    def test_read_holds_the_columns_and_one_chunk(self, tmp_path, source):
        # 17 bytes per event stay in the stream's columns; the rest is one chunk
        n = 200_000
        data = write_events_binary(make_random_stream(
            np.random.default_rng(4), FrameGeometry(304, 240, 1_000_000), n))
        path = tmp_path / "e.evs"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                stream = read_events_binary(data if source == "bytes" else fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(stream) == n
        assert peak < 18 * n + 2**20


class TestEventsCsv:
    def test_single_line(self, small_geometry):
        stream = read_events_csv("100,3,4,1\n", small_geometry)
        assert len(stream) == 1
        assert (stream.t[0], stream.x[0], stream.y[0], stream.p[0]) == (100, 3, 4, 1)

    def test_polarity_domain(self, small_geometry):
        with pytest.raises(ParseError):
            read_events_csv("100,3,4,2\n", small_geometry)

    def test_header_tolerated(self, small_geometry):
        stream = read_events_csv("t,x,y,p\n100,3,4,1\n", small_geometry)
        assert len(stream) == 1

    def test_parse_error_carries_line_number(self, small_geometry):
        with pytest.raises(ParseError) as exc:
            read_events_csv("100,3,4,1\nbogus,1,1\n", small_geometry)
        assert exc.value.line == 2

    def test_extra_columns_ignored(self, small_geometry):
        stream = read_events_csv("t,x,y,p\n100,3,4,1,extra\n200,5,6,0,7,8\n", small_geometry)
        assert stream.t.tolist() == [100, 200] and stream.p.tolist() == [1, 0]

    def test_too_few_fields_names_the_minimum(self, small_geometry):
        with pytest.raises(ParseError, match="line 1: expected at least 4 fields, found 3"):
            read_events_csv("100,3,4\n", small_geometry)

    @pytest.mark.parametrize("line", [
        "99999999999999999999,3,4,1", "100,99999999999,4,1", "100,3,-1,1", "1000000,3,4,1",
    ], ids=["t-past-int64", "x-past-int32", "negative-y", "t-at-t-max"])
    def test_value_outside_its_column_is_parse_error(self, line, small_geometry):
        with pytest.raises(ParseError) as exc:
            read_events_csv(f"100,3,4,1\n{line}\n", small_geometry)
        assert exc.value.line == 2

    def test_cross_format_equality(self, rng, small_geometry):
        for _ in range(10):
            stream = make_random_stream(rng, small_geometry, int(rng.integers(0, 300)))
            via_csv = read_events_csv(write_events_csv(stream), small_geometry)
            via_bin = read_events_binary(write_events_binary(stream))
            assert np.array_equal(via_csv.t, via_bin.t)
            assert np.array_equal(via_csv.x, via_bin.x)
            assert np.array_equal(via_csv.y, via_bin.y)
            assert np.array_equal(via_csv.p, via_bin.p)


class TestTensorFile:
    def test_smallest_tensor_payload(self, tmp_path):
        path = tmp_path / "t.evtn"
        write_tensor(np.array([[[0.5]]], dtype=np.float32), path)
        data = path.read_bytes()
        assert data[:4] == b"EVTN"
        assert data[-4:] == bytes([0x00, 0x00, 0x00, 0x3F])  # 0.5 as f32 LE

    def test_round_trip_bitwise(self, rng, tmp_path):
        for i in range(20):
            c, h, w = rng.integers(1, 6, size=3)
            t = rng.normal(size=(c, h, w)).astype(np.float32)
            path = tmp_path / f"t{i}.evtn"
            write_tensor(t, path)
            back = read_tensor(path)
            assert back.dtype == np.float32
            assert np.array_equal(back, t)

    def test_big_endian_float32_round_trip_bitwise(self, rng, tmp_path):
        t = rng.normal(size=(3, 6, 5)).astype(np.float32)
        little, big = tmp_path / "le.evtn", tmp_path / "be.evtn"
        write_tensor(t, little)
        write_tensor(t.astype(">f4"), big)
        assert big.read_bytes() == little.read_bytes()
        assert big.stat().st_size == tensor_file_size(t)
        back = read_tensor(big)
        assert back.dtype == np.float32
        assert back.tobytes() == t.tobytes()

    def test_write_allocates_less_than_the_tensor(self, tmp_path):
        # the payload goes to the file from the array's own buffer, not a copy
        t = np.random.default_rng(3).random((8, 360, 640), dtype=np.float32)
        path = tmp_path / "t.evtn"
        tracemalloc.start()
        try:
            write_tensor(t, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.nbytes
        assert np.array_equal(read_tensor(path), t)

    def test_read_allocates_the_payload_once(self, tmp_path):
        t = np.random.default_rng(3).random((8, 360, 640), dtype=np.float32)
        path = tmp_path / "t.evtn"
        write_tensor(t, path)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * t.nbytes
        assert same_bits(back, t)

    def test_views_write_the_packed_bytes(self, rng, tmp_path):
        t = rng.normal(size=(3, 6, 5)).astype(np.float32)
        for a in (t[:, ::2], t.transpose(0, 2, 1)):
            path = tmp_path / "t.evtn"
            write_tensor(a, path)
            header = struct.pack("<4sIIIIB", b"EVTN", 1, *a.shape, 0)
            assert path.read_bytes() == header + np.ascontiguousarray(a, dtype="<f4").tobytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "t.evtn"
        write_tensor(np.zeros((1, 1, 1), dtype=np.float32), path)
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(EvrepError, match="^expected b'EVTN', found b'XVTN'$"):
            read_tensor(path)

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "t.evtn"
        write_tensor(np.zeros((1, 2, 2), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(EvrepError, match="^payload holds 12 bytes, header implies 16$"):
            read_tensor(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "t.evtn"
        write_tensor(np.zeros((1, 1, 1), dtype=np.float32), path)
        data = bytearray(path.read_bytes())
        data[20] = 7  # dtype_code byte
        path.write_bytes(bytes(data))
        with pytest.raises(EvrepError, match="^dtype code 7$"):
            read_tensor(path)


class TestBoxCsv:
    def test_single_annotation(self):
        boxes = read_annotations_csv("1000,10,20,30,40,0\n")
        assert len(boxes) == 1
        a = boxes[0]
        assert (a.t, a.x, a.y, a.w, a.h, a.class_id) == (1000, 10.0, 20.0, 30.0, 40.0, 0)

    def test_non_positive_size(self):
        # the message is Annotation's own, with the line number
        with pytest.raises(ParseError, match="^line 1: box width and height must be positive$"):
            read_annotations_csv("1000,10,20,0,40,0\n")
        with pytest.raises(ParseError, match="^line 2: box width and height must be positive$"):
            read_detections_csv("t,x,y,w,h,class_id,score\n1000,10,20,0,40,0,0.5\n")

    @pytest.mark.parametrize("score", ["1.5", "-0.25"])
    def test_score_outside_unit_interval(self, score):
        with pytest.raises(ParseError, match=rf"^line 2: score {score} outside \[0, 1\]$"):
            read_detections_csv(f"1000,1,1,5,5,0,0.5\n1000,1,1,5,5,0,{score}\n")

    @pytest.mark.parametrize("line,message", [
        # a field that does not parse, the score's too, before any range check
        ("1,1,1,0,5,0,high", "bad score 'high'"),
        # the int64 range, then the box, then the score
        ("-1,1,1,0,5,0,2", r"timestamp -1 or class_id 0 outside \[0, 2\*\*63\)"),
        ("1,1,1,0,5,0,2", "box width and height must be positive"),
    ], ids=["parse", "int64-range", "box"])
    def test_first_defect_of_a_row_wins(self, line, message):
        with pytest.raises(ParseError, match=f"^line 1: {message}$"):
            read_detections_csv(line + "\n")

    def test_extra_columns_ignored(self):
        boxes = read_annotations_csv("1000,10,20,30,40,0,77,confidence\n")
        assert len(boxes) == 1
        assert boxes[0].class_id == 0

    def test_detection_score_round_trip_exact(self):
        det = Detection(1000, 1.5, 2.25, 3.0, 4.0, 2, 0.875)
        back = read_detections_csv(write_detections_csv([det]))
        assert back == [det]
        assert back[0].score == 0.875

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10**9),
                st.floats(-500, 500, allow_nan=False),
                st.floats(-500, 500, allow_nan=False),
                st.floats(0.1, 300, allow_nan=False),
                st.floats(0.1, 300, allow_nan=False),
                st.integers(0, 10),
                st.floats(0, 1, allow_nan=False),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_detections_round_trip_property(self, rows):
        dets = [Detection(*row) for row in rows]
        assert read_detections_csv(write_detections_csv(dets)) == dets

    @pytest.mark.parametrize("line", [
        "99999999999999999999,1,1,5,5,0", "-1,1,1,5,5,0", "5,1,1,5,5,99999999999999999999",
    ], ids=["t-past-int64", "negative-t", "class-past-int64"])
    def test_timestamp_or_class_id_outside_its_range_is_parse_error(self, line):
        with pytest.raises(ParseError):
            read_annotations_csv(line + "\n")
        with pytest.raises(ParseError):
            read_detections_csv(line + ",0.5\n")

    def test_annotations_round_trip(self, rng):
        boxes = [
            # 0.1-step values chosen to exercise non-dyadic decimals
            *(read_annotations_csv("5,0.1,0.3,10.7,9.9,1\n")),
        ]
        assert read_annotations_csv(write_annotations_csv(boxes)) == boxes


class TestFlowFile:
    def test_single_pixel_field(self, tmp_path):
        path = tmp_path / "f.flow"
        write_flow(FlowField.from_planes(42, [[3.0]], [[4.0]]), path)
        flow = read_flow(path)
        assert flow.t == 42
        assert flow.u[0, 0] == 3.0 and flow.v[0, 0] == 4.0

    def test_truncated_plane(self, tmp_path):
        path = tmp_path / "f.flow"
        write_flow(FlowField.from_planes(0, np.ones((2, 3)), np.ones((2, 3))), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(EvrepError, match="^payload holds 40 bytes, expected 48$"):
            read_flow(path)

    def test_shorter_than_its_header(self, tmp_path):
        path = tmp_path / "f.flow"
        write_flow(FlowField.from_planes(0, np.ones((2, 3)), np.ones((2, 3))), path)
        path.write_bytes(path.read_bytes()[:19])
        with pytest.raises(EvrepError, match="^input shorter than the flow header$"):
            read_flow(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.flow"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(EvrepError, match="^expected b'FLOW', found b'NOPE'$"):
            read_flow(path)

    def test_round_trip(self, rng, tmp_path):
        for i in range(20):
            h, w = rng.integers(1, 8, size=2)
            field = FlowField.from_planes(
                int(rng.integers(0, 10**7)),
                rng.normal(size=(h, w)).astype(np.float32),
                rng.normal(size=(h, w)).astype(np.float32),
            )
            path = tmp_path / f"f{i}.flow"
            write_flow(field, path)
            back = read_flow(path)
            assert back.t == field.t
            assert np.array_equal(back.u, field.u)
            assert np.array_equal(back.v, field.v)


class TestLevelsCsv:
    TEXT = "t,box_index,bbofd,level\n50000,0,0.12478771060705185,1\n50000,2,7.0,5\n90000,3,0.0,3\n"

    def test_round_trip_bitwise(self):
        rows = read_levels_csv(self.TEXT)
        assert rows == [(50000, 0, 0.12478771060705185, 1), (50000, 2, 7.0, 5), (90000, 3, 0.0, 3)]
        assert write_levels_csv(rows) == self.TEXT

    @given(st.lists(
        st.tuples(st.integers(0, 10**12), st.integers(0, 10**6),
                  st.floats(0, 1e6, allow_nan=False), st.integers(1, 5)),
        max_size=20, unique_by=lambda row: row[:2],
    ))
    @settings(max_examples=50, deadline=None)
    def test_rows_round_trip_property(self, rows):
        text = write_levels_csv(rows)
        assert read_levels_csv(text) == rows
        assert write_levels_csv(read_levels_csv(text)) == text

    @pytest.mark.parametrize("rows,message", [
        ("0,0,0.5,0\n", "line 1: level 0 outside 1..5"),
        ("0,0,0.5,1\n0,1,0.5,9\n", "line 2: level 9 outside 1..5"),
        ("0,0,0.5,1\n0,1,0.5,2\n0,0,0.7,3\n", "line 3: second row for annotation (0, 0)"),
    ], ids=["level-0", "level-9", "duplicate-key"])
    def test_bad_level_or_repeated_key_is_parse_error(self, rows, message):
        with pytest.raises(ParseError, match=message.replace("(", r"\(").replace(")", r"\)")):
            read_levels_csv(rows)

    def test_headerless_file_reads_every_row(self):
        headerless = self.TEXT.split("\n", 1)[1]
        assert read_levels_csv(headerless) == read_levels_csv(self.TEXT)
        assert len(read_levels_csv(headerless)) == 3

    def test_extra_columns_ignored(self):
        rows = read_levels_csv("t,box_index,bbofd,level,note\n0,1,0.5,2,fast\n0,2,1.5,4,x,y\n")
        assert rows == [(0, 1, 0.5, 2), (0, 2, 1.5, 4)]


def _via_file(reader):
    def read(data: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            return reader(path)
    return read


_GEOMETRY = FrameGeometry(8, 6, 1_000)
_STREAM = EventStream.from_arrays(
    _GEOMETRY, [0, 10, 10, 999], [0, 7, 3, 1], [0, 5, 2, 1], [0, 1, 1, 0])
_BOXES = [Annotation(0, 1.5, 2.0, 3.0, 4.0, 0), Annotation(10, 0.0, 0.0, 8.0, 6.0, 2)]


def _file_bytes(write, value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "output"
        write(value, path)
        return path.read_bytes()


# each reader, with one valid input in its format
_READERS = {
    "evs": (read_events_binary, write_events_binary(_STREAM)),
    "evtn": (_via_file(read_tensor),
             _file_bytes(write_tensor, np.arange(24, dtype=np.float32).reshape(2, 3, 4))),
    "flow": (_via_file(read_flow),
             _file_bytes(write_flow, FlowField.from_planes(7, np.ones((3, 4)), -np.ones((3, 4))))),
    "events-csv": (lambda data: read_events_csv(data.decode("latin-1"), _GEOMETRY),
                   write_events_csv(_STREAM).encode()),
    "annotation-csv": (lambda data: read_annotations_csv(data.decode("latin-1")),
                       write_annotations_csv(_BOXES).encode()),
    "detection-csv": (lambda data: read_detections_csv(data.decode("latin-1")),
                      write_detections_csv([Detection(*astuple(b), 0.5) for b in _BOXES])
                      .encode()),
    "levels-csv": (lambda data: read_levels_csv(data.decode("latin-1")),
                   write_levels_csv([(0, 0, 0.25, 1), (10, 1, 3.5, 5)]).encode()),
}

_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=24)),
)


def _mutate(data: bytes, mutations) -> bytes:
    for kind, *args in mutations:
        if kind == "truncate":
            data = data[: args[0] % (len(data) + 1)]
        elif kind == "flip" and data:
            i = args[0] % len(data)
            data = data[:i] + bytes([data[i] ^ args[1]]) + data[i + 1:]
        elif kind == "append":
            data += args[0]
    return data


@pytest.mark.parametrize("fmt", list(_READERS))
@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
@example(mutations=[("append", b"\n99999999999999999999,1,1,0\n")])
def test_any_failure_of_a_mutated_input_is_an_evrep_error(fmt, mutations):
    """Every reader's error contract: a truncated, flipped or extended input
    is read or raises EvrepError, which the CLI maps to exit 2."""
    reader, valid = _READERS[fmt]
    reader(valid)
    try:
        reader(_mutate(valid, mutations))
    except EvrepError:
        pass
