import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrep.errors import (
    BadMagicError,
    CoordOutOfBoundsError,
    DimMismatchError,
    NonMonotonicTimestampError,
    NonPositiveSizeError,
    ParseError,
    TruncatedPlaneError,
    TruncatedRecordError,
    UnsupportedDtypeError,
)
from evrep.io import (
    read_annotations_csv,
    read_detections_csv,
    read_events_binary,
    read_events_csv,
    read_events_geometry,
    read_flow,
    read_tensor,
    write_annotations_csv,
    write_detections_csv,
    write_events_binary,
    write_events_csv,
    write_flow,
    write_tensor,
)
from evrep.model import Detection, FlowField, FrameGeometry

from conftest import make_random_stream


def _header(width=32, height=24, t_max=1_000_000) -> bytes:
    return struct.pack("<4sIHHQ", b"EVST", 1, width, height, t_max)


def _record(t, x, y, p) -> bytes:
    return struct.pack("<QHHBB", t, x, y, p, 0)


class TestEventsBinary:
    def test_single_record(self):
        stream = read_events_binary(_header() + _record(100, 3, 4, 1))
        assert len(stream) == 1
        assert (stream.t[0], stream.x[0], stream.y[0], stream.p[0]) == (100, 3, 4, 1)
        assert stream.geometry == FrameGeometry(32, 24, 1_000_000)

    def test_x_equal_to_width_rejected(self):
        with pytest.raises(CoordOutOfBoundsError):
            read_events_binary(_header() + _record(100, 32, 4, 1))

    def test_y_equal_to_height_rejected(self):
        with pytest.raises(CoordOutOfBoundsError):
            read_events_binary(_header() + _record(100, 3, 24, 1))

    def test_t_equal_to_t_max_rejected(self):
        with pytest.raises(CoordOutOfBoundsError):
            read_events_binary(_header() + _record(1_000_000, 3, 4, 1))

    def test_empty_stream_accepted(self):
        stream = read_events_binary(_header())
        assert len(stream) == 0
        assert write_events_binary(stream) == _header()

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_events_binary(b"XXXX" + _header()[4:])

    def test_truncated_record(self):
        with pytest.raises(TruncatedRecordError):
            read_events_binary(_header() + _record(100, 3, 4, 1)[:-1])

    def test_non_monotonic_index(self):
        data = _header() + _record(100, 0, 0, 0) + _record(99, 0, 0, 0)
        with pytest.raises(NonMonotonicTimestampError) as exc:
            read_events_binary(data)
        assert exc.value.index == 1

    def test_non_monotonic_reported_at_later_index(self):
        data = (_header() + _record(100, 0, 0, 0) + _record(100, 1, 0, 0)
                + _record(200, 0, 0, 0) + _record(150, 0, 0, 0))
        with pytest.raises(NonMonotonicTimestampError) as exc:
            read_events_binary(data)
        assert exc.value.index == 3

    def test_polarity_domain(self):
        with pytest.raises(CoordOutOfBoundsError):
            read_events_binary(_header() + _record(100, 3, 4, 2))

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
        with pytest.raises(TruncatedRecordError):
            read_events_geometry(path)

    def test_large_generated_stream_read_back_intact(self, rng, small_geometry):
        # the reader validates every record, so a generated stream must pass it intact
        stream = make_random_stream(rng, small_geometry, 10_000)
        again = read_events_binary(write_events_binary(stream))
        assert len(again) == 10_000
        for name in "txyp":
            assert np.array_equal(getattr(stream, name), getattr(again, name))


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

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "t.evtn"
        write_tensor(np.zeros((1, 1, 1), dtype=np.float32), path)
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "t.evtn"
        write_tensor(np.zeros((1, 2, 2), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DimMismatchError):
            read_tensor(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "t.evtn"
        write_tensor(np.zeros((1, 1, 1), dtype=np.float32), path)
        data = bytearray(path.read_bytes())
        data[20] = 7  # dtype_code byte
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedDtypeError):
            read_tensor(path)


class TestBoxCsv:
    def test_single_annotation(self):
        boxes = read_annotations_csv("1000,10,20,30,40,0\n")
        assert len(boxes) == 1
        a = boxes[0]
        assert (a.t, a.x, a.y, a.w, a.h, a.class_id) == (1000, 10.0, 20.0, 30.0, 40.0, 0)

    def test_non_positive_size(self):
        with pytest.raises(NonPositiveSizeError):
            read_annotations_csv("1000,10,20,0,40,0\n")

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
        with pytest.raises(TruncatedPlaneError):
            read_flow(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.flow"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
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
