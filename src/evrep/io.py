"""Readers and writers for every on-disk format the toolkit uses.

All multi-byte integers are little-endian. Read/write pairs are exact
inverses on valid inputs (bitwise for the binary formats); readers never
hand back values that violate the data-model invariants; they raise.

Event stream binary (.evs)
    header   magic b"EVST" | version u32 = 1 | W u16 | H u16 | T_max u64
    records  t u64 | x u16 | y u16 | p u8 | reserved u8 (= 0)   [14 bytes each]
    T_max lies in [1, 2**63), FrameGeometry's bound, and each t in [0, T_max),
    so every time the reader hands back fits int64.
    read_events_binary takes the file's bytes or a seekable binary file;
    bytes go through io.BytesIO, so one decode loop serves both. The records
    are decoded in chunks of _CHUNK_RECORDS through one reused buffer into
    int64/int32/int32/uint8 columns (EventStream.DTYPES, 17 bytes per event),
    each chunk checked as it lands, until the columns are full or the file
    ends. A whole-file read allocates columns for every record once, so its
    peak is those columns plus one chunk. A forward read decodes the next
    chunk from the file's position straight into columns the caller passes
    (into): the encode loop (cli._tensors) hands it the rows after the span
    of events it holds, so each event is written once and no read allocates
    event columns. Each call takes the geometry, its first record's index and
    the timestamp before it from the file, and checks the rest of the file
    before it raises, so every defect message is the whole file's.

Tensor file (.evtn)
    header   magic b"EVTN" | version u32 = 1 | C u32 | H u32 | W u32
             | dtype_code u8 (0 = float32 LE)
    payload  C*H*W float32, channel-major (c, then y, then x); written
             straight from the array's buffer, with no copy when the array
             is already contiguous little-endian float32

Flow field (.flow)
    header   magic b"FLOW" | t u64 | H u32 | W u32
    payload  H*W float32 u-plane (row-major), then the v-plane; read into
             one (2, H, W) array once its size is checked, as a tensor is

The three binary readers take their header through _header, which rejects
a short header or another magic; each format then checks its own version.

CSV (one dialect, read by ``_rows`` and written by ``write_csv``)
    One optional header line (a first line whose first field is not a
    number); blank lines skipped; fields stripped; a row needs at least its
    format's fields and any extra fields are ignored. Ints are written as
    decimal text, floats in shortest round-trip form.
    Event CSV        "t,x,y,p"
    Annotation CSV   "t,x,y,w,h,class_id"
    Detection CSV    "t,x,y,w,h,class_id,score"
    Levels CSV       "t,box_index,bbofd,level"; level in 1..5, one row per
                     (t, box_index)
"""

from __future__ import annotations

import io
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import EvrepError, InvalidParamError, ParseError
from .model import Annotation, Detection, EventStream, FlowField, FrameGeometry

EVENT_MAGIC = b"EVST"
TENSOR_MAGIC = b"EVTN"
FLOW_MAGIC = b"FLOW"

_EVENT_HEADER = struct.Struct("<4sIHHQ")
_TENSOR_HEADER = struct.Struct("<4sIIIIB")
_FLOW_HEADER = struct.Struct("<4sQII")

_EVENT_RECORD_DTYPE = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("reserved", "u1")]
)


# The first defect of each kind a stream can hold, in the order the readers
# report them; only the binary format has a reserved byte.
_EVENT_DEFECTS = (
    "non-monotonic timestamp",
    "timestamp outside [0, t_max)",
    "coordinate out of bounds",
    "polarity not in {0, 1}",
    "reserved byte not 0",
)

# Records decoded per readinto: 8,192 records is 112 KiB, below glibc's
# default 128 KiB mmap threshold, so the buffer and the checks' chunk-sized
# temporaries come from the heap instead of being mapped, faulted in and
# unmapped chunk after chunk. Freeing a mapped block also raises glibc's
# threshold, which moves where later tensors land: while encode kept two
# tensors alive, 65,536-record (896 KiB) chunks took `encode --rep volume`
# on evbench's seed-1 mpx_sparse recording from 49 to 57 MB peak RSS.
_CHUNK_RECORDS = 8192


def _find_defects(first: list, geometry: FrameGeometry, at: int, t, x, y, p,
                  reserved=None, before=None) -> None:
    """Set first[k], where it is still None, to the absolute index of the first
    record with defect k of _EVENT_DEFECTS among the columns given, whose
    first record is record at. before is the timestamp of record at - 1 (None
    at record 0), so the monotonic check spans chunk and call edges."""
    # a difference, as np.diff takes it: past int64 a wrapped time's wraps
    # again; the first record's is taken apart, so t is never copied
    back = t[1:] - t[:-1] < 0
    if before is not None:
        back = np.concatenate((t[:1] - before < 0, back))
    skip = len(t) - len(back)  # 1 where the first record follows none
    masks = [
        back,
        (t >= geometry.t_max_us) | (t < 0),
        (x >= geometry.width) | (y >= geometry.height),
        p > 1,
    ]
    if reserved is not None:
        masks.append(reserved != 0)
    for k, mask in enumerate(masks):
        if first[k] is None and mask.any():
            first[k] = int(mask.argmax()) + at + (skip if k == 0 else 0)


def _raise_first_defect(first: list) -> None:
    for what, at in zip(_EVENT_DEFECTS, first):
        if at is not None:
            raise EvrepError(f"{what} at record {at}")


def _payload_size(source: BinaryIO) -> int:
    """Bytes from the source's position to its end; the position is kept."""
    at = source.tell()
    end = source.seek(0, os.SEEK_END)
    source.seek(at)
    return end - at


def _fill(source: BinaryIO, buffer: np.ndarray) -> None:
    """readinto the whole of buffer, or raise: the source was shorter than
    the size taken from it before the read."""
    wanted = buffer.nbytes
    got = source.readinto(buffer.view(np.uint8))
    if got != wanted:
        raise EvrepError(f"input ended {wanted - got} bytes short of its size")


def _header(source: BinaryIO, header: struct.Struct, magic: bytes, what: str) -> tuple:
    """The fields after the magic of a container header read from source's
    position; a short header or another magic raises EvrepError."""
    data = source.read(header.size)
    if len(data) < header.size:
        raise EvrepError(f"input shorter than the {what} header")
    fields = header.unpack(data)
    if fields[0] != magic:
        raise EvrepError(f"expected {magic!r}, found {fields[0]!r}")
    return fields[1:]


def _event_header(source: BinaryIO) -> FrameGeometry:
    version, width, height, t_max = _header(source, _EVENT_HEADER, EVENT_MAGIC, "stream")
    if version != 1:
        raise EvrepError(f"unsupported event stream version {version}")
    return FrameGeometry(width, height, t_max)


def read_events_geometry(path: str | Path) -> FrameGeometry:
    """The geometry in an event stream file's header; reads the header only."""
    with open(path, "rb") as fh:
        return _event_header(fh)


def read_events_binary(source: bytes | BinaryIO, into: Sequence | None = None) -> EventStream:
    """Decode an event stream from the binary format described above, from
    the source's position until the output columns are full or the file ends.

    source is the file's bytes, or a seekable binary file. The geometry, the
    absolute index of the first record to decode and the timestamp of the
    record before it all come from the source and its position, so no state
    is kept between calls: at the start of the file (or of its records) the
    read begins at record 0, and after a forward read it begins where that
    read stopped. into is the output columns: four writable arrays of
    _CHUNK_RECORDS rows in EventStream.DTYPES. A forward read into them
    decodes the next chunk (fewer records at the end of the file, none past
    it), writes no other rows, and leaves the source at the first record not
    decoded. Without into, columns for every remaining record are allocated
    once, so a whole-file read holds the 17 bytes per event the stream
    keeps, plus one chunk. The stream returned views the decoded rows.

    Records are decoded _CHUNK_RECORDS at a time through one reused buffer,
    each chunk checked as it lands. Once a chunk holds a defect, the rest of
    the payload is still decoded and checked chunk by chunk, so every call
    reports what a whole-file read would: the first record of the first kind
    in _EVENT_DEFECTS' order, by its absolute index. A file that ends short
    of the size taken from it raises EvrepError.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    at = source.tell()
    source.seek(0)
    geometry = _event_header(source)
    records_at, size = source.tell(), _EVENT_RECORD_DTYPE.itemsize
    body = _payload_size(source)
    if body % size != 0:
        raise EvrepError(f"{body} payload bytes is not a multiple of {size}")

    lo = max(at - records_at, 0) // size  # the first record this call decodes
    before = None
    if lo:
        source.seek(records_at + (lo - 1) * size)
        before = int.from_bytes(source.read(8), "little")  # checked by the call that read it
    source.seek(records_at + lo * size)
    n = body // size - lo
    chunk = np.empty(min(n, _CHUNK_RECORDS), dtype=_EVENT_RECORD_DTYPE)
    t, x, y, p = into if into is not None else [np.empty(n, d) for d in EventStream.DTYPES]
    first: list = [None] * len(_EVENT_DEFECTS)
    kept = 0  # records decoded into the columns; past a defect, chunks only overwrite
    for start in range(0, n, _CHUNK_RECORDS):
        m = min(_CHUNK_RECORDS, n - start)
        records = chunk[:m]
        _fill(source, records)
        rows = slice(kept, kept + m)
        t[rows] = records["t"]  # a u64 past int64 wraps negative, and is caught
        x[rows] = records["x"]
        y[rows] = records["y"]
        p[rows] = records["p"]
        _find_defects(first, geometry, lo + start, t[rows], x[rows], y[rows], p[rows],
                      records["reserved"], before)
        before = t[kept + m - 1]
        if any(k is not None for k in first):
            continue
        kept += m
        if kept == len(t):
            break
    _raise_first_defect(first)
    return EventStream.from_arrays(geometry, t[:kept], x[:kept], y[:kept], p[:kept])


def write_events_binary(stream: EventStream) -> bytes:
    """Encode a stream to the binary format; inverse of read_events_binary."""
    geo = stream.geometry
    header = _EVENT_HEADER.pack(EVENT_MAGIC, 1, geo.width, geo.height, geo.t_max_us)
    records = np.zeros(len(stream), dtype=_EVENT_RECORD_DTYPE)
    records["t"] = stream.t
    records["x"] = stream.x
    records["y"] = stream.y
    records["p"] = stream.p
    return header + records.tobytes()


def _rows(text: str, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, stripped fields) of each row of a CSV in the one
    dialect of the module docstring."""
    header_allowed = True
    for no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if header_allowed:
            header_allowed = False
            try:
                float(fields[0])
            except ValueError:
                continue
        if len(fields) < n_fields:
            raise ParseError(no, f"expected at least {n_fields} fields, found {len(fields)}")
        yield no, fields


def write_csv(header: str, rows: Iterable[Sequence]) -> str:
    """The header line, then one line per row: a float field as the shortest
    decimal that round-trips to it, any other field as str."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        ))
    return "\n".join(lines) + "\n"


def _parse_int(field: str, lineno: int, what: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise ParseError(lineno, f"bad {what} {field!r}") from None


def _parse_float(field: str, lineno: int, what: str) -> float:
    try:
        v = float(field)
    except ValueError:
        raise ParseError(lineno, f"bad {what} {field!r}") from None
    if not math.isfinite(v):
        raise ParseError(lineno, f"non-finite {what} {field!r}")
    return v


def read_events_csv(text: str, geometry: FrameGeometry) -> EventStream:
    """Parse "t,x,y,p" rows into a validated stream."""
    rows = []
    for no, fields in _rows(text, 4):
        t = _parse_int(fields[0], no, "timestamp")
        x = _parse_int(fields[1], no, "x")
        y = _parse_int(fields[2], no, "y")
        pol = _parse_int(fields[3], no, "polarity")
        if pol not in (0, 1):
            raise ParseError(no, f"polarity must be 0 or 1, found {pol}")
        # bounded here, with the line number, so that no value overflows its column
        if not 0 <= t < geometry.t_max_us:
            raise ParseError(no, f"timestamp {t} outside [0, {geometry.t_max_us})")
        if not (0 <= x < geometry.width and 0 <= y < geometry.height):
            raise ParseError(
                no, f"coordinate ({x}, {y}) outside the {geometry.width}x{geometry.height} frame"
            )
        rows.append((t, x, y, pol))
    t, x, y, p = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    first: list = [None] * len(_EVENT_DEFECTS)
    _find_defects(first, geometry, 0, t, x, y, p)
    _raise_first_defect(first)
    return EventStream.from_arrays(geometry, t, x, y, p)


def write_events_csv(stream: EventStream) -> str:
    """Emit "t,x,y,p" rows with a header; inverse of read_events_csv."""
    columns = (stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.p.tolist())
    return write_csv("t,x,y,p", zip(*columns))


def write_tensor(t: np.ndarray, path: str | Path) -> None:
    """Write a finite float32 (C, H, W) tensor, of either byte order, to the
    .evtn container."""
    a = np.asarray(t)
    if a.ndim != 3:
        raise InvalidParamError(f"expected a (C, H, W) tensor, got shape {a.shape}")
    if a.dtype not in (np.dtype("<f4"), np.dtype(">f4")):
        raise InvalidParamError(f"expected float32 data, got {a.dtype}")
    if not np.all(np.isfinite(a)):
        raise InvalidParamError("tensor contains non-finite values")
    c, h, w = a.shape
    payload = np.ascontiguousarray(a, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_TENSOR_HEADER.pack(TENSOR_MAGIC, 1, c, h, w, 0))
        fh.write(memoryview(payload).cast("B"))


def tensor_file_size(t: np.ndarray) -> int:
    """Bytes of the .evtn file write_tensor writes for t."""
    return _TENSOR_HEADER.size + 4 * t.size


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a .evtn tensor file back into a float32 (C, H, W) array.

    The payload's size is checked against the header before the array is
    allocated, and the file is read straight into it: one payload-sized
    allocation.
    """
    with open(path, "rb") as fh:
        version, c, h, w, dtype_code = _header(fh, _TENSOR_HEADER, TENSOR_MAGIC, "tensor")
        if version != 1:
            raise EvrepError(f"unsupported tensor version {version}")
        if dtype_code != 0:
            raise EvrepError(f"dtype code {dtype_code}")
        expected = c * h * w * 4
        actual = _payload_size(fh)
        if actual != expected:
            raise EvrepError(f"payload holds {actual} bytes, header implies {expected}")
        tensor = np.empty((c, h, w), dtype="<f4")
        _fill(fh, tensor)
    return tensor.astype(np.float32, copy=False)


def _box(no: int, fields: list[str], kind: type[Annotation]) -> Annotation:
    """The Annotation, or the Detection with its seventh "score" field, of one
    row; the class's own check of the box is reported with the line number."""
    t = _parse_int(fields[0], no, "timestamp")
    x = _parse_float(fields[1], no, "x")
    y = _parse_float(fields[2], no, "y")
    w = _parse_float(fields[3], no, "w")
    h = _parse_float(fields[4], no, "h")
    class_id = _parse_int(fields[5], no, "class_id")
    score = (_parse_float(fields[6], no, "score"),) if kind is Detection else ()
    # both are held in int64 arrays downstream
    if not (0 <= t < 2**63 and 0 <= class_id < 2**63):
        raise ParseError(no, f"timestamp {t} or class_id {class_id} outside [0, 2**63)")
    try:
        return kind(t, x, y, w, h, class_id, *score)
    except InvalidParamError as exc:
        raise ParseError(no, str(exc)) from None


def read_annotations_csv(text: str) -> list[Annotation]:
    """Parse "t,x,y,w,h,class_id" rows."""
    return [_box(no, fields, Annotation) for no, fields in _rows(text, 6)]


def write_annotations_csv(annotations: Sequence[Annotation]) -> str:
    return write_csv("t,x,y,w,h,class_id", (
        (a.t, float(a.x), float(a.y), float(a.w), float(a.h), a.class_id) for a in annotations
    ))


def read_detections_csv(text: str) -> list[Detection]:
    """As read_annotations_csv with a seventh "score" column."""
    return [_box(no, fields, Detection) for no, fields in _rows(text, 7)]


def write_detections_csv(detections: Sequence[Detection]) -> str:
    return write_csv("t,x,y,w,h,class_id,score", (
        (d.t, float(d.x), float(d.y), float(d.w), float(d.h), d.class_id, float(d.score))
        for d in detections
    ))


def read_levels_csv(text: str) -> list[tuple[int, int, float, int]]:
    """Parse "t,box_index,bbofd,level" rows, as the levels command writes them.

    A level outside 1..5 or a second row for one (t, box_index) is a ParseError.
    """
    rows: dict[tuple[int, int], tuple[int, int, float, int]] = {}
    for no, fields in _rows(text, 4):
        t = _parse_int(fields[0], no, "timestamp")
        index = _parse_int(fields[1], no, "box_index")
        value = _parse_float(fields[2], no, "bbofd")
        level = _parse_int(fields[3], no, "level")
        if not 1 <= level <= 5:
            raise ParseError(no, f"level {level} outside 1..5")
        if (t, index) in rows:
            raise ParseError(no, f"second row for annotation ({t}, {index})")
        rows[t, index] = (t, index, value, level)
    return list(rows.values())


def write_levels_csv(rows: Iterable[tuple[int, int, float, int]]) -> str:
    """Emit (t, box_index, bbofd, level) rows with a header; inverse of read_levels_csv."""
    return write_csv("t,box_index,bbofd,level", ((t, i, float(v), lv) for t, i, v, lv in rows))


def write_flow(flow: FlowField, path: str | Path) -> None:
    """Write a flow field to the .flow container."""
    header = _FLOW_HEADER.pack(FLOW_MAGIC, flow.t, flow.height, flow.width)
    u = np.ascontiguousarray(flow.u, dtype="<f4").tobytes()
    v = np.ascontiguousarray(flow.v, dtype="<f4").tobytes()
    Path(path).write_bytes(header + u + v)


def read_flow(path: str | Path) -> FlowField:
    """Read a .flow file back into a FlowField; inverse of write_flow."""
    with open(path, "rb") as fh:
        t, h, w = _header(fh, _FLOW_HEADER, FLOW_MAGIC, "flow")
        expected = 2 * h * w * 4
        actual = _payload_size(fh)
        if actual != expected:
            raise EvrepError(f"payload holds {actual} bytes, expected {expected}")
        planes = np.empty((2, h, w), dtype="<f4")
        _fill(fh, planes)
    return FlowField.from_planes(t, planes[0], planes[1])
