"""Test-only oracle for evrep.io.read_events_binary: the whole-array reader.

It decodes every record of the file's bytes in one np.frombuffer and checks
each column over the whole stream, so it shares no chunking with the
production reader, which must return the same columns (dtype and values) or
raise the same message. The checks run in the reader's order: time order,
timestamp range, coordinates, polarity, then the reserved byte.
"""

from __future__ import annotations

import struct

import numpy as np

from evrep.errors import EvrepError
from evrep.model import FrameGeometry

_HEADER = struct.Struct("<4sIHHQ")
_RECORD = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("reserved", "u1")]
)


def read_events_oracle(data: bytes) -> tuple[FrameGeometry, tuple[np.ndarray, ...]]:
    """The geometry and the (t, x, y, p) columns of an .evs file's bytes."""
    if len(data) < _HEADER.size:
        raise EvrepError("input shorter than the stream header")
    magic, version, width, height, t_max = _HEADER.unpack_from(data, 0)
    if magic != b"EVST":
        raise EvrepError(f"expected {b'EVST'!r}, found {magic!r}")
    if version != 1:
        raise EvrepError(f"unsupported event stream version {version}")
    geometry = FrameGeometry(width, height, t_max)
    body = len(data) - _HEADER.size
    if body % _RECORD.itemsize != 0:
        raise EvrepError(f"{body} payload bytes is not a multiple of {_RECORD.itemsize}")

    records = np.frombuffer(data, dtype=_RECORD, offset=_HEADER.size)
    t = records["t"].astype(np.int64)
    x = records["x"].astype(np.int32)
    y = records["y"].astype(np.int32)
    p = records["p"].astype(np.uint8)
    bad = np.nonzero(np.diff(t) < 0)[0]
    if bad.size:
        raise EvrepError(f"non-monotonic timestamp at record {int(bad[0]) + 1}")
    bad = np.nonzero((t >= geometry.t_max_us) | (t < 0))[0]
    if bad.size:
        raise EvrepError(f"timestamp outside [0, t_max) at record {int(bad[0])}")
    bad = np.nonzero((x >= geometry.width) | (y >= geometry.height))[0]
    if bad.size:
        raise EvrepError(f"coordinate out of bounds at record {int(bad[0])}")
    bad = np.nonzero(p > 1)[0]
    if bad.size:
        raise EvrepError(f"polarity not in {{0, 1}} at record {int(bad[0])}")
    bad = np.nonzero(records["reserved"] != 0)[0]
    if bad.size:
        raise EvrepError(f"reserved byte not 0 at record {int(bad[0])}")
    return geometry, (t, x, y, p)
