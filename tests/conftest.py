import io
import os
import struct

import numpy as np
import pytest

from evrep.io import _CHUNK_RECORDS
from evrep.model import EventStream, FrameGeometry


def make_random_stream(
    rng: np.random.Generator,
    geometry: FrameGeometry,
    n_events: int,
    t_hi: int | None = None,
) -> EventStream:
    """Random in-bounds stream with sorted timestamps; valid by construction."""
    t_hi = geometry.t_max_us if t_hi is None else t_hi
    t = np.sort(rng.integers(0, t_hi, size=n_events))
    x = rng.integers(0, geometry.width, size=n_events)
    y = rng.integers(0, geometry.height, size=n_events)
    p = rng.integers(0, 2, size=n_events)
    return EventStream.from_arrays(geometry, t, x, y, p)


# chunked_records' streams span this many chunk edges and a partial chunk
CHUNK_EDGES = 4


def chunked_records(seed: int, extra: int, defects) -> bytes:
    """An .evs file of a 32x24, 1 s stream of CHUNK_EDGES * _CHUNK_RECORDS +
    extra records, valid but for one record per (kind, chunk edge, offset
    from it) in defects: a time that goes "early" (back) or "late" (past
    t_max), a "u64" past int64, an "x" or "y" out of the frame, a "p" past 1,
    or a "reserved" byte of 1."""
    n = CHUNK_EDGES * _CHUNK_RECORDS + extra
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
    return struct.pack("<4sIHHQ", b"EVST", 1, 32, 24, 1_000_000) + records.tobytes()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Both float32 and equal bit for bit (so -0.0 differs from 0.0)."""
    return a.dtype == b.dtype == np.float32 and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class ShrinksAfterItsSize(io.FileIO):
    """A file that loses its last 14-byte record once its size has been read
    (by a seek to its end)."""

    def seek(self, pos, whence=os.SEEK_SET):
        at = super().seek(pos, whence)
        if whence == os.SEEK_END:
            os.truncate(self.name, at - 14)
        return at


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_geometry() -> FrameGeometry:
    return FrameGeometry(32, 24, 1_000_000)


@pytest.fixture
def sensor_geometry() -> FrameGeometry:
    return FrameGeometry(304, 240, 60_000_000)
