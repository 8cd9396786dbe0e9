import io
import os

import numpy as np
import pytest

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
