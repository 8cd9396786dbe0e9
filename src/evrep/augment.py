"""Tensor-level training augmentation: horizontal flip and resize-crop.

Randomness comes from a counter-based Philox generator (numpy's
``np.random.Philox`` keyed with the config seed) so augmented outputs are
reproducible across runs and implementations. ``augment`` consumes draws in
a fixed order: one uniform for the flip decision, one for the crop
decision, then (only when the crop fires) the row offset and the column
offset as inclusive integer uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvrepError, InvalidParamError
from .model import TensorCHW

# floor(scale * n) fits int64 for every size n a .evtn header holds (u32)
MAX_SCALE = 2**31


@dataclass(frozen=True)
class AugmentConfig:
    """Flip probability, crop probability, resize factor (>= 1) and seed."""

    flip_prob: float = 0.5
    crop_prob: float = 0.5
    scale: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0 or not 0.0 <= self.crop_prob <= 1.0:
            raise InvalidParamError("probabilities must lie in [0, 1]")
        if not 1.0 <= self.scale < MAX_SCALE:
            raise InvalidParamError(f"scale must lie in [1, {MAX_SCALE})")
        if not 0 <= self.seed < 2**128:
            raise InvalidParamError("seed must lie in [0, 2**128), the Philox key range")


def flip_h(tensor: TensorCHW) -> TensorCHW:
    """Mirror the tensor along x: out[c, y, x] = in[c, y, W-x-1]."""
    return np.ascontiguousarray(tensor[:, :, ::-1])


def resize_crop(tensor: TensorCHW, scale: float, offsets: tuple[int, int]) -> TensorCHW:
    """Nearest-neighbor upsample by ``scale`` then crop back to the input size.

    Destination index d samples source index floor(d / scale) (exact hits
    stay put, so ties resolve toward the lower index). ``offsets`` is the
    (row, column) corner of the crop window inside the upsampled tensor.
    """
    if not 1.0 <= scale < MAX_SCALE:
        raise InvalidParamError(f"scale must lie in [1, {MAX_SCALE})")
    _, h, w = tensor.shape
    y_off, x_off = offsets
    h_up = math.floor(scale * h)
    w_up = math.floor(scale * w)
    if not 0 <= y_off <= h_up - h or not 0 <= x_off <= w_up - w:
        raise EvrepError(f"offsets {offsets} outside [0, {h_up - h}] x [0, {w_up - w}]")
    rows = (np.arange(y_off, y_off + h) / scale).astype(np.int64)
    cols = (np.arange(x_off, x_off + w) / scale).astype(np.int64)
    return np.ascontiguousarray(tensor[:, rows[:, None], cols[None, :]])


def make_rng(seed: int) -> np.random.Generator:
    """The named random source: Philox (counter-based) keyed with ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed))


def augment(
    tensor: TensorCHW,
    cfg: AugmentConfig,
    rng: np.random.Generator | None = None,
) -> TensorCHW:
    """Randomly flip and/or resize-crop one tensor (draw order per module docs).

    With no generator supplied a fresh Philox stream is keyed from
    ``cfg.seed``; pass a persistent generator to augment a sample sequence.
    The result may alias the input when neither transform fires.
    """
    if rng is None:
        rng = make_rng(cfg.seed)
    out = tensor
    if rng.random() < cfg.flip_prob:
        out = flip_h(out)
    if rng.random() < cfg.crop_prob:
        _, h, w = out.shape
        max_y = math.floor(cfg.scale * h) - h
        max_x = math.floor(cfg.scale * w) - w
        y_off = int(rng.integers(0, max_y, endpoint=True))
        x_off = int(rng.integers(0, max_x, endpoint=True))
        out = resize_crop(out, cfg.scale, (y_off, x_off))
    return out
