import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrep.augment import AugmentConfig, augment, flip_h, make_rng, resize_crop
from evrep.errors import EvrepError, InvalidParamError


def _tensor(rng, c=3, h=4, w=5):
    return rng.random((c, h, w)).astype(np.float32)


class TestFlip:
    def test_two_pixel_mirror(self):
        t = np.array([[[1.0, 2.0]]], dtype=np.float32)
        assert np.array_equal(flip_h(t), np.array([[[2.0, 1.0]]], dtype=np.float32))

    def test_involution_bitwise(self, rng):
        t = _tensor(rng)
        assert np.array_equal(flip_h(flip_h(t)), t)

    def test_mass_preserved(self, rng):
        # a flip is a permutation: same value multiset, so the exact sum matches
        t = _tensor(rng, 4, 7, 9)
        f = flip_h(t)
        assert math.fsum(f.ravel().tolist()) == math.fsum(t.ravel().tolist())
        assert np.array_equal(np.sort(f.ravel()), np.sort(t.ravel()))

    def test_index_formula(self, rng):
        t = _tensor(rng)
        f = flip_h(t)
        _, _, w = t.shape
        for x in range(w):
            assert np.array_equal(f[:, :, x], t[:, :, w - x - 1])


class TestResizeCrop:
    def test_identity_at_unit_scale(self, rng):
        t = _tensor(rng)
        assert np.array_equal(resize_crop(t, 1.0, (0, 0)), t)

    def test_two_by_two_expansion(self):
        t = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
        # upsample to 3x3: source rows/cols [0, 0, 1]; crop (0,0) keeps rows [0, 0]
        out = resize_crop(t, 1.5, (0, 0))
        expected = np.array([[[0.0, 0.0], [0.0, 0.0]]], dtype=np.float32)
        assert np.array_equal(out, expected)

    def test_offset_shifts_window(self):
        t = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
        out = resize_crop(t, 1.5, (1, 1))
        # upsampled rows [0,0,1]; window rows 1..2 -> sources [0, 1]
        expected = np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=np.float32)
        assert np.array_equal(out, expected)

    def test_offsets_validated(self, rng):
        t = _tensor(rng, 1, 2, 2)
        with pytest.raises(EvrepError, match=r"^offsets \(2, 0\) outside \[0, 1\] x \[0, 1\]$"):
            resize_crop(t, 1.5, (2, 0))
        with pytest.raises(EvrepError, match=r"^offsets \(0, 1\) outside \[0, 0\] x \[0, 0\]$"):
            resize_crop(t, 1.0, (0, 1))

    def test_no_new_values(self, rng):
        t = _tensor(rng, 2, 5, 6)
        out = resize_crop(t, 1.7, (1, 2))
        assert set(np.unique(out)) <= set(np.unique(t))

    def test_output_keeps_input_dims(self, rng):
        t = _tensor(rng, 2, 5, 6)
        assert resize_crop(t, 2.3, (3, 4)).shape == t.shape

    @given(st.floats(1.0, 3.0), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_membership_property(self, scale, seed):
        rng = np.random.default_rng(seed)
        t = rng.random((1, 3, 4)).astype(np.float32)
        max_y = int(scale * 3) - 3
        max_x = int(scale * 4) - 4
        out = resize_crop(t, scale, (max_y, max_x))
        assert set(np.unique(out)) <= set(np.unique(t))


class TestAugment:
    def test_degenerate_config_is_identity(self, rng):
        t = _tensor(rng)
        cfg = AugmentConfig(flip_prob=0.0, crop_prob=0.0, seed=9)
        assert np.array_equal(augment(t, cfg), t)

    def test_seeded_determinism(self, rng):
        t = _tensor(rng, 2, 8, 8)
        cfg = AugmentConfig(seed=1234)
        a = augment(t, cfg)
        b = augment(t, cfg)
        assert np.array_equal(a, b)

    def test_distinct_seeds_vary(self, rng):
        t = _tensor(rng, 2, 8, 8)
        outs = [augment(t, AugmentConfig(seed=s)).tobytes() for s in range(20)]
        assert len(set(outs)) > 1

    def test_flip_frequency_near_half(self, rng):
        # p2 = 0 isolates the flip decision; an asymmetric tensor reveals it
        t = np.zeros((1, 1, 3), dtype=np.float32)
        t[0, 0, 0] = 1.0
        cfg = AugmentConfig(flip_prob=0.5, crop_prob=0.0, seed=77)
        gen = make_rng(cfg.seed)
        flips = sum(
            not np.array_equal(augment(t, cfg, rng=gen), t) for _ in range(10_000)
        )
        assert 0.48 <= flips / 10_000 <= 0.52

    def test_config_domain(self):
        with pytest.raises(InvalidParamError):
            AugmentConfig(flip_prob=1.5)
        with pytest.raises(InvalidParamError):
            AugmentConfig(scale=0.5)
        for scale in (math.nan, math.inf):
            with pytest.raises(InvalidParamError):
                AugmentConfig(scale=scale)
            with pytest.raises(InvalidParamError):
                resize_crop(np.zeros((1, 2, 2), dtype=np.float32), scale, (0, 0))
