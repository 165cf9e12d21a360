"""Unit tests for quantizers and threshold folding."""

import numpy as np
import pytest

from repro.quantization import (
    BatchNormParams,
    SignQuantizer,
    ThresholdUnit,
    UniformQuantizer,
    fold_batchnorm,
    fold_batchnorm_sign,
)

RNG = np.random.default_rng(3)


class TestSignQuantizer:
    def test_values(self):
        q = SignQuantizer()
        assert (q.quantize(np.array([-0.5, 0.0, 2.0])) == [-1, 1, 1]).all()

    def test_bits_and_levels(self):
        q = SignQuantizer()
        assert q.bits == 1 and q.levels == 2

    def test_dequantize_identity(self):
        q = SignQuantizer()
        assert (q.dequantize(np.array([-1, 1])) == [-1.0, 1.0]).all()


class TestUniformQuantizer:
    def test_level_count(self):
        assert UniformQuantizer(bits=2).levels == 4
        assert UniformQuantizer(bits=3).levels == 8

    def test_quantize_level_basics(self):
        q = UniformQuantizer(bits=2, lo=0.0, d=0.5)
        x = np.array([-1.0, 0.0, 0.49, 0.5, 1.2, 1.99, 2.5])
        assert q.quantize_level(x).tolist() == [0, 0, 0, 1, 2, 3, 3]

    def test_clamping(self):
        q = UniformQuantizer(bits=1, lo=0.0, d=1.0)
        assert q.quantize_level(np.array([-100.0, 100.0])).tolist() == [0, 1]

    def test_dequantize_midpoint(self):
        q = UniformQuantizer(bits=2, lo=0.0, d=0.5, midpoint=True)
        assert q.dequantize(np.array([0, 3])).tolist() == [0.25, 1.75]

    def test_dequantize_left_edge(self):
        q = UniformQuantizer(bits=2, lo=0.0, d=0.5, midpoint=False)
        assert q.dequantize(np.array([0, 3])).tolist() == [0.0, 1.5]

    def test_boundaries(self):
        q = UniformQuantizer(bits=2, lo=1.0, d=0.5)
        assert q.boundaries().tolist() == [1.5, 2.0, 2.5]

    def test_hi(self):
        q = UniformQuantizer(bits=2, lo=0.0, d=0.25)
        assert q.hi == 1.0

    def test_quantize_is_idempotent(self):
        q = UniformQuantizer(bits=2, lo=0.0, d=0.5)
        x = RNG.normal(0, 2, size=100)
        once = q.quantize(x)
        assert np.allclose(q.quantize(once), once)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UniformQuantizer(bits=0)
        with pytest.raises(ValueError):
            UniformQuantizer(bits=2, d=0.0)

    def test_nonzero_lo(self):
        q = UniformQuantizer(bits=1, lo=-1.0, d=1.0)
        assert q.quantize_level(np.array([-0.5, 0.5])).tolist() == [0, 1]


def random_bn(channels, rng, gamma_sign=None):
    gamma = rng.uniform(0.3, 2.0, channels)
    if gamma_sign is not None:
        gamma = gamma * gamma_sign
    else:
        gamma = gamma * rng.choice([-1.0, 1.0], channels)
    return BatchNormParams.from_moments(
        gamma=gamma,
        beta=rng.normal(0, 1, channels),
        running_mean=rng.normal(0, 2, channels),
        running_var=rng.uniform(0.2, 3.0, channels),
    )


class TestBatchNormParams:
    def test_apply_matches_formula(self):
        p = random_bn(4, RNG)
        a = RNG.normal(0, 2, size=(10, 4))
        expected = p.gamma * (a - p.mu) * p.inv_std + p.beta
        assert np.allclose(p.apply(a), expected)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BatchNormParams(np.ones(3), np.ones(2), np.ones(3), np.ones(3))

    def test_channel_axis(self):
        p = random_bn(5, RNG)
        a = RNG.normal(0, 1, size=(5, 7))
        moved = p.apply(a, channel_axis=0)
        assert np.allclose(moved, p.apply(a.T).T)

    def test_from_moments_inv_std(self):
        p = BatchNormParams.from_moments(np.ones(2), np.zeros(2), np.zeros(2), np.array([3.0, 8.0]), eps=1.0)
        assert np.allclose(p.inv_std, [0.5, 1.0 / 3.0])


class TestFoldBatchnorm:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    @pytest.mark.parametrize("gamma_sign", [1.0, -1.0, None])
    def test_matches_reference(self, bits, gamma_sign):
        rng = np.random.default_rng(bits * 10 + 1)
        p = random_bn(6, rng, gamma_sign)
        q = UniformQuantizer(bits=bits, lo=0.0, d=0.7)
        unit = fold_batchnorm(p, q)
        a = rng.normal(0, 4, size=(50, 6))
        assert (unit.apply(a) == q.quantize_level(p.apply(a))).all()

    def test_nonzero_lo_anchor(self):
        rng = np.random.default_rng(5)
        p = random_bn(4, rng)
        q = UniformQuantizer(bits=2, lo=-1.0, d=0.5)
        unit = fold_batchnorm(p, q)
        a = rng.normal(0, 3, size=(40, 4))
        assert (unit.apply(a) == q.quantize_level(p.apply(a))).all()

    def test_zero_slope_constant_level(self):
        p = BatchNormParams(
            gamma=np.array([0.0]), mu=np.array([1.0]), inv_std=np.array([1.0]), beta=np.array([1.2])
        )
        q = UniformQuantizer(bits=2, lo=0.0, d=0.5)
        unit = fold_batchnorm(p, q)
        a = np.linspace(-5, 5, 11)[:, None]
        expected = q.quantize_level(np.full_like(a, 1.2))
        assert (unit.apply(a) == expected).all()

    def test_two_parameters_suffice(self):
        """The paper's claim: τ and d/(γ·i) generate all endpoints."""
        rng = np.random.default_rng(7)
        p = random_bn(3, rng, gamma_sign=1.0)
        q = UniformQuantizer(bits=2, lo=0.0, d=0.5)
        unit = fold_batchnorm(p, q)
        ends = unit.endpoints()
        alphas = np.arange(1, 4)
        manual = unit.tau[:, None] + alphas[None, :] * unit.step[:, None]
        assert np.allclose(ends, manual)

    def test_endpoint_count(self):
        rng = np.random.default_rng(8)
        unit = fold_batchnorm(random_bn(2, rng), UniformQuantizer(bits=4, d=0.3))
        assert unit.endpoints().shape == (2, 15)


class TestFoldSign:
    def test_matches_sign_of_batchnorm(self):
        rng = np.random.default_rng(9)
        p = random_bn(6, rng)
        unit = fold_batchnorm_sign(p)
        a = rng.normal(0, 4, size=(60, 6))
        expected = (p.apply(a) >= 0).astype(np.int64)
        assert (unit.apply(a) == expected).all()

    def test_zero_slope(self):
        p = BatchNormParams(
            gamma=np.array([0.0, 0.0]),
            mu=np.zeros(2),
            inv_std=np.ones(2),
            beta=np.array([-1.0, 1.0]),
        )
        unit = fold_batchnorm_sign(p)
        a = np.zeros((3, 2))
        assert (unit.apply(a) == [0, 1]).all()

    def test_is_one_bit(self):
        rng = np.random.default_rng(10)
        assert fold_batchnorm_sign(random_bn(2, rng)).bits == 1


class TestCacheWords:
    def test_roundtrip_float32(self):
        rng = np.random.default_rng(11)
        p = random_bn(16, rng)
        q = UniformQuantizer(bits=2, lo=0.0, d=0.5)
        unit = fold_batchnorm(p, q)
        words = unit.cache_words()
        assert words.dtype == np.uint64 and words.shape == (16,)
        rebuilt = ThresholdUnit.from_cache_words(words, bits=2)
        assert np.allclose(rebuilt.tau, unit.tau.astype(np.float32))
        assert np.allclose(rebuilt.step, unit.step.astype(np.float32))

    def test_one_word_per_channel(self):
        """§III-B3: the normalization cache has O entries of 64 bits."""
        rng = np.random.default_rng(12)
        unit = fold_batchnorm(random_bn(7, rng), UniformQuantizer(bits=2, d=0.5))
        assert unit.cache_words().nbytes == 7 * 8
