"""Tests for the elementwise/normalisation primitives."""

import numpy as np
import pytest

from repro.transformer.functional import erf, gelu, layer_norm, relu, softmax, tanh_gelu


class TestErfGelu:
    def test_erf_reference_values(self):
        assert erf(np.array(0.0)) == pytest.approx(0.0, abs=1e-6)
        assert erf(np.array(1.0)) == pytest.approx(0.8427, abs=1e-3)
        assert erf(np.array(-1.0)) == pytest.approx(-0.8427, abs=1e-3)
        assert erf(np.array(3.0)) == pytest.approx(1.0, abs=1e-4)

    def test_erf_is_odd(self, rng):
        x = rng.normal(0, 2, 100)
        assert np.allclose(erf(x), -erf(-x), atol=1e-6)

    def test_gelu_reference_values(self):
        assert gelu(np.array(0.0)) == pytest.approx(0.0, abs=1e-6)
        assert gelu(np.array(1.0)) == pytest.approx(0.8413, abs=1e-3)
        assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-4)
        assert gelu(np.array(10.0)) == pytest.approx(10.0, abs=1e-4)

    def test_gelu_close_to_tanh_approximation(self, rng):
        x = rng.normal(0, 2, 200)
        assert np.max(np.abs(gelu(x) - tanh_gelu(x))) < 0.02

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def _textbook_erf(x):
    """The one-expression form ``erf`` evaluated before it went in place."""
    from repro.transformer import functional as f

    x = np.asarray(x)
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + f._ERF_P * ax)
    poly = ((((f._ERF_A5 * t + f._ERF_A4) * t) + f._ERF_A3) * t + f._ERF_A2) * t + f._ERF_A1
    y = 1.0 - poly * t * np.exp(-ax * ax)
    return sign * y


def _textbook_gelu(x):
    x = np.asarray(x)
    return 0.5 * x * (1.0 + _textbook_erf(x / np.sqrt(2.0)))


class TestInPlaceErfGeluBitIdentical:
    """The in-place ``erf``/``gelu`` equal the one-expression form bit for bit.

    ``gelu`` runs over the flattened input in ``_GELU_BLOCK_ELEMENTS``
    blocks: several blocks with a short last one, 3-D, a transposed view,
    rows longer than a block.
    """

    @staticmethod
    def _inputs(dtype):
        from repro.transformer.functional import _GELU_BLOCK_ELEMENTS

        specials = [0.0, -0.0, 1e-30, -40.0, np.inf, -np.inf]
        rng = np.random.default_rng(5)
        dense = rng.normal(0.0, 3.0, (16, 48)).astype(dtype)
        dense.ravel()[:6] = specials
        ragged = rng.normal(0.0, 3.0, (129, 3071)).astype(dtype)
        ragged.ravel()[-6:] = specials
        inputs = {
            "dense": dense,
            "0-d": np.asarray(dtype(-1.3)),
            "empty": np.empty((0, 5), dtype=dtype),
            "strided": dense[::2, 1::3],
            "blocks-ragged": ragged,
            "blocks-3d": ragged[:120].reshape(3, 40, 3071),
            "blocks-transposed-view": ragged.T,
            "rows-longer-than-a-block": ragged.ravel()[: 3 * 40_000].reshape(3, 40_000),
            "empty-wide": np.empty((0, 40_000), dtype=dtype),
        }
        assert ragged.size > 10 * _GELU_BLOCK_ELEMENTS and ragged.size % _GELU_BLOCK_ELEMENTS
        return inputs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "ours, oracle", [(erf, _textbook_erf), (gelu, _textbook_gelu)], ids=["erf", "gelu"]
    )
    def test_matches_the_textbook_form(self, dtype, ours, oracle):
        for name, x in self._inputs(dtype).items():
            before = x.copy()
            with np.errstate(invalid="ignore"):  # gelu(-inf) is -inf * 0
                got, want = ours(x), oracle(x)
            assert np.array_equal(x, before), f"{name}: input mutated"
            assert got.dtype == want.dtype, name
            assert np.shape(got) == np.shape(want), name
            assert np.array_equal(got, want, equal_nan=True), name

    def test_gelu_of_float32_stays_float64(self):
        # The FP goldens and the profiled dictionaries pin this promotion.
        assert gelu(np.ones(3, dtype=np.float32)).dtype == np.float64
        assert erf(np.ones(3, dtype=np.float32)).dtype == np.float32


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(0, 5, (4, 7))
        p = softmax(x, axis=-1)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)

    def test_invariant_to_constant_shift(self, rng):
        x = rng.normal(0, 1, (3, 5))
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_no_overflow_for_large_logits(self):
        p = softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_uniform_for_equal_logits(self):
        p = softmax(np.zeros((1, 8)))
        assert np.allclose(p, 1 / 8)


class TestLayerNorm:
    def test_zero_mean_unit_variance_with_identity_params(self, rng):
        x = rng.normal(3, 5, (6, 32))
        out = layer_norm(x, np.ones(32), np.zeros(32))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gamma_beta_applied(self, rng):
        x = rng.normal(0, 1, (2, 16))
        gamma = np.full(16, 2.0)
        beta = np.full(16, -1.0)
        base = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.allclose(layer_norm(x, gamma, beta), base * 2.0 - 1.0, atol=1e-5)

    def test_constant_rows_do_not_explode(self):
        x = np.full((1, 8), 7.0)
        out = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.isfinite(out).all()
        assert np.allclose(out, 0.0, atol=1e-3)
