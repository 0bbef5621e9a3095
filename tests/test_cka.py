"""Similarity scoring against independent oracle formulations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stitchkit.cka import (
    _GRAM_SAMPLE_LIMIT,
    ActivationMatrix,
    _hsic_terms,
    cka_from_sides,
    cka_linear,
    cka_side,
    cka_minibatch,
    flatten_activations,
    hsic,
)
from stitchkit.errors import DegenerateActivationsError, DimensionError


def hsic_double_loop(k, m):
    """Literal tr(K H M H) / (n-1)^2 with explicit loops and H built by hand."""
    n = k.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    prod = np.zeros((n, n))
    khmh = k @ h @ m @ h
    trace = 0.0
    for i in range(n):
        trace += khmh[i, i]
    return trace / (n - 1) ** 2


def cka_covariance_form(x, y):
    """Cross-covariance Frobenius form: the normalized ||cov||_F^2 ratio.

    Centering each feature across samples makes (1/(n-1)) Xc Yc^T the
    cross-covariance matrix; the (n-1)^2 factors cancel in the ratio.
    """
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    num = np.linalg.norm(xc @ yc.T) ** 2
    den = np.linalg.norm(xc @ xc.T) * np.linalg.norm(yc @ yc.T)
    return num / den


class TestHsic:
    def test_constant_vector_gram_is_zero(self):
        v = np.full((1, 8), 2.0)
        k = v.T @ v
        assert hsic(k, k) == 0.0

    def test_nonnegative_on_psd_pairs(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 12))
        k = x.T @ x
        assert hsic(k, k) >= -1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 16))
        y = rng.normal(size=(4, 16))
        k, m = x.T @ x, y.T @ y
        assert abs(hsic(k, m) - hsic_double_loop(k, m)) < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            hsic(np.eye(4), np.eye(5))

    def test_asymmetry_rejected(self):
        k = np.eye(4)
        k[0, 1] = 0.5
        with pytest.raises(DimensionError):
            hsic(k, np.eye(4))


class TestCkaLinear:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 32))
        assert abs(cka_linear(x, x) - 1.0) < 1e-9

    def test_invariant_to_orthogonal_transform_and_scale(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 32))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        y = 3.7 * q @ x
        assert abs(cka_linear(x, y) - 1.0) < 1e-8

    def test_independent_inputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 32))
        y = rng.normal(size=(5, 32))
        val = cka_linear(x, y)
        assert 0.0 < val < 1.0

    def test_matches_covariance_form_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 32))
        y = rng.normal(size=(5, 32))
        got = cka_linear(x, y)
        want = cka_covariance_form(x, y)
        assert abs(got - want) / want < 1e-8

    def test_covariance_form_agreement_battery(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(4, 65))
            p = int(rng.integers(1, 33))
            q = int(rng.integers(1, 33))
            x = rng.normal(size=(p, n))
            y = rng.normal(size=(q, n))
            got = cka_linear(x, y)
            want = cka_covariance_form(x, y)
            assert abs(got - want) / max(want, 1e-30) < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 20))
        y = rng.normal(size=(9, 20))
        assert abs(cka_linear(x, y) - cka_linear(y, x)) < 1e-12

    def test_constant_input_degenerate(self):
        x = np.full((3, 10), 1.0)
        y = np.random.default_rng(8).normal(size=(3, 10))
        with pytest.raises(DegenerateActivationsError):
            cka_linear(x, y)

    def test_sample_count_mismatch(self):
        with pytest.raises(DimensionError):
            cka_linear(np.ones((2, 5)), np.ones((2, 6)))

    @given(
        p=st.integers(1, 10),
        q=st.integers(1, 10),
        n=st.integers(3, 24),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_symmetry_properties(self, p, q, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(p, n))
        y = rng.normal(size=(q, n))
        val = cka_linear(x, y)
        assert -1e-9 <= val <= 1.0 + 1e-9
        assert abs(val - cka_linear(y, x)) < 1e-12


class TestLargeSamplePath:
    def test_feature_space_path_equals_gram_path(self):
        # above the Gram cutoff the same value must come out of the
        # feature-space evaluation
        from stitchkit import cka as cka_mod

        rng = np.random.default_rng(20)
        x = rng.normal(size=(6, 500))
        y = rng.normal(size=(4, 500)) + 0.3 * x[:4]
        fast = cka_linear(x, y)
        old = cka_mod._GRAM_SAMPLE_LIMIT
        try:
            cka_mod._GRAM_SAMPLE_LIMIT = 10**9
            slow = cka_linear(x, y)
        finally:
            cka_mod._GRAM_SAMPLE_LIMIT = old
        assert abs(fast - slow) < 1e-12

    def test_degenerate_detected_on_feature_path(self):
        x = np.full((3, 500), 2.0)
        y = np.random.default_rng(21).normal(size=(3, 500))
        with pytest.raises(DegenerateActivationsError):
            cka_linear(x, y)


class TestCkaMinibatch:
    def test_single_batch_equals_full_bitwise(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 24))
        y = rng.normal(size=(4, 24))
        assert cka_minibatch([x], [y]) == cka_linear(x, y)

    def test_identical_batches_give_one(self):
        rng = np.random.default_rng(10)
        batches = [rng.normal(size=(5, 8)) for _ in range(3)]
        assert abs(cka_minibatch(batches, batches) - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_four_batches_close_to_full(self, seed):
        # decaying spectrum, the regime the estimator is used in; on white
        # noise the small-batch bias alone exceeds this tolerance
        rng = np.random.default_rng(seed)
        scales = 2.0 ** -np.arange(7)
        x = scales[:, None] * rng.normal(size=(7, 64))
        y = rng.normal(size=(5, 7)) @ x + 0.1 * rng.normal(size=(5, 64))
        full = cka_linear(x, y)
        xb = [x[:, i * 16 : (i + 1) * 16] for i in range(4)]
        yb = [y[:, i * 16 : (i + 1) * 16] for i in range(4)]
        approx = cka_minibatch(xb, yb)
        assert abs(approx - full) < 0.05

    def test_mismatched_partitions(self):
        x = np.random.default_rng(12).normal(size=(3, 8))
        with pytest.raises(DimensionError):
            cka_minibatch([x], [x, x])
        with pytest.raises(DimensionError):
            cka_minibatch([x[:, :4]], [x[:, :6]])


class TestActivationMatrix:
    def test_flatten_batch_first(self):
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(6, 2, 3, 3))
        am = flatten_activations(batch, "frag")
        assert am.values.shape == (18, 6)
        assert am.fragment_id == "frag"
        assert np.array_equal(am.values[:, 0], batch[0].ravel())

    def test_requires_two_samples(self):
        with pytest.raises(DimensionError):
            ActivationMatrix(np.ones((3, 1)))


class TestUnitRange:
    """Rounding used to carry identical inputs a few ulps past 1."""

    @pytest.mark.parametrize("seed", [1, 3, 9, 11, 13])
    def test_self_cka_is_exactly_one(self, seed):
        # more than 256 samples: the feature-space form of the HSIC terms
        x = np.random.default_rng(seed).standard_normal((6, 300))
        num, kk, mm = _hsic_terms(ActivationMatrix(x), ActivationMatrix(x))
        assert num / np.sqrt(kk * mm) > 1.0  # the unclamped ratio
        assert cka_linear(x, x) == 1.0

    def test_minibatch_scaled_copy_is_exactly_one(self):
        rng = np.random.default_rng(4)
        xs = [rng.normal(size=(5, 8)) for _ in range(3)]
        ys = [3.0 * x for x in xs]
        terms = [(hsic(x.T @ x, y.T @ y), hsic(x.T @ x, x.T @ x), hsic(y.T @ y, y.T @ y)) for x, y in zip(xs, ys)]
        num, kk, mm = (np.mean(t) for t in zip(*terms))
        assert num / np.sqrt(kk * mm) > 1.0  # the unclamped ratio
        assert cka_minibatch(xs, ys) == 1.0


class TestCkaSides:
    """cka_from_sides(cka_side(x), cka_side(y)) is cka_linear(x, y), bit for bit."""

    SAMPLE_COUNTS = [32, 128, _GRAM_SAMPLE_LIMIT, _GRAM_SAMPLE_LIMIT + 1, 600]

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_cka_linear_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(7, n))
        y = rng.normal(size=(5, n)) + 0.4 * x[:5]
        assert cka_from_sides(cka_side(x), cka_side(y)) == cka_linear(x, y)
        assert cka_from_sides(cka_side(y), cka_side(x)) == cka_linear(y, x)
        assert cka_from_sides(cka_side(x), cka_side(x)) == cka_linear(x, x)

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    def test_rank_deficient_operand_bitwise(self, n):
        # 12 features spanned by 2 directions; a ReLU-dead row on the other side
        rng = np.random.default_rng(n)
        x = rng.normal(size=(12, 2)) @ rng.normal(size=(2, n))
        y = np.maximum(rng.normal(size=(6, n)) + 0.5 * x[:6], 0.0)
        y[3] = 0.0
        assert cka_from_sides(cka_side(x), cka_side(y)) == cka_linear(x, y)

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    def test_one_side_serves_many_pairings(self, n):
        rng = np.random.default_rng(40 + n)
        x = rng.normal(size=(4, n))
        side = cka_side(x)
        for _ in range(3):
            y = rng.normal(size=(3, n)) + rng.normal() * x[:3]
            assert cka_from_sides(side, cka_side(y)) == cka_linear(x, y)

    def test_form_follows_the_sample_limit(self):
        rng = np.random.default_rng(5)
        gram = cka_side(rng.normal(size=(3, _GRAM_SAMPLE_LIMIT)))
        feats = cka_side(rng.normal(size=(3, _GRAM_SAMPLE_LIMIT + 1)))
        assert gram.is_gram and gram.centred.shape == (_GRAM_SAMPLE_LIMIT,) * 2
        assert not feats.is_gram and feats.centred.shape == (3, _GRAM_SAMPLE_LIMIT + 1)

    @pytest.mark.parametrize("n", [32, _GRAM_SAMPLE_LIMIT + 1])
    def test_constant_side_degenerate_like_cka_linear(self, n):
        x = np.full((3, n), 1.5)
        y = np.random.default_rng(8).normal(size=(3, n))
        with pytest.raises(DegenerateActivationsError) as want:
            cka_linear(x, y)
        for a, b in ((x, y), (y, x)):
            with pytest.raises(DegenerateActivationsError) as got:
                cka_from_sides(cka_side(a), cka_side(b))
            assert str(got.value) == str(want.value)

    def test_sample_count_mismatch(self):
        with pytest.raises(DimensionError):
            cka_from_sides(cka_side(np.ones((2, 5)) + np.eye(2, 5)), cka_side(np.eye(2, 6)))
