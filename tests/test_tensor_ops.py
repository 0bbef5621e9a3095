"""Numeric primitives against independent brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from stitchkit.errors import ConfigError, DimensionError, NumericError
from stitchkit.layers import Conv2d, MaxPool2d
from stitchkit.tensor_ops import (
    adaptive_avg_pool_1x1,
    col2im,
    im2col,
    resize_spatial,
    solve_projection,
)


def naive_conv2d(x, w, b, stride, padding):
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for hi in range(ho):
                for wi in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (
                                    xp[ni, ci, hi * stride + i, wi * stride + j]
                                    * w[oi, ci, i, j]
                                )
                    out[ni, oi, hi, wi] = acc + b[oi]
    return out


def conv2d(x, weight, bias, stride, padding):
    """The library's one conv path, Conv2d.forward, called like the oracle."""
    return Conv2d(weight, bias, stride, padding).forward(x)


class TestConv2d:
    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        out = conv2d(x, w, np.zeros(3), 1, 0)
        assert np.allclose(out, x, atol=1e-14)

    def test_all_ones_kernel_sums_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 1, 3, 3))
        out = conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1), 1, 0)
        assert out.shape == (1, 1, 1, 1)
        assert abs(out[0, 0, 0, 0] - x.sum()) < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_six_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = conv2d(x, w, b, stride, padding)
        want = naive_conv2d(x, w, b, stride, padding)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-10

    def test_output_shape_formula(self):
        x = np.zeros((1, 2, 9, 7))
        w = np.zeros((5, 2, 3, 3))
        out = conv2d(x, w, np.zeros(5), 2, 1)
        assert out.shape == (1, 5, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1), 1, 0)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)), np.zeros(1), 1, 0)


def padded_im2col(x, kh, kw, stride, padding):
    """Patch matrix from an np.pad copy, one strided slice per tap."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c = x.shape[:2]
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    cols = np.empty((c, kh, kw, n, ho, wo))
    for i in range(kh):
        for j in range(kw):
            tap = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            cols[:, i, j] = tap.transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, n * ho * wo)


def scatter_col2im(dcols, x_shape, kh, kw, stride, padding):
    """np.add.at of every patch entry onto a padded grid, taps outermost."""
    n, c, h, w = x_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    i, j, ni, ci, r, q = np.indices((kh, kw, n, c, ho, wo))
    vals = dcols.reshape(n, ho, wo, c, kh, kw).transpose(4, 5, 0, 3, 1, 2)
    gp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    np.add.at(gp, (ni, ci, i + stride * r, j + stride * q), vals)
    return gp[:, :, padding : padding + h, padding : padding + w]


# (kh, kw, stride, padding, H, W): every stride/padding/kernel pairing on an
# odd grid, then 5x5 kernels on 1x1 and 2x2 inputs whose taps can read only
# padding
TAP_CASES = [
    (kh, kw, s, p, 7, 9)
    for kh, kw in [(1, 1), (2, 3), (3, 3), (5, 5)]
    for s in (1, 2, 3)
    for p in (0, 1, 2)
] + [(5, 5, s, 2, hw, hw) for hw in (1, 2) for s in (1, 2, 3)]


class TestTapSpans:
    @pytest.mark.parametrize("kh,kw,stride,padding,h,w", TAP_CASES)
    def test_bit_identical_to_padded_references(self, kh, kw, stride, padding, h, w):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 3, h, w))
        cols, (ho, wo) = im2col(x, kh, kw, stride, padding)
        assert cols.tobytes() == padded_im2col(x, kh, kw, stride, padding).tobytes()
        dcols = rng.normal(size=(2 * ho * wo, 3 * kh * kw))
        gx = col2im(dcols, x.shape, kh, kw, stride, padding)
        want = scatter_col2im(dcols, x.shape, kh, kw, stride, padding)
        assert gx.flags.c_contiguous
        assert gx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 2), (3, 1)])
    def test_conv_never_pads(self, stride, padding, monkeypatch):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)

        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad called")

        monkeypatch.setattr(np, "pad", no_pad)
        layer = Conv2d(w, b, stride, padding)
        out, cache = layer.forward_cache(x)
        assert out.tobytes() == layer.forward(x).tobytes()
        gx, grads = layer.backward(np.ones_like(out), cache)
        assert gx.shape == x.shape and grads["weight"].shape == w.shape
        monkeypatch.undo()
        assert np.abs(out - naive_conv2d(x, w, b, stride, padding)).max() < 1e-10


def window_argmax_maxpool(x, k, stride):
    """Max-pool through whole windows: argmax (first max wins), then gather."""
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, ho, wo = win.shape[:4]
    flat = win.reshape(n, c, ho, wo, k * k)
    arg = flat.argmax(axis=4)
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    return out, arg


def scatter_maxpool_backward(grad, arg, x_shape, k, stride):
    """Route each output gradient to its window's argmax cell with np.add.at."""
    gx = np.zeros(x_shape)
    ni, ci, hi, wi = np.indices(arg.shape)
    np.add.at(gx, (ni, ci, hi * stride + arg // k, wi * stride + arg % k), grad)
    return gx


# (k, stride, H, W): k == stride, odd H/W with leftover rows and columns,
# k < stride (cells no window reads), and overlapping windows
POOL_CASES = [(2, 2, 8, 8), (2, 2, 7, 9), (3, 3, 10, 11), (2, 3, 8, 7), (3, 1, 6, 6), (3, 2, 7, 8)]


class TestMaxPool2d:
    @pytest.mark.parametrize("method", ["forward", "forward_cache"])
    def test_3d_input_raises_dimension_error(self, method):
        with pytest.raises(DimensionError, match=r"maxpool expects 4-D input, got \(2, 4, 4\)"):
            getattr(MaxPool2d(2, 2, "p"), method)(np.zeros((2, 4, 4)))

    @pytest.mark.parametrize("method", ["forward", "forward_cache"])
    def test_window_larger_than_input_raises(self, method):
        with pytest.raises(DimensionError, match="output collapses"):
            getattr(MaxPool2d(3, 1, "p"), method)(np.zeros((1, 1, 2, 5)))

    @staticmethod
    def _inputs(rng, shape):
        # post-ReLU: many exact 0.0 ties
        relu = np.maximum(rng.normal(size=shape), 0.0)
        # signed zeros: windows whose maximum is a 0.0 / -0.0 tie
        zeros = rng.choice([-1.0, -0.0, 0.0], size=shape)
        # small integers: ties among equal nonzero values
        ints = rng.integers(0, 3, size=shape).astype(np.float64)
        return {"relu": relu, "signed_zeros": zeros, "ints": ints}

    @pytest.mark.parametrize("k,stride,h,w", POOL_CASES)
    def test_bit_identical_to_window_argmax_reference(self, k, stride, h, w):
        rng = np.random.default_rng(19)
        layer = MaxPool2d(k, stride, "p")
        for name, x in self._inputs(rng, (3, 2, h, w)).items():
            want, arg = window_argmax_maxpool(x, k, stride)
            out, cache = layer.forward_cache(x)
            assert layer.forward(x).tobytes() == want.tobytes(), name
            assert out.tobytes() == want.tobytes(), name
            # gradients with -0.0 entries, including at argmax cells
            grad = np.where(
                rng.random(want.shape) < 0.3,
                -0.0,
                rng.choice([0.0, 1.5, -2.25], size=want.shape) + rng.normal(size=want.shape),
            )
            gx, grads = layer.backward(grad, cache)
            assert grads == {}
            ref = scatter_maxpool_backward(grad, arg, x.shape, k, stride)
            assert gx.tobytes() == ref.tobytes(), name


class TestAdaptiveAvgPool:
    def test_constant_plane(self):
        x = np.full((1, 2, 4, 4), 3.25)
        out = adaptive_avg_pool_1x1(x)
        assert out.shape == (1, 2, 1, 1)
        assert np.all(out == 3.25)

    def test_2x2_plane(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        assert adaptive_avg_pool_1x1(x)[0, 0, 0, 0] == 2.5

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4, 5, 7))
        out = adaptive_avg_pool_1x1(x)
        for n in range(3):
            for c in range(4):
                assert abs(out[n, c, 0, 0] - x[n, c].mean()) < 1e-12


class TestResizeSpatial:
    def test_same_size_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 4, 4))
        assert np.array_equal(resize_spatial(x, 4, 4), x)

    def test_downsample_constant(self):
        x = np.full((1, 1, 4, 4), 1.5)
        out = resize_spatial(x, 2, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.all(out == 1.5)

    def test_upsample_nearest_block_structure(self):
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        out = resize_spatial(x, 4, 4)
        # explicit index-map oracle: out[i, j] = x[i * 2 // 4, j * 2 // 4]
        want = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                want[i, j] = x[0, 0, i * 2 // 4, j * 2 // 4]
        assert np.array_equal(out[0, 0], want)

    def test_downsample_matches_bin_mean_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 6, 8))
        out = resize_spatial(x, 3, 4)
        for i in range(3):
            for j in range(4):
                want = x[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean(axis=(2, 3))
                assert np.abs(out[:, :, i, j] - want).max() < 1e-12

    @given(
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        factor=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_even_downsample_preserves_global_mean(self, h, w, factor, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, h * factor, w * factor))
        out = resize_spatial(x, h, w)
        assert abs(out.mean() - x.mean()) < 1e-12

    def test_mixed_axes(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 1, 4, 2))
        out = resize_spatial(x, 2, 4)
        assert out.shape == (1, 1, 2, 4)


class TestSolveProjection:
    def test_identity_input_returns_y(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(3, 4))
        a = solve_projection(np.eye(4), y, ridge=0.0)
        assert np.abs(a - y).max() < 1e-10

    def test_recovers_planted_matrix(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 20))
        b = rng.normal(size=(3, 4))
        a = solve_projection(x, b @ x, ridge=0.0)
        assert np.abs(a - b).max() < 1e-8

    def test_residual_beats_perturbations(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 20))
        y = rng.normal(size=(3, 20))
        a = solve_projection(x, y, ridge=0.0)
        base = np.linalg.norm(y - a @ x)
        for _ in range(1000):
            delta = rng.normal(scale=1e-3, size=a.shape)
            assert base <= np.linalg.norm(y - (a + delta) @ x) + 1e-12

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 30))
        y = rng.normal(size=(4, 30))
        a = solve_projection(x, y, ridge=0.0)
        assert np.abs(x @ (y - a @ x).T).max() < 1e-8

    def test_min_norm_fallback_on_singular_gram(self):
        rng = np.random.default_rng(14)
        # p=6 features from rank-3 structure: X X^T singular
        basis = rng.normal(size=(6, 3))
        x = basis @ rng.normal(size=(3, 10))
        y = rng.normal(size=(2, 10))
        a = solve_projection(x, y, ridge=0.0)
        assert np.all(np.isfinite(a))
        # least-squares optimality still holds on the span
        assert np.abs(x @ (y - a @ x).T).max() < 1e-8

    def test_default_ridge_close_to_exact_on_well_conditioned(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4, 40))
        b = rng.normal(size=(3, 4))
        a = solve_projection(x, b @ x)  # ridge=None -> automatic default
        assert np.abs(a - b).max() < 1e-5

    def test_sample_count_mismatch(self):
        with pytest.raises(DimensionError):
            solve_projection(np.ones((2, 5)), np.ones((2, 6)), ridge=0.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ConfigError):
            solve_projection(np.ones((2, 5)), np.ones((2, 5)), ridge=-1.0)

    def test_nonfinite_rejected(self):
        x = np.ones((2, 5))
        y = np.ones((2, 5))
        y[0, 0] = np.inf
        with pytest.raises(NumericError):
            solve_projection(x, y, ridge=0.0)

