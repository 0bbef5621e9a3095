"""Dense float64 array primitives underlying the whole library.

Everything operates on C-contiguous float64 ndarrays and is pure: identical
inputs give bit-identical outputs, and no function mutates its arguments.
Analysis matrices follow the features-by-samples orientation; batched
activations are samples-first and get transposed at the analysis boundary.

Data is checked by as_tensor (float64, C-contiguous, finite) once where it
enters: in the loaders and Dataset, at the batch of network.forward,
forward_taps and PrefixTree.forward, and in the arguments of
solve_projection, prepare_joint, stitch, fuse_*, cka_side, cka_linear and
apply_label_map. Results are checked once as they leave a forward loop.
Everything else, the layer forwards among them, takes float64 ndarrays
unchecked.
"""

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

# Relative scale of the automatic Tikhonov term guarding near-singular Gram
# matrices in solve_projection (small sample counts make them rank-deficient).
DEFAULT_RIDGE_SCALE = 1e-8


def as_tensor(x, name="tensor"):
    """Coerce to a C-contiguous float64 array, rejecting NaN/Inf."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")
    return arr


def _tap_span(offset, stride, padding, size, out):
    """Along one axis, the outputs r < out whose input offset + stride*r -
    padding lies in [0, size): (output slice, input slice), both maybe empty."""
    lo = max(0, -((offset - padding) // stride))
    hi = max(lo, min(out, (size - 1 + padding - offset) // stride + 1))
    start = offset + stride * lo - padding
    return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)


def _tap_spans(kh, kw, stride, padding, h, w, ho, wo):
    """Per kernel tap, in order i*kw + j: (out rows, in rows, out cols, in cols)."""
    rows = [_tap_span(i, stride, padding, h, ho) for i in range(kh)]
    cols = [_tap_span(j, stride, padding, w, wo) for j in range(kw)]
    return [r + c for r in rows for c in cols]


def tap_views(x, kh, kw, stride, ho, wo):
    """The kh*kw strided views of an NCHW array, one per kernel tap.

    View i*kw + j is x[:, :, i + stride*r, j + stride*c] for r < ho,
    c < wo: the input each output cell reads at tap (i, j). Writing to a
    view writes to x.
    """
    spans = _tap_spans(kh, kw, stride, 0, *x.shape[2:], ho, wo)
    return [x[:, :, ri, ci] for _, ri, _, ci in spans]


def im2col(x, kh, kw, stride, padding):
    """Unfold an NCHW batch into a [C*kh*kw, N*Ho*Wo] patch matrix.

    Rows are ordered (c, i, j), matching weight.reshape(O, -1); columns
    are ordered (n, ho, wo). Each kernel tap copies the in-bounds
    sub-rectangle it reads; entries that read padding stay 0.0.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {hp}x{wp}"
        )
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    # without padding every tap covers all of its (ho, wo) columns
    cols = (np.zeros if padding else np.empty)((c, kh * kw, n, ho, wo))
    for t, (ro, ri, co, ci) in enumerate(_tap_spans(kh, kw, stride, padding, h, w, ho, wo)):
        cols[:, t, :, ro, co] = x[:, :, ri, ci].transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, n * ho * wo), (ho, wo)


def col2im(cols, x_shape, kh, kw, stride, padding):
    """Scatter-add a [N*Ho*Wo, C*kh*kw] patch matrix back onto the input grid.

    Taps add onto an unpadded NHWC grid in order i*kw + j, each onto the
    cells it reads, so every cell sums the same values in the same order
    as on a padded grid.
    """
    n, c, h, w = x_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    patches = cols.reshape(n, ho, wo, c, kh * kw)
    grid = np.zeros((n, h, w, c))
    for t, (ro, ri, co, ci) in enumerate(_tap_spans(kh, kw, stride, padding, h, w, ho, wo)):
        grid[:, ri, ci] += patches[:, ro, co, :, t]
    return np.ascontiguousarray(grid.transpose(0, 3, 1, 2))


def adaptive_avg_pool_1x1(x):
    """Mean over each HxW spatial plane: [N,C,H,W] -> [N,C,1,1]."""
    if x.ndim != 4:
        raise DimensionError(f"adaptive_avg_pool_1x1 expects 4-D input, got {x.shape}")
    return x.mean(axis=(2, 3), keepdims=True)


def _pool_bins(size, target):
    # Adaptive bins: bin i covers [floor(i*size/t), ceil((i+1)*size/t))
    starts = (np.arange(target) * size) // target
    ends = -((-(np.arange(target) + 1) * size) // target)
    return starts, ends


def _resize_axis(x, axis, target):
    size = x.shape[axis]
    if target == size:
        return x
    if target < size:
        # downsample: adaptive average pooling over computed bins
        starts, ends = _pool_bins(size, target)
        pieces = [
            x.take(range(starts[i], ends[i]), axis=axis).mean(axis=axis, keepdims=True)
            for i in range(target)
        ]
        return np.concatenate(pieces, axis=axis)
    # upsample: nearest-neighbor replication
    idx = (np.arange(target) * size) // target
    return x.take(idx, axis=axis)


def resize_spatial(x, target_h, target_w):
    """Resize the spatial axes of an NCHW batch.

    Downsampling averages over adaptive bins, upsampling replicates
    nearest neighbors, same-size is the identity. Axes are independent,
    so mixed up/down targets work.
    """
    if x.ndim != 4:
        raise DimensionError(f"resize_spatial expects 4-D input, got {x.shape}")
    if target_h < 1 or target_w < 1:
        raise DimensionError(f"target size {target_h}x{target_w} must be >= 1")
    if target_h == x.shape[2] and target_w == x.shape[3]:
        return x
    out = _resize_axis(x, 2, target_h)
    out = _resize_axis(out, 3, target_w)
    return np.ascontiguousarray(out)


def solve_projection(x, y, ridge=None):
    """Least-squares projection A with Y ~ A X for features-by-samples X, Y.

    Returns A = Y X^T (X X^T + ridge*I)^-1, shape [q, p], the minimizer of
    ||Y - A X||_F^2 plus the ridge penalty. ridge=None applies the default
    1e-8 * trace(X X^T) / p; ridge=0.0 requests the exact least-squares
    solution, falling back to the minimum-norm one (SVD) when X X^T is
    singular.
    """
    x = as_tensor(x, "x")
    y = as_tensor(y, "y")
    if x.ndim != 2 or y.ndim != 2:
        raise DimensionError(f"expected 2-D activation matrices, got {x.shape} and {y.shape}")
    if x.shape[1] != y.shape[1]:
        raise DimensionError(f"sample counts differ: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[1] < 1:
        raise DimensionError("need at least one sample")
    p = x.shape[0]
    gram = x @ x.T
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.trace(gram) / p
    if ridge < 0:
        raise ConfigError(f"ridge must be >= 0, got {ridge}")
    if ridge == 0.0:
        # min-norm least squares handles rank-deficient X X^T
        at, *_ = np.linalg.lstsq(x.T, y.T, rcond=None)
        return np.ascontiguousarray(at.T)
    reg = gram + ridge * np.eye(p)
    a = np.linalg.solve(reg, x @ y.T).T
    return np.ascontiguousarray(a)
