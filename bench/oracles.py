"""Reference computations for the benchmark's output checks.

Plain numpy written from the definitions; nothing here imports or calls
stitchkit. Layers are read through their documented attributes (`kind`,
`weight`, `bias`, `stride`, `padding`, `k`, `target_h`, `target_w`) and
run with algorithms other than the library's: convolution and max-pooling
loop over kernel taps instead of unfolding patches, and CKA uses the
feature-space form on every operand shape.
"""

import numpy as np


def cka(x, y):
    """Linear CKA of two features-by-samples matrices.

    Centred feature-space form: ||Yc Xc^T||_F^2 / (||Xc Xc^T||_F ||Yc Yc^T||_F),
    with each feature centred over the samples.
    """
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    cross = np.linalg.norm(yc @ xc.T) ** 2
    return float(cross / (np.linalg.norm(xc @ xc.T) * np.linalg.norm(yc @ yc.T)))


def joint_matrix(act):
    """Samples-first activation -> features-by-samples matrix for CKA.

    Feature maps put channels on the feature axis and fold every spatial
    position into the sample axis; flat activations are transposed.
    """
    if act.ndim == 4:
        return act.transpose(1, 0, 2, 3).reshape(act.shape[1], -1)
    return act.T


def _taps(xp, kh, kw, stride, ho, wo):
    for i in range(kh):
        for j in range(kw):
            yield i, j, xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]


def conv2d(x, weight, bias, stride, padding):
    """Cross-correlation as a sum over kernel taps of channel mixes."""
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for i, j, tap in _taps(xp, kh, kw, stride, ho, wo):
        out += np.einsum("nchw,oc->nohw", tap, weight[:, :, i, j])
    return out + bias[None, :, None, None]


def maxpool2d(x, k, stride):
    """Window maximum, taken tap by tap."""
    ho = (x.shape[2] - k) // stride + 1
    wo = (x.shape[3] - k) // stride + 1
    out = np.full((x.shape[0], x.shape[1], ho, wo), -np.inf)
    for _, _, tap in _taps(x, k, k, stride, ho, wo):
        out = np.maximum(out, tap)
    return out


def _resize_axis(x, axis, target):
    size = x.shape[axis]
    if target == size:
        return x
    moved = np.moveaxis(x, axis, -1)
    if target < size:
        # bin i averages source cells floor(i*size/t) .. ceil((i+1)*size/t)-1
        cells = [
            moved[..., (i * size) // target : -((-(i + 1) * size) // target)].mean(axis=-1)
            for i in range(target)
        ]
    else:
        # nearest neighbour: output cell i copies source cell floor(i*size/t)
        cells = [moved[..., (i * size) // target] for i in range(target)]
    return np.moveaxis(np.stack(cells, axis=-1), -1, axis)


def resize(x, target_h, target_w):
    """Adaptive-bin average when shrinking, nearest neighbour when growing."""
    return _resize_axis(_resize_axis(x, 2, target_h), 3, target_w)


def softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def layer_forward(layer, x):
    kind = layer.kind
    if kind == "conv2d":
        return conv2d(x, layer.weight, layer.bias, layer.stride, layer.padding)
    if kind == "maxpool2d":
        return maxpool2d(x, layer.k, layer.stride)
    if kind == "resize":
        return resize(x, layer.target_h, layer.target_w)
    if kind == "adaptiveavgpool":
        return x.mean(axis=(2, 3), keepdims=True)
    if kind == "flatten":
        return x.reshape(x.shape[0], -1)
    if kind == "linear":
        return x @ layer.weight.T + layer.bias
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "softmax":
        return softmax(x)
    raise ValueError(f"no reference forward for layer kind {kind!r}")


def forward(layers, x):
    for layer in layers:
        x = layer_forward(layer, x)
    return x


def group_probs(probs, groups):
    """Sum class probabilities into target classes and renormalise rows.

    groups[c] is the target class of source class c.
    """
    grouped = np.zeros((probs.shape[0], max(groups) + 1))
    for src, dst in enumerate(groups):
        grouped[:, dst] += probs[:, src]
    return grouped / grouped.sum(axis=1, keepdims=True)


def score_predictions(probs, targets, tie_tol):
    """Correct-count bounds for argmax predictions over probability rows.

    A row whose top two probabilities lie within tie_tol is ambiguous: a
    correct implementation may pick either class, so it may or may not be
    counted. Returns (lowest, highest) possible number of correct rows.
    """
    ordered = np.sort(probs, axis=1)
    ambiguous = ordered[:, -1] - ordered[:, -2] <= tie_tol
    right = np.argmax(probs, axis=1) == targets
    lowest = int(np.sum(right & ~ambiguous))
    return lowest, lowest + int(np.sum(ambiguous))
