"""Linear centered kernel alignment between activation sets.

Activation matrices are features-by-samples. Similarity is the normalized
Hilbert-Schmidt independence criterion with linear kernels, computed on
sample-space Gram matrices (sample counts here are far below feature
counts). Constant activations (dead fragments) are reported as degenerate
rather than producing 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateActivationsError, DimensionError
from .tensor_ops import as_tensor


@dataclass
class ActivationMatrix:
    """Features-by-samples activation block with provenance."""

    values: np.ndarray
    fragment_id: str = ""

    def __post_init__(self):
        self.values = as_tensor(self.values, "activations")
        if self.values.ndim != 2:
            raise DimensionError(f"activation matrix must be 2-D, got {self.values.shape}")
        if self.values.shape[1] < 2:
            raise DimensionError(
                f"need >= 2 samples to center, got {self.values.shape[1]}"
            )

    @property
    def n_samples(self):
        return self.values.shape[1]

    @property
    def n_features(self):
        return self.values.shape[0]


def flatten_activations(batch, fragment_id=""):
    """Samples-first activations -> features-by-samples ActivationMatrix.

    All non-sample axes are flattened into the feature axis.
    """
    arr = as_tensor(batch, "activations")
    if arr.ndim < 2:
        raise DimensionError(f"expected a batched activation, got shape {arr.shape}")
    flat = arr.reshape(arr.shape[0], -1)
    return ActivationMatrix(np.ascontiguousarray(flat.T), fragment_id)


def _center_gram(g):
    row = g.mean(axis=0, keepdims=True)
    col = g.mean(axis=1, keepdims=True)
    return g - row - col + g.mean()


def _checked_gram(gram, name):
    """A finite, square Gram matrix that is symmetric within tolerance."""
    g = as_tensor(gram, name)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError(f"{name} must be square, got {g.shape}")
    tol = 1e-9 * max(1.0, float(np.abs(g).max()))
    if np.abs(g - g.T).max() > tol:
        raise DimensionError(f"{name} is not symmetric within tolerance")
    return g


def hsic(k_gram, m_gram):
    """tr(K H M H) / (n-1)^2 for symmetric n x n Gram matrices."""
    k = _checked_gram(k_gram, "K")
    m = _checked_gram(m_gram, "M")
    if k.shape != m.shape:
        raise DimensionError(f"Gram sizes differ: {k.shape} vs {m.shape}")
    n = k.shape[0]
    if n < 2:
        raise DimensionError("HSIC needs n >= 2")
    kc = _center_gram(k)
    mc = _center_gram(m)
    return float((kc * mc).sum() / (n - 1) ** 2)


def _coerce(x):
    return x if isinstance(x, ActivationMatrix) else ActivationMatrix(np.asarray(x))


# sample counts above this switch the linear-kernel HSIC terms to their
# feature-space form (identical values, no n x n Gram materialization);
# conv joints fold spatial positions into samples and n grows into the
# thousands while feature counts stay small
_GRAM_SAMPLE_LIMIT = 256


def _hsic_terms(x, y):
    n = x.n_samples
    if n <= _GRAM_SAMPLE_LIMIT:
        k = x.values.T @ x.values
        m = y.values.T @ y.values
        return hsic(k, m), hsic(k, k), hsic(m, m)
    scale = (n - 1) ** 2
    xc = x.values - x.values.mean(axis=1, keepdims=True)
    yc = y.values - y.values.mean(axis=1, keepdims=True)
    cross = xc @ yc.T
    cxx = xc @ xc.T
    cyy = yc @ yc.T
    return (
        float((cross * cross).sum() / scale),
        float((cxx * cxx).sum() / scale),
        float((cyy * cyy).sum() / scale),
    )


def cka_linear(x, y):
    """Linear-kernel CKA of two activation matrices; in [0, 1].

    CKA(X, Y) = HSIC(K, M) / sqrt(HSIC(K, K) HSIC(M, M)) with K = X^T X,
    M = Y^T Y. Raises DegenerateActivationsError when either input is
    constant across samples (zero denominator).
    """
    x, y = _coerce(x), _coerce(y)
    if x.n_samples != y.n_samples:
        raise DimensionError(f"sample counts differ: {x.n_samples} vs {y.n_samples}")
    num, kk, mm = _hsic_terms(x, y)
    if kk <= 0.0 or mm <= 0.0:
        raise DegenerateActivationsError(
            f"constant activations (fragments {x.fragment_id!r}, {y.fragment_id!r})"
        )
    return _ratio(num, kk, mm)


@dataclass(frozen=True)
class CkaSide:
    """One operand of a linear CKA, reduced to what every pairing reuses.

    centred is the centred n x n Gram for n <= _GRAM_SAMPLE_LIMIT, else
    the centred features-by-samples matrix; self_hsic is the operand's
    HSIC with itself.
    """

    centred: np.ndarray
    self_hsic: float
    n_samples: int
    fragment_id: str = ""

    @property
    def is_gram(self):
        return self.n_samples <= _GRAM_SAMPLE_LIMIT


def cka_side(x):
    """Centre one operand and take its self-HSIC, once for many pairings.

    Uses cka_linear's arithmetic term for term, so cka_from_sides on two
    sides equals cka_linear on the two operands bit for bit. The Gram form
    gets hsic's checks (finite, square, symmetric) here, once.
    """
    x = _coerce(x)
    n = x.n_samples
    scale = (n - 1) ** 2
    if n <= _GRAM_SAMPLE_LIMIT:
        centred = _center_gram(_checked_gram(x.values.T @ x.values, "Gram"))
        self_hsic = float((centred * centred).sum() / scale)
    else:
        centred = x.values - x.values.mean(axis=1, keepdims=True)
        cov = centred @ centred.T
        self_hsic = float((cov * cov).sum() / scale)
    return CkaSide(centred, self_hsic, n, x.fragment_id)


def cka_from_sides(x, y):
    """cka_linear of the operands behind two CkaSides; costs one cross term."""
    if x.n_samples != y.n_samples:
        raise DimensionError(f"sample counts differ: {x.n_samples} vs {y.n_samples}")
    if x.self_hsic <= 0.0 or y.self_hsic <= 0.0:
        raise DegenerateActivationsError(
            f"constant activations (fragments {x.fragment_id!r}, {y.fragment_id!r})"
        )
    if x.is_gram:
        cross = x.centred * y.centred
    else:
        cross = x.centred @ y.centred.T
        cross = cross * cross
    return _ratio(float(cross.sum() / (x.n_samples - 1) ** 2), x.self_hsic, y.self_hsic)


def _ratio(num, kk, mm):
    # rounding can carry the ratio a few ulps past 1 (self-CKA gives
    # 1.0000000000000002); the value is clamped into its range
    return float(min(max(num / np.sqrt(kk * mm), 0.0), 1.0))


def cka_minibatch(x_batches, y_batches):
    """Minibatch-averaged linear CKA.

    The numerator and both denominator HSIC terms are averaged over matched
    batches before forming the ratio; a single batch reproduces cka_linear
    bit-for-bit, clamped into [0, 1] the same way.
    """
    xs = [_coerce(b) for b in x_batches]
    ys = [_coerce(b) for b in y_batches]
    if len(xs) != len(ys) or not xs:
        raise DimensionError(
            f"batch lists must be non-empty and matched, got {len(xs)} vs {len(ys)}"
        )
    nums, kks, mms = [], [], []
    for xb, yb in zip(xs, ys):
        if xb.n_samples != yb.n_samples:
            raise DimensionError(
                f"batch sample counts differ: {xb.n_samples} vs {yb.n_samples}"
            )
        k = xb.values.T @ xb.values
        m = yb.values.T @ yb.values
        nums.append(hsic(k, m))
        kks.append(hsic(k, k))
        mms.append(hsic(m, m))
    kk = np.mean(kks)
    mm = np.mean(mms)
    if kk <= 0.0 or mm <= 0.0:
        raise DegenerateActivationsError("constant activations in every batch")
    return _ratio(np.mean(nums), kk, mm)
