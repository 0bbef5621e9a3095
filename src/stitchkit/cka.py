"""Linear centered kernel alignment between activation sets.

Operands are plain features-by-samples arrays. Similarity is the normalized
Hilbert-Schmidt independence criterion with linear kernels, from one
formula: each operand reduces to a CkaSide, its centred n x n Gram matrix
for n <= 256 samples, else its centred feature matrix (conv joints fold
spatial positions into the samples, so n reaches the thousands). Both
forms give the same HSIC (Kornblith et al. 2019). Constant activations
(dead fragments) are reported as degenerate rather than producing 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateActivationsError, DimensionError
from .tensor_ops import as_tensor


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


# sample counts above this switch the linear-kernel HSIC terms to their
# feature-space form (identical values, no n x n Gram materialization);
# conv joints fold spatial positions into samples and n grows into the
# thousands while feature counts stay small
_GRAM_SAMPLE_LIMIT = 256


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

    @property
    def is_gram(self):
        return self.n_samples <= _GRAM_SAMPLE_LIMIT


def cka_side(x):
    """Centre one features-by-samples operand and take its self-HSIC.

    Computed once, a side serves every pairing through cka_from_sides.
    Non-finite values raise NumericError; an operand that is not 2-D or
    has fewer than 2 samples raises DimensionError.
    """
    x = as_tensor(x, "activations")
    if x.ndim != 2:
        raise DimensionError(f"activation matrix must be 2-D, got {x.shape}")
    n = x.shape[1]
    if n < 2:
        raise DimensionError(f"need >= 2 samples to center, got {n}")
    scale = (n - 1) ** 2
    if n <= _GRAM_SAMPLE_LIMIT:
        centred = _center_gram(x.T @ x)
        self_hsic = float((centred * centred).sum() / scale)
    else:
        centred = x - x.mean(axis=1, keepdims=True)
        cov = centred @ centred.T
        self_hsic = float((cov * cov).sum() / scale)
    return CkaSide(centred, self_hsic, n)


def _cross_hsic(x, y):
    # the HSIC between the operands behind two sides of one sample count
    if x.is_gram:
        cross = x.centred * y.centred
    else:
        cross = x.centred @ y.centred.T
        cross = cross * cross
    return float(cross.sum() / (x.n_samples - 1) ** 2)


def _check_sample_counts(x, y):
    if x.n_samples != y.n_samples:
        raise DimensionError(f"sample counts differ: {x.n_samples} vs {y.n_samples}")


def cka_from_sides(x, y):
    """Linear CKA of the operands behind two CkaSides; costs one cross term."""
    _check_sample_counts(x, y)
    if x.self_hsic <= 0.0 or y.self_hsic <= 0.0:
        raise DegenerateActivationsError("constant activations (zero self-HSIC)")
    return _ratio(_cross_hsic(x, y), x.self_hsic, y.self_hsic)


def cka_linear(x, y):
    """Linear-kernel CKA of two features-by-samples arrays; in [0, 1].

    CKA(X, Y) = HSIC(K, M) / sqrt(HSIC(K, K) HSIC(M, M)) with K = X^T X,
    M = Y^T Y. Raises DegenerateActivationsError when either input is
    constant across samples (zero denominator).
    """
    return cka_from_sides(cka_side(x), cka_side(y))


def _ratio(num, kk, mm):
    # rounding can carry the ratio a few ulps past 1 (self-CKA gives
    # 1.0000000000000002); the value is clamped into its range
    return float(min(max(num / np.sqrt(kk * mm), 0.0), 1.0))


def cka_minibatch(x_batches, y_batches):
    """Minibatch-averaged linear CKA.

    The cross and both self HSIC terms are averaged over matched batches
    before forming the ratio; a single batch reproduces cka_linear
    bit-for-bit, clamped into [0, 1] the same way.
    """
    xs = [cka_side(b) for b in x_batches]
    ys = [cka_side(b) for b in y_batches]
    if len(xs) != len(ys) or not xs:
        raise DimensionError(
            f"batch lists must be non-empty and matched, got {len(xs)} vs {len(ys)}"
        )
    for xb, yb in zip(xs, ys):
        _check_sample_counts(xb, yb)
    kk = np.mean([s.self_hsic for s in xs])
    mm = np.mean([s.self_hsic for s in ys])
    if kk <= 0.0 or mm <= 0.0:
        raise DegenerateActivationsError("constant activations in every batch")
    return _ratio(np.mean([_cross_hsic(xb, yb) for xb, yb in zip(xs, ys)]), kk, mm)
