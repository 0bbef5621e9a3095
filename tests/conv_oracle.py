"""Einsum convolution: an independent oracle for the layer-level conv path.

Contracts the strided (kh, kw) windows of the padded batch with the kernel
in one einsum, so it shares no code with `Conv2d`'s patch-matrix GEMM.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv2d(x, weight, bias, stride=1, padding=0):
    """2-D cross-correlation of an NCHW batch with an OCkhkw kernel, plus bias."""
    kh, kw = weight.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("nchwkl,ockl->nohw", win, weight, optimize=True)
    return out + bias[None, :, None, None]
