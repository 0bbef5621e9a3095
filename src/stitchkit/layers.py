"""Layer kinds for sequential networks.

Each layer knows its forward pass, its backward pass (for the trainer) and
its static output shape (for network validation). Activation shapes are
tracked without the batch axis: (C, H, W) for feature maps, (F,) for flat
vectors.

A kind is declared once, on its class: `kind`, `weight_ndim` (0 for kinds
without parameters) and `hyper`, the hyperparameter names in constructor
order. A constructor takes the weight and bias (if weight_ndim), then the
`hyper` values, then `name`. The .snet format, the prefix-tree key and
copy() read that declaration, and LAYER_KINDS maps each kind to its class.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor_ops import (
    adaptive_avg_pool_1x1,
    as_tensor,
    col2im,
    im2col,
    resize_spatial,
    tap_views,
)


class Layer:
    kind = "layer"
    weight_ndim = 0
    hyper = ()

    def _set_params(self, weight, bias):
        self.weight = as_tensor(weight, "weight")
        self.bias = as_tensor(bias, "bias")
        if self.weight.ndim != self.weight_ndim:
            raise DimensionError(
                f"{self.kind} weight must be {self.weight_ndim}-D, got {self.weight.shape}"
            )
        if self.bias.shape != (self.weight.shape[0],):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match weight {self.weight.shape}"
            )

    def forward(self, x):
        raise NotImplementedError

    def forward_cache(self, x):
        return self.forward(x), None

    def backward(self, grad, cache):
        raise NotImplementedError(f"{self.kind} has no backward pass")

    def out_shape(self, in_shape):
        raise NotImplementedError

    @property
    def n_params(self):
        return sum(arr.size for arr in self.params().values())

    def params(self):
        """Mutable parameter arrays, name -> ndarray."""
        return {"weight": self.weight, "bias": self.bias} if self.weight_ndim else {}

    def copy(self, weight=None, bias=None):
        """This layer with fresh parameter arrays; a given array replaces the
        layer's own and is taken as is. Parameter-free layers are shared."""
        if not self.weight_ndim:
            return self
        weight = self.weight.copy() if weight is None else weight
        bias = self.bias.copy() if bias is None else bias
        return type(self)(weight, bias, *[getattr(self, h) for h in self.hyper], name=self.name)


class Linear(Layer):
    kind = "linear"
    weight_ndim = 2

    def __init__(self, weight, bias, name="linear"):
        self.name = name
        self._set_params(weight, bias)

    @property
    def out_features(self):
        return self.weight.shape[0]

    @property
    def in_features(self):
        return self.weight.shape[1]

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionError(
                f"expected [N, {self.in_features}] input, got {x.shape}"
            )
        return x @ self.weight.T + self.bias

    def forward_cache(self, x):
        return self.forward(x), x

    def backward(self, grad, cache, input_grad=True):
        x = cache
        gx = grad @ self.weight if input_grad else None
        return gx, {"weight": grad.T @ x, "bias": grad.sum(axis=0)}

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise DimensionError(f"linear '{self.name}' cannot take shape {in_shape}")
        return (self.out_features,)


class Conv2d(Layer):
    kind = "conv2d"
    weight_ndim = 4
    hyper = ("stride", "padding")

    def __init__(self, weight, bias, stride=1, padding=0, name="conv"):
        self.stride = int(stride)
        self.padding = int(padding)
        self.name = name
        if self.stride < 1 or self.padding < 0:
            raise ConfigError(
                f"conv2d '{name}': stride {self.stride} must be at least 1, padding {self.padding} at least 0"
            )
        self._set_params(weight, bias)

    @property
    def out_channels(self):
        return self.weight.shape[0]

    @property
    def in_channels(self):
        return self.weight.shape[1]

    def _cols(self, x):
        """Patch matrix [C*kh*kw, N*Ho*Wo] of an input, and the NCHW output shape."""
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise DimensionError(
                f"expected [N, {self.in_channels}, H, W] input, got {x.shape}"
            )
        o, c, kh, kw = self.weight.shape
        cols, (ho, wo) = im2col(x, kh, kw, self.stride, self.padding)
        return cols, (x.shape[0], o, ho, wo)

    def _nchw(self, out, shape):
        out += self.bias[:, None]  # in place: same values as out + bias, no extra copy
        n, o, ho, wo = shape
        return np.ascontiguousarray(out.reshape(o, n, ho, wo).transpose(1, 0, 2, 3))

    def forward(self, x):
        cols, shape = self._cols(x)
        out = self.weight.reshape(self.out_channels, -1) @ cols
        del cols  # the patch matrix is the largest temporary; free it first
        return self._nchw(out, shape)

    def forward_cache(self, x):
        cols, shape = self._cols(x)
        out = self._nchw(self.weight.reshape(self.out_channels, -1) @ cols, shape)
        return out, (cols, x.shape)

    def backward(self, grad, cache, input_grad=True):
        cols, x_shape = cache
        o, c, kh, kw = self.weight.shape
        gmat = grad.transpose(0, 2, 3, 1).reshape(-1, o)
        dw = (gmat.T @ cols.T).reshape(self.weight.shape)
        db = gmat.sum(axis=0)
        gx = None
        if input_grad:
            dcols = gmat @ self.weight.reshape(o, -1)
            gx = col2im(dcols, x_shape, kh, kw, self.stride, self.padding)
        return gx, {"weight": dw, "bias": db}

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise DimensionError(f"conv '{self.name}' cannot take shape {in_shape}")
        c, h, w = in_shape
        o, _, kh, kw = self.weight.shape
        ho = (h + 2 * self.padding - kh) // self.stride + 1
        wo = (w + 2 * self.padding - kw) // self.stride + 1
        if ho < 1 or wo < 1:
            raise DimensionError(f"conv '{self.name}' output collapses on {in_shape}")
        return (o, ho, wo)


class ReLU(Layer):
    kind = "relu"

    def __init__(self, name="relu"):
        self.name = name

    def forward(self, x):
        return np.maximum(x, 0.0)

    def forward_cache(self, x):
        out = self.forward(x)
        return out, out

    def backward(self, grad, cache):
        return grad * (cache > 0), {}

    def out_shape(self, in_shape):
        return in_shape


class MaxPool2d(Layer):
    kind = "maxpool2d"
    hyper = ("k", "stride")

    def __init__(self, k, stride=None, name="pool"):
        self.k = int(k)
        self.stride = int(stride) if stride is not None else int(k)
        self.name = name
        if self.k < 1 or self.stride < 1:
            raise ConfigError(f"maxpool2d '{name}': k {self.k} and stride {self.stride} must be at least 1")

    def _taps(self, x):
        """The k*k tap views of a 4-D input, row-major over the window."""
        if x.ndim != 4:
            raise DimensionError(f"maxpool expects 4-D input, got {x.shape}")
        _, ho, wo = self.out_shape(x.shape[1:])
        return tap_views(x, self.k, self.k, self.stride, ho, wo)

    @staticmethod
    def _running_max(taps):
        out = taps[0].copy()
        for tap in taps[1:]:
            # np.maximum returns its second operand on ties, so the earlier
            # tap wins as with argmax (this decides 0.0 against -0.0)
            np.maximum(tap, out, out=out)
        return out

    def forward(self, x):
        return self._running_max(self._taps(x))

    def forward_cache(self, x):
        taps = self._taps(x)
        out = self._running_max(taps)
        # last tap first, so each cell ends at the first tap equal to its
        # maximum, as with argmax
        arg = np.zeros(out.shape, dtype=np.intp)
        for t in range(len(taps) - 1, -1, -1):
            np.copyto(arg, t, where=taps[t] == out)
        return out, (arg, x.shape)

    def backward(self, grad, cache):
        arg, x_shape = cache
        gx = np.zeros(x_shape)
        ho, wo = arg.shape[2:]
        taps = tap_views(gx, self.k, self.k, self.stride, ho, wo)
        # last tap first: a cell shared by overlapping windows then sums its
        # gradients in the output raster order of np.add.at
        for t in range(len(taps) - 1, -1, -1):
            taps[t] += np.where(arg == t, grad, 0.0)
        return gx, {}

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise DimensionError(f"maxpool '{self.name}' cannot take shape {in_shape}")
        c, h, w = in_shape
        ho = (h - self.k) // self.stride + 1
        wo = (w - self.k) // self.stride + 1
        if ho < 1 or wo < 1:
            raise DimensionError(f"maxpool '{self.name}' output collapses on {in_shape}")
        return (c, ho, wo)


class AdaptiveAvgPool1x1(Layer):
    kind = "adaptiveavgpool"

    def __init__(self, name="gap"):
        self.name = name

    def forward(self, x):
        return adaptive_avg_pool_1x1(x)

    def forward_cache(self, x):
        return adaptive_avg_pool_1x1(x), x.shape

    def backward(self, grad, cache):
        n, c, h, w = cache
        return np.broadcast_to(grad / (h * w), cache).copy(), {}

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise DimensionError(f"pool '{self.name}' cannot take shape {in_shape}")
        return (in_shape[0], 1, 1)


class Flatten(Layer):
    kind = "flatten"

    def __init__(self, name="flatten"):
        self.name = name

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def forward_cache(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, grad, cache):
        return grad.reshape(cache), {}

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


class Softmax(Layer):
    kind = "softmax"

    def __init__(self, name="softmax"):
        self.name = name

    def forward(self, x):
        if x.ndim != 2:
            raise DimensionError(f"softmax expects 2-D logits, got {x.shape}")
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise DimensionError(f"softmax '{self.name}' cannot take shape {in_shape}")
        return in_shape


class Resize(Layer):
    """Spatial resampling adapter inserted at conv-to-conv joints."""

    kind = "resize"
    hyper = ("target_h", "target_w")

    def __init__(self, target_h, target_w, name="resize"):
        self.target_h = int(target_h)
        self.target_w = int(target_w)
        self.name = name
        if self.target_h < 1 or self.target_w < 1:
            raise ConfigError(f"resize '{name}': target {self.target_h}x{self.target_w} must be at least 1")

    def forward(self, x):
        return resize_spatial(x, self.target_h, self.target_w)

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise DimensionError(f"resize '{self.name}' cannot take shape {in_shape}")
        return (in_shape[0], self.target_h, self.target_w)


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Linear, Conv2d, ReLU, MaxPool2d, AdaptiveAvgPool1x1, Flatten, Softmax, Resize)
}
TRAINABLE_KINDS = tuple(kind for kind, cls in LAYER_KINDS.items() if cls.weight_ndim)
