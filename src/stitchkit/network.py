"""Sequential networks, fragments, and fragment pools.

A Network is an ordered layer chain validated by a static shape dry-run.
Fragments are contiguous layer spans cut immediately before each trainable
layer (except the first), tagged starting/middle/terminating. Networks,
fragments, and pools are immutable after construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import ConfigError, DimensionError
from .layers import TRAINABLE_KINDS, Layer
from .tensor_ops import as_tensor


def _validate_chain(layers, input_shape, owner=""):
    """Dry-run the static shapes through the chain; returns the output shape."""
    shape = tuple(int(s) for s in input_shape)
    for i, layer in enumerate(layers):
        try:
            shape = layer.out_shape(shape)
        except DimensionError as e:
            raise DimensionError(f"{owner}layer {i} '{layer.name}': {e}") from e
    return shape


@dataclass
class Network:
    """Sequential computation graph with an id and (for classifiers) labels."""

    layers: list[Layer]
    input_shape: tuple[int, ...]
    class_labels: list[str] = field(default_factory=list)
    id: str = "net"
    train_trace: list = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self):
        self.input_shape = tuple(int(s) for s in self.input_shape)
        if not self.id:
            raise ConfigError("network id must be non-empty")
        for i, layer in enumerate(self.layers):
            if layer.kind == "softmax" and i != len(self.layers) - 1:
                raise ConfigError(
                    f"softmax only allowed as the final layer (found at {i} in '{self.id}')"
                )
        self.output_shape = _validate_chain(self.layers, self.input_shape, f"net '{self.id}' ")
        if self.class_labels:
            for lbl in self.class_labels:
                if not lbl or any(ch.isspace() for ch in lbl):
                    raise ConfigError(f"class label {lbl!r} must be non-empty, no whitespace")
            if self.output_shape != (len(self.class_labels),):
                raise ConfigError(
                    f"net '{self.id}' outputs {self.output_shape}, "
                    f"but has {len(self.class_labels)} class labels"
                )

    @property
    def n_params(self):
        return sum(l.n_params for l in self.layers)

    @property
    def trainable_indices(self):
        return [i for i, l in enumerate(self.layers) if l.kind in TRAINABLE_KINDS]

    def copy(self):
        return Network(
            [l.copy() for l in self.layers],
            self.input_shape,
            list(self.class_labels),
            self.id,
        )


@dataclass
class Fragment:
    """A contiguous layer span [start_layer, end_layer) of a source network."""

    source_network_id: str
    start_layer: int
    end_layer: int
    kind: str  # starting | middle | terminating | degenerate
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("starting", "middle", "terminating", "degenerate"):
            raise ConfigError(f"unknown fragment kind {self.kind!r}")
        if not (0 <= self.start_layer < self.end_layer):
            raise ConfigError(f"bad fragment span [{self.start_layer}, {self.end_layer})")
        if len(self.layers) != self.end_layer - self.start_layer:
            raise ConfigError("fragment layer list does not match its span")
        if self.kind in ("middle", "terminating"):
            if self.layers[0].kind not in TRAINABLE_KINDS:
                raise ConfigError(
                    f"fragment {self.id} must start at a trainable layer, "
                    f"got {self.layers[0].kind}"
                )

    @property
    def id(self):
        return f"{self.source_network_id}:{self.start_layer:03d}-{self.end_layer:03d}"

    @property
    def is_starting(self):
        return self.kind in ("starting", "degenerate")

    @property
    def is_terminating(self):
        return self.kind in ("terminating", "degenerate")

    @property
    def n_params(self):
        return sum(l.n_params for l in self.layers)


def _chain(model):
    return getattr(model, "chain", None) or model.layers


def _run(layer, x, i):
    """layer.forward(x), with shape errors naming the layer's chain index."""
    try:
        return layer.forward(x)
    except DimensionError as e:
        raise DimensionError(f"layer {i} '{layer.name}': {e}") from e


def forward(model, batch):
    """Run a batch through a Network, Fragment, or any object with .layers.

    Layer-by-layer, deterministic; shape errors name the offending layer.
    """
    x = as_tensor(batch, "batch")
    for i, layer in enumerate(_chain(model)):
        x = _run(layer, x, i)
    return x


def forward_upto(network, layer_index, batch):
    """Activation after executing layers [0, layer_index) of a network.

    layer_index == 0 returns the batch itself; layer_index == len(layers)
    equals a full forward pass. This is the native input a fragment starting
    at layer_index receives inside its source network.
    """
    return forward_taps(network, [layer_index], batch)[layer_index]


def forward_taps(network, layer_indices, batch):
    """forward_upto at every index in layer_indices, from one pass.

    Returns {index: activation}; each activation is bit-identical to
    forward_upto(network, index, batch).
    """
    stops = set(layer_indices)
    for index in stops:
        if not (0 <= index <= len(network.layers)):
            raise DimensionError(
                f"layer index {index} out of range for '{network.id}' "
                f"({len(network.layers)} layers)"
            )
    x = as_tensor(batch, "batch")
    taps = {0: x} if 0 in stops else {}
    for i, layer in enumerate(network.layers[: max(stops, default=0)]):
        x = _run(layer, x, i)
        if i + 1 in stops:
            taps[i + 1] = x
    return taps


_HYPERPARAMS = ("stride", "padding", "k", "target_h", "target_w")


def _layer_key(layer):
    """Equal keys mean the same function: kind, name, hyperparameters and
    the exact bytes of every parameter. Objects without params() (stand-ins
    that are not Layers) get a key equal to nothing else.
    """
    if not hasattr(layer, "params"):
        return object()
    params = tuple(
        (name, arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in sorted(layer.params().items())
    )
    hyper = tuple(getattr(layer, attr, None) for attr in _HYPERPARAMS)
    return (layer.kind, layer.name, hyper, params)


class _Node:
    """A run of layers shared by every model below it (a radix-tree edge)."""

    __slots__ = ("layers", "depth", "children", "ends")

    def __init__(self, depth, layers):
        self.layers = layers
        self.depth = depth  # chain index of layers[0]
        self.children = {}  # first layer's key -> child; a list once built
        self.ends = []  # indices of the models whose chain ends after this run


class PrefixTree:
    """The layer chains of several models, merged on equal prefixes.

    forward(batch) runs each shared prefix once and gives every model's
    output, bit-identical to forward(model, batch): a merged layer is the
    same function on the same input. Layers merge only when _layer_key
    agrees; provenance, hashes and object identity play no part, so nets
    loaded from separate files share their prefixes too.
    """

    def __init__(self, models):
        self.n_models = len(models)
        self.root = _Node(0, [])
        for j, model in enumerate(models):
            node = self.root
            for i, layer in enumerate(_chain(model)):
                key = _layer_key(layer)
                child = node.children.get(key)
                if child is None:
                    child = node.children[key] = _Node(i, [layer])
                node = child
            node.ends.append(j)
        stack = [self.root]
        while stack:  # fold single-child runs into one edge, drop the keys
            node = stack.pop()
            while len(node.children) == 1 and not node.ends:
                (child,) = node.children.values()
                node.layers += child.layers
                node.children, node.ends = child.children, child.ends
            node.children = list(node.children.values())
            stack.extend(node.children)

    def forward(self, batch):
        """Outputs of every model on one batch, in model order.

        Depth-first: an activation is held only at a branch point, by the
        children still to run; the last child's first layer releases it.
        """
        outs = [None] * self.n_models
        pending = [(self.root, as_tensor(batch, "batch"))]
        while pending:
            node, x = pending.pop()
            for i, layer in enumerate(node.layers, start=node.depth):
                x = _run(layer, x, i)
            for j in node.ends:
                outs[j] = x
            pending.extend((child, x) for child in reversed(node.children))
            del x
        return outs


def fragmentize(network, fine=False):
    """Cut a network into fragments at every trainable layer except the first.

    For k trainable layers this yields exactly k fragments: one starting, the
    rest middle until the final terminating span. Their concatenation is the
    original layer list, in order, without overlap. With fine=True, every
    contiguous multi-span combination of the same cut boundaries is added
    (the full-network span excluded).
    """
    tidx = network.trainable_indices
    layers = network.layers
    if len(tidx) < 2:
        warnings.warn(
            f"network '{network.id}' has {len(tidx)} trainable layers; "
            "yielding a single degenerate fragment"
        )
        return [
            Fragment(network.id, 0, len(layers), "degenerate", list(layers))
        ]
    bounds = [0] + tidx[1:] + [len(layers)]
    frags = []
    spans = (
        [(i, i + 1) for i in range(len(bounds) - 1)]
        if not fine
        else [
            (i, j)
            for i in range(len(bounds) - 1)
            for j in range(i + 1, len(bounds))
            if not (i == 0 and j == len(bounds) - 1)
        ]
    )
    for i, j in spans:
        lo, hi = bounds[i], bounds[j]
        if lo == 0:
            kind = "starting"
        elif hi == len(layers):
            kind = "terminating"
        else:
            kind = "middle"
        frags.append(Fragment(network.id, lo, hi, kind, list(layers[lo:hi])))
    return frags


@dataclass
class FragmentPool:
    """Fragments plus their source networks (needed for native inputs)."""

    fragments: list[Fragment]
    networks: list[Network]

    def __post_init__(self):
        self._by_id = {}
        for net in self.networks:
            if net.id in self._by_id:
                raise ConfigError(f"duplicate network id '{net.id}' in pool")
            self._by_id[net.id] = net
        for frag in self.fragments:
            net = self._by_id.get(frag.source_network_id)
            if net is None:
                raise ConfigError(
                    f"fragment {frag.id} references unknown network "
                    f"'{frag.source_network_id}'"
                )
            if frag.end_layer > len(net.layers):
                raise ConfigError(f"fragment {frag.id} exceeds its source network")

    def network(self, network_id):
        return self._by_id[network_id]

    @property
    def starting_fragments(self):
        return [f for f in self.fragments if f.is_starting]

    @property
    def terminating_fragments(self):
        return [f for f in self.fragments if f.is_terminating]


def build_pool(networks, fine=False):
    """Fragmentize every network and assemble the pool."""
    frags = []
    for net in networks:
        frags.extend(fragmentize(net, fine=fine))
    return FragmentPool(frags, list(networks))


def models_equal(a, b):
    """Structural plus bitwise weight equality of two layer chains."""
    ca, cb = _chain(a), _chain(b)
    if len(ca) != len(cb) or any(_layer_key(la) != _layer_key(lb) for la, lb in zip(ca, cb)):
        return False
    if isinstance(a, Network) and isinstance(b, Network):
        if (a.input_shape, a.class_labels, a.id) != (b.input_shape, b.class_labels, b.id):
            return False
    return True
