"""Joining fragments: projection solve, weight fusion, stitched networks.

A joint maps the running chain's output space onto the next fragment's
native input space with a least-squares projection A (q x p, old-space
rows), then folds A into the fragment's first trainable layer so the joint
adds no runtime parameters. Three joint kinds exist:

  linear -> linear   features are projected directly
  conv   -> conv     the running feature map is spatially resized to the
                     fragment's native size, A mixes channels only
                     (spatial positions fold into the sample axis)
  conv   -> linear   the running map is average-pooled to 1x1, flattened,
                     then treated as the linear case

The fuse_* helpers take the projection in [new_input x old_input] layout
and contract over their second axis, so callers pass A.T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cka import cka_linear
from .errors import ConfigError, DimensionError, UnsupportedJointError
from .layers import AdaptiveAvgPool1x1, Flatten, Resize
from .network import Fragment, forward
from .tensor_ops import adaptive_avg_pool_1x1, as_tensor, resize_spatial, solve_projection

JOINT_LINEAR = "linear_linear"
JOINT_CONV = "conv_conv"
JOINT_CONV_LINEAR = "conv_linear"


def joint_kind(x_raw, fragment):
    """Classify the joint between a running activation and a fragment."""
    first = fragment.layers[0]
    x_raw = np.asarray(x_raw)
    if x_raw.ndim == 4 and first.kind == "conv2d":
        return JOINT_CONV
    if x_raw.ndim == 4 and first.kind == "linear":
        return JOINT_CONV_LINEAR
    if x_raw.ndim == 2 and first.kind == "linear":
        return JOINT_LINEAR
    raise UnsupportedJointError(
        f"no stitching rule for activation shape {x_raw.shape} "
        f"into a {first.kind} layer (fragment {fragment.id})"
    )


def _channels_by_positions(x):
    # [N,C,H,W] -> [C, N*H*W]: spatial positions join the sample axis
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3).reshape(c, n * h * w))


# (chain, native) activation ranks of each joint kind
_JOINT_RANKS = {JOINT_LINEAR: (2, 2), JOINT_CONV: (4, 4), JOINT_CONV_LINEAR: (4, 2)}


def _features_by_samples(raw, kind):
    if kind == JOINT_CONV:
        return _channels_by_positions(raw)
    return np.ascontiguousarray(raw.T)


def chain_operand(x_raw, kind, native_shape):
    """The chain side of a joint as a features-by-samples matrix.

    Depends on the candidate only through the joint kind and, for conv
    joints, the native spatial size the chain output is resized to.
    """
    if kind == JOINT_CONV:
        x_raw = resize_spatial(x_raw, native_shape[2], native_shape[3])
    elif kind == JOINT_CONV_LINEAR:
        x_raw = adaptive_avg_pool_1x1(x_raw).reshape(x_raw.shape[0], -1)
    return _features_by_samples(x_raw, kind)


def native_operand(y_raw, kind):
    """The fragment side of a joint (its native input) as features-by-samples."""
    return _features_by_samples(y_raw, kind)


def prepare_joint(x_raw, y_raw, kind):
    """Raw joint activations -> the matched features-by-samples arrays.

    x_raw is the running chain's output on the target samples, y_raw the
    fragment's native input (forward_upto in its source network). The same
    prepared pair feeds both the compatibility score and the projection
    solve.
    """
    x_raw = as_tensor(x_raw, "x")
    y_raw = as_tensor(y_raw, "y")
    ranks = _JOINT_RANKS.get(kind)
    if ranks is None:
        raise UnsupportedJointError(f"unknown joint kind {kind!r}")
    if (x_raw.ndim, y_raw.ndim) != ranks:
        raise DimensionError(
            f"{kind} joint expects {ranks[0]}-D/{ranks[1]}-D activations, "
            f"got {x_raw.shape}, {y_raw.shape}"
        )
    return chain_operand(x_raw, kind, y_raw.shape), native_operand(y_raw, kind)


def fuse_linear(weight, a):
    """Fold a projection into a linear weight: W'[l,k] = sum_j W[l,j] a[k,j].

    a is [new_input x old_input]; its second axis must match the weight's
    input axis. The bias is untouched.
    """
    w = as_tensor(weight, "weight")
    a = as_tensor(a, "projection")
    if w.ndim != 2 or a.ndim != 2:
        raise DimensionError(f"fuse_linear expects 2-D tensors, got {w.shape}, {a.shape}")
    if a.shape[1] != w.shape[1]:
        raise DimensionError(
            f"projection second axis {a.shape} does not match weight input {w.shape}"
        )
    return w @ a.T


def fuse_conv(weight, a):
    """Fold a channel projection into a conv weight, per spatial tap.

    W'[o,k,m,n] = sum_j W[o,j,m,n] a[k,j]; a is [new_channels x old_channels].
    Output channels and kernel extent are unchanged.
    """
    w = as_tensor(weight, "weight")
    a = as_tensor(a, "projection")
    if w.ndim != 4 or a.ndim != 2:
        raise DimensionError(f"fuse_conv expects 4-D weight and 2-D projection, got {w.shape}, {a.shape}")
    if a.shape[1] != w.shape[1]:
        raise DimensionError(
            f"projection second axis {a.shape} does not match weight channels {w.shape}"
        )
    return np.ascontiguousarray(np.einsum("ojmn,kj->okmn", w, a))


@dataclass
class ProvenanceEntry:
    source_network_id: str
    start_layer: int
    end_layer: int
    cka: float


@dataclass
class StitchNet:
    """An executable composition of fragments with fused joints.

    Fragments hold private (possibly fused) layer copies; adapters[i] are
    the parameter-free shape adapters that run just before fragments[i].
    cumulative_score is the product of per-joint compatibility scores.
    """

    fragments: list[Fragment]
    adapters: list[list]
    cumulative_score: float
    provenance: list[ProvenanceEntry]
    input_shape: tuple[int, ...]
    class_labels: list[str] = field(default_factory=list)
    id: str = ""

    def __post_init__(self):
        self.input_shape = tuple(int(s) for s in self.input_shape)
        if len(self.adapters) != len(self.fragments):
            raise ConfigError("adapters list must align with fragments")
        if not self.fragments or not self.fragments[0].is_starting:
            raise ConfigError("a stitched network must begin with a starting fragment")

    @property
    def chain(self):
        out = []
        for adapters, frag in zip(self.adapters, self.fragments):
            out.extend(adapters)
            out.extend(frag.layers)
        return out

    @property
    def is_complete(self):
        return self.fragments[-1].is_terminating

    @property
    def n_params(self):
        return sum(l.n_params for l in self.chain)

    @property
    def n_fragments(self):
        return len(self.fragments)

    @property
    def provenance_key(self):
        return "|".join(
            f"{p.source_network_id}:{p.start_layer}-{p.end_layer}" for p in self.provenance
        )

    def forward(self, batch):
        return forward(self, batch)


def start_stitchnet(fragment, source_network):
    """Wrap a starting fragment (score 1) as a one-fragment stitched net."""
    if not fragment.is_starting:
        raise ConfigError(f"fragment {fragment.id} is not a starting fragment")
    if fragment.source_network_id != source_network.id:
        raise ConfigError("fragment does not belong to the given network")
    frag_copy = Fragment(
        fragment.source_network_id,
        fragment.start_layer,
        fragment.end_layer,
        fragment.kind,
        [l.copy() for l in fragment.layers],
    )
    labels = (
        list(source_network.class_labels) if frag_copy.is_terminating else []
    )
    return StitchNet(
        fragments=[frag_copy],
        adapters=[[]],
        cumulative_score=1.0,
        provenance=[
            ProvenanceEntry(fragment.source_network_id, fragment.start_layer, fragment.end_layer, 1.0)
        ],
        input_shape=source_network.input_shape,
        class_labels=labels,
    )


def _fused_fragment(fragment, a_t, kind, y_raw_shape):
    """Deep-copy a fragment with its first trainable layer fused and the
    adapter layers the joint needs at run time."""
    src = fragment.source_network_id
    if kind == JOINT_CONV:
        adapters, fuse = [Resize(int(y_raw_shape[2]), int(y_raw_shape[3]), name=f"fit_{src}")], fuse_conv
    elif kind == JOINT_CONV_LINEAR:
        adapters, fuse = [AdaptiveAvgPool1x1(name=f"pool_{src}"), Flatten(name=f"flat_{src}")], fuse_linear
    elif kind == JOINT_LINEAR:
        adapters, fuse = [], fuse_linear
    else:
        raise UnsupportedJointError(f"unknown joint kind {kind!r}")
    first = fragment.layers[0]
    layers = [first.copy(weight=fuse(first.weight, a_t))] + [l.copy() for l in fragment.layers[1:]]
    return adapters, Fragment(src, fragment.start_layer, fragment.end_layer, fragment.kind, layers)


def stitch(q, f, x_raw, y_raw, joint_cka=None, terminal_labels=None):
    """Append fragment f to stitched net q, fusing the joint projection.

    x_raw: q's output activations on the target samples (q(D)); y_raw: f's
    native input activations from its source network on the same samples.
    joint_cka, when given, is recorded without recomputation (the generator
    has already scored the joint); otherwise it is computed here. The
    projection is solve_projection's default fit.
    """
    kind = joint_kind(x_raw, f)
    x_mat, y_mat = prepare_joint(x_raw, y_raw, kind)
    if joint_cka is None:
        joint_cka = cka_linear(x_mat, y_mat)
    a = solve_projection(x_mat, y_mat)
    adapters, frag = _fused_fragment(f, a.T, kind, np.asarray(y_raw).shape)
    labels = list(q.class_labels)
    if frag.is_terminating:
        labels = list(terminal_labels) if terminal_labels is not None else labels
    return StitchNet(
        fragments=list(q.fragments) + [frag],
        adapters=[list(ad) for ad in q.adapters] + [adapters],
        cumulative_score=q.cumulative_score * float(joint_cka),
        provenance=list(q.provenance)
        + [ProvenanceEntry(f.source_network_id, f.start_layer, f.end_layer, float(joint_cka))],
        input_shape=q.input_shape,
        class_labels=labels,
        id=q.id,
    )
