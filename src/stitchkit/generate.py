"""Recursive, threshold-pruned composition search over a fragment pool.

Depth-first: every starting fragment seeds a chain with score 1; at each
node the span-K best candidate fragments are examined, each joint scored by
CKA between the chain's output and the candidate's native input on the M
target samples. A joint is accepted iff the running score product stays
above the threshold; terminating fragments emit completed networks. The
search is deterministic given pool, dataset, and config.

A joint's CKA splits into a side per operand (cka.cka_side) and one cross
term. The native side of a candidate is fixed for the run and the chain
side for every candidate at a node, so each is computed once; native
inputs come from one forward pass per source network.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cka import cka_from_sides, cka_side
from .errors import ConfigError, DegenerateActivationsError, UnsupportedJointError
from .network import forward, forward_taps
from .stitching import (
    chain_operand,
    joint_kind,
    native_operand,
    start_stitchnet,
    stitch,
)

STRATEGIES = ("top_cka", "fewest_params")


@dataclass
class GenerationConfig:
    span_k: int = 2
    threshold: float = 0.5
    max_fragments: int = 16
    samples_m: int = 32
    starting_ids: list[str] | None = None  # None selects every starting fragment
    candidate_strategy: str = "top_cka"
    seed: int = 0
    ridge: float | None = None  # None applies the solver's automatic default

    def __post_init__(self):
        if self.span_k < 1:
            raise ConfigError(f"span K must be >= 1, got {self.span_k}")
        if self.max_fragments < 1:
            raise ConfigError(f"max fragments L must be >= 1, got {self.max_fragments}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"threshold T must be in [0, 1], got {self.threshold}")
        if self.samples_m < 2:
            raise ConfigError(f"samples M must be >= 2, got {self.samples_m}")
        if self.candidate_strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.candidate_strategy!r}")


@dataclass
class GenerationStats:
    candidates_evaluated: int = 0
    joints_rejected: int = 0
    cka_computations: int = 0
    stitchnets_emitted: int = 0
    samples_processed: int = 0
    wall_time: float = 0.0


@dataclass
class GenerationResult:
    entries: list = field(default_factory=list)  # (StitchNet, score), score descending
    stats: GenerationStats = field(default_factory=GenerationStats)
    task_outputs: dict | None = None
    # id -> joint evaluations completed when the net was emitted, in the
    # canonical sequential search order (cost-to-reach accounting)
    emission_joints: dict = field(default_factory=dict)

    @property
    def stitchnets(self):
        return [sn for sn, _ in self.entries]


def _spans_overlap(frag, q):
    for prov in q.provenance:
        if prov.source_network_id != frag.source_network_id:
            continue
        if frag.start_layer < prov.end_layer and prov.start_layer < frag.end_layer:
            return True
    return False


class _Search:
    def __init__(self, pool, batch, cfg, with_inference):
        self.pool = pool
        self.batch = batch
        self.cfg = cfg
        self.with_inference = with_inference
        self.stats = GenerationStats()
        # (net, score, outputs, joints evaluated so far) per emitted net
        self.emitted = []
        # per-run caches, pure functions of (pool, batch)
        self.native_inputs = {}  # (net id, start layer) -> forward_upto activation
        # (net id, start layer) -> CkaSide; the fragment's first layer fixes
        # the native operand, which linear and conv-to-linear joints share
        self.native_sides = {}
        self.candidates = sorted(
            (f for f in pool.fragments if not f.is_starting and f.kind != "degenerate"),
            key=lambda f: f.id,
        )

    def native_input(self, frag):
        net_id = frag.source_network_id
        key = (net_id, frag.start_layer)
        if key not in self.native_inputs:
            # one pass captures the native input of every candidate of this net
            starts = [f.start_layer for f in self.candidates if f.source_network_id == net_id]
            taps = forward_taps(self.pool.network(net_id), starts, self.batch)
            self.native_inputs.update(((net_id, start), y) for start, y in taps.items())
        return self.native_inputs[key]

    def _score_joint(self, frag, x_q, kind, chain_sides):
        y_raw = self.native_input(frag)
        # the chain operand depends on the candidate only through the joint
        # kind and (conv joints resize to it) the native spatial size
        chain_key = (kind, y_raw.shape[2:])
        x_side = chain_sides.get(chain_key)
        if x_side is None:
            x_side = chain_sides[chain_key] = cka_side(chain_operand(x_q, kind, y_raw.shape))
        native_key = (frag.source_network_id, frag.start_layer)
        y_side = self.native_sides.get(native_key)
        if y_side is None:
            y_side = self.native_sides[native_key] = cka_side(native_operand(y_raw, kind))
        self.stats.cka_computations += 1
        try:
            score = cka_from_sides(x_side, y_side)
        except DegenerateActivationsError:
            warnings.warn(f"degenerate joint activations at candidate {frag.id!r}, scoring 0")
            score = 0.0
        return score, y_raw

    def rank_candidates(self, q, x_q):
        """Pick the span-K candidates for node q under the strategy.

        Returns (fragment, cka, kind, y_raw) tuples; ties break on fragment
        id. top_cka scores every shape-compatible non-overlapping fragment
        once; fewest_params selects by size and scores only the selection.
        """
        usable = []
        for frag in self.candidates:
            if _spans_overlap(frag, q):
                continue
            try:
                kind = joint_kind(x_q, frag)
            except UnsupportedJointError:
                continue
            usable.append((frag, kind))
        top_cka = self.cfg.candidate_strategy == "top_cka"
        if not top_cka:
            usable.sort(key=lambda t: (t[0].n_params, t[0].id))
            usable = usable[: self.cfg.span_k]
        chain_sides = {}  # this node's chain operand sides
        scored = []
        for frag, kind in usable:
            score, y_raw = self._score_joint(frag, x_q, kind, chain_sides)
            scored.append((frag, score, kind, y_raw))
        if top_cka:
            scored.sort(key=lambda t: (-t[1], t[0].id))
        return scored[: self.cfg.span_k]

    def expand(self, q, x_q, score):
        if q.n_fragments >= self.cfg.max_fragments:
            return
        stats = self.stats
        for frag, joint_cka, kind, y_raw in self.rank_candidates(q, x_q):
            stats.candidates_evaluated += 1
            stats.samples_processed += self.cfg.samples_m
            new_score = score * joint_cka
            if not (new_score > self.cfg.threshold):
                stats.joints_rejected += 1
                continue
            labels = self.pool.network(frag.source_network_id).class_labels
            q2 = stitch(
                q,
                frag,
                x_q,
                y_raw,
                ridge=self.cfg.ridge,
                joint_cka=joint_cka,
                terminal_labels=labels,
            )
            # incremental forward: only the newly appended segment runs
            segment = list(q2.adapters[-1]) + list(q2.fragments[-1].layers)
            x_q2 = x_q
            for layer in segment:
                x_q2 = layer.forward(x_q2)
            if frag.is_terminating:
                stats.stitchnets_emitted += 1
                outputs = x_q2 if self.with_inference else None
                self.emitted.append((q2, new_score, outputs, stats.candidates_evaluated))
            else:
                self.expand(q2, x_q2, new_score)

    def run_root(self, root):
        net = self.pool.network(root.source_network_id)
        q = start_stitchnet(root, net)
        self.expand(q, forward(q, self.batch), 1.0)


def _select_roots(pool, cfg):
    roots = sorted(pool.starting_fragments, key=lambda f: f.id)
    roots = [f for f in roots if f.kind != "degenerate"]
    if cfg.starting_ids is not None:
        wanted = set(cfg.starting_ids)
        roots = [f for f in roots if f.id in wanted or f.source_network_id in wanted]
    if not roots:
        raise ConfigError("no starting fragments selected")
    return roots


def select_candidates(pool, q, k, strategy, batch, x_q=None):
    """Rank the shape-compatible middle/terminating fragments for chain q.

    top_cka orders by compatibility with q's current output on the batch,
    fewest_params by ascending parameter count; ties break on fragment id.
    Returns at most k fragments.
    """
    cfg = GenerationConfig(span_k=k, candidate_strategy=strategy, samples_m=max(2, batch.shape[0]))
    search = _Search(pool, batch, cfg, False)
    if x_q is None:
        x_q = forward(q, batch)
    return [t[0] for t in search.rank_candidates(q, x_q)]


def generate(pool, dataset, cfg, with_inference=False):
    """Run the composition search; see the module docstring.

    Returns completed stitched networks sorted by score (descending) with
    evaluation counters. with_inference=True additionally captures each
    emitted network's class probabilities on the target samples at emission
    time.
    """
    t0 = time.perf_counter()
    if not any(f.is_starting and f.kind != "degenerate" for f in pool.fragments):
        raise ConfigError("pool has no starting fragments")
    if not any(f.is_terminating and f.kind != "degenerate" for f in pool.fragments):
        raise ConfigError("pool has no terminating fragments")
    if len(dataset) < cfg.samples_m:
        raise ConfigError(
            f"dataset has {len(dataset)} samples, config wants M={cfg.samples_m}"
        )
    rng = np.random.default_rng(cfg.seed)
    idx = np.sort(rng.choice(len(dataset), size=cfg.samples_m, replace=False))
    batch = dataset.images[idx]

    search = _Search(pool, batch, cfg, with_inference)
    # roots run in sorted order, so an emission's joint count includes
    # every earlier root's joints (cost-to-reach accounting)
    for root in _select_roots(pool, cfg):
        search.run_root(root)
    stats = search.stats
    raw = search.emitted
    raw.sort(key=lambda t: (-t[1], t[0].provenance_key))
    entries = []
    outputs = {} if with_inference else None
    emission_joints = {}
    for rank, (sn, score, probs, joints_at_emit) in enumerate(raw):
        sn.id = f"sn{rank:03d}"
        entries.append((sn, score))
        emission_joints[sn.id] = joints_at_emit
        if with_inference:
            outputs[sn.id] = probs
    stats.wall_time = time.perf_counter() - t0
    return GenerationResult(
        entries=entries, stats=stats, task_outputs=outputs, emission_joints=emission_joints
    )

