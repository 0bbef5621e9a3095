"""Composition search: pruning, bounds, determinism, candidate ranking."""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from stitchkit.data import Dataset
from stitchkit.errors import ConfigError
from stitchkit.generate import (
    GenerationConfig,
    generate,
    select_candidates,
)
from stitchkit.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Softmax
from stitchkit.network import Network, build_pool, forward
from stitchkit.stitching import start_stitchnet


def small_net(seed, in_ch=1, num_classes=3, width=4):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(rng.normal(0, 0.5, (width, in_ch, 3, 3)), rng.normal(0, 0.1, width), 1, 1, "c1"),
        ReLU("r1"),
        MaxPool2d(2, 2, "p1"),
        Flatten("fl"),
        Linear(rng.normal(0, 0.3, (6, width * 16)), rng.normal(0, 0.1, 6), "fc1"),
        ReLU("r2"),
        Linear(rng.normal(0, 0.3, (num_classes, 6)), rng.normal(0, 0.1, num_classes), "fc2"),
        Softmax("sm"),
    ]
    return Network(layers, (in_ch, 8, 8), [f"c{i}" for i in range(num_classes)], f"small{seed}")


def random_dataset(n=64, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(n, 1, 8, 8))
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    return Dataset(images, labels, ["c0", "c1", "c2"], seed)


@pytest.fixture(scope="module")
def tiny_pool():
    return build_pool([small_net(s) for s in (1, 2, 3)])


class TestGenerate:
    def test_single_network_self_recomposition(self):
        net = small_net(10)
        pool = build_pool([net])
        ds = random_dataset(seed=11)
        cfg = GenerationConfig(span_k=len(pool.fragments), threshold=0.0, samples_m=48, seed=0)
        res = generate(pool, ds, cfg)
        keys = {sn.provenance_key for sn, _ in res.entries}
        ordered = "|".join(
            f"{f.source_network_id}:{f.start_layer}-{f.end_layer}" for f in pool.fragments
        )
        assert ordered in keys
        score = dict((sn.provenance_key, s) for sn, s in res.entries)[ordered]
        assert score >= 0.99

    def test_threshold_one_yields_nothing(self, tiny_pool):
        ds = random_dataset(seed=12)
        cfg = GenerationConfig(threshold=1.0, samples_m=32, seed=1)
        res = generate(tiny_pool, ds, cfg)
        assert res.entries == []
        assert res.stats.joints_rejected > 0

    def test_entries_terminate_and_clear_threshold(self, tiny_pool):
        ds = random_dataset(seed=13)
        cfg = GenerationConfig(threshold=0.4, samples_m=32, seed=2)
        res = generate(tiny_pool, ds, cfg)
        assert res.entries
        for sn, score in res.entries:
            assert sn.fragments[-1].is_terminating
            assert score > 0.4
            # prefix scores never dip below the threshold (pruning soundness)
            running = 1.0
            for prov in sn.provenance:
                running *= prov.cka
                assert running > 0.4
            assert abs(running - sn.cumulative_score) < 1e-9

    def test_scores_sorted_descending(self, tiny_pool):
        ds = random_dataset(seed=14)
        res = generate(tiny_pool, ds, GenerationConfig(threshold=0.3, samples_m=32, seed=3))
        scores = [s for _, s in res.entries]
        assert scores == sorted(scores, reverse=True)

    def test_score_monotone_along_provenance(self, tiny_pool):
        ds = random_dataset(seed=15)
        res = generate(tiny_pool, ds, GenerationConfig(threshold=0.2, samples_m=32, seed=4))
        for sn, _ in res.entries:
            running = 1.0
            prev = 1.0
            for prov in sn.provenance:
                running *= prov.cka
                assert running <= prev + 1e-12
                prev = running

    def test_joint_evaluations_within_span_bound(self, tiny_pool):
        ds = random_dataset(seed=16)
        k, depth = 2, 5
        cfg = GenerationConfig(span_k=k, threshold=0.0, max_fragments=depth, samples_m=32, seed=5)
        res = generate(tiny_pool, ds, cfg)
        s = len(tiny_pool.starting_fragments)
        bound = s * (k**depth - 1) // (k - 1)
        assert res.stats.candidates_evaluated <= bound

    def test_depth_caps_fragment_count(self, tiny_pool):
        ds = random_dataset(seed=17)
        cfg = GenerationConfig(span_k=3, threshold=0.0, max_fragments=3, samples_m=32, seed=6)
        res = generate(tiny_pool, ds, cfg)
        assert res.entries
        assert max(sn.n_fragments for sn, _ in res.entries) <= 3

    def test_bit_deterministic_across_repeats_and_threads(self, tiny_pool):
        ds = random_dataset(seed=18)
        cfg = GenerationConfig(threshold=0.3, samples_m=32, seed=7)

        def snap(res):
            return [
                (
                    sn.id,
                    repr(score),
                    sn.provenance_key,
                    b"".join(p.tobytes() for l in sn.chain for p in l.params().values()),
                )
                for sn, score in res.entries
            ]

        a = generate(tiny_pool, ds, cfg)
        b = generate(tiny_pool, ds, cfg)
        assert snap(a) == snap(b)
        assert a.emission_joints == b.emission_joints

    def test_empty_starting_selection_rejected(self, tiny_pool):
        ds = random_dataset(seed=19)
        cfg = GenerationConfig(samples_m=32, seed=8, starting_ids=["nothere"])
        with pytest.raises(ConfigError):
            generate(tiny_pool, ds, cfg)

    def test_starting_ids_restrict_roots(self, tiny_pool):
        ds = random_dataset(seed=20)
        cfg = GenerationConfig(threshold=0.0, samples_m=32, seed=9, starting_ids=["small1"])
        res = generate(tiny_pool, ds, cfg)
        assert res.entries
        for sn, _ in res.entries:
            assert sn.provenance[0].source_network_id == "small1"

    def test_dataset_smaller_than_m_rejected(self, tiny_pool):
        ds = random_dataset(n=8, seed=21)
        with pytest.raises(ConfigError):
            generate(tiny_pool, ds, GenerationConfig(samples_m=32))

    def test_no_overlapping_spans_within_one_net(self, tiny_pool):
        ds = random_dataset(seed=22)
        res = generate(tiny_pool, ds, GenerationConfig(threshold=0.2, samples_m=32, seed=10))
        for sn, _ in res.entries:
            seen = {}
            for prov in sn.provenance:
                for lo, hi in seen.get(prov.source_network_id, []):
                    assert not (prov.start_layer < hi and lo < prov.end_layer)
                seen.setdefault(prov.source_network_id, []).append(
                    (prov.start_layer, prov.end_layer)
                )

    def test_samples_processed_accounting(self, tiny_pool):
        ds = random_dataset(seed=23)
        cfg = GenerationConfig(threshold=0.5, samples_m=16, seed=11)
        res = generate(tiny_pool, ds, cfg)
        assert res.stats.samples_processed == 16 * res.stats.candidates_evaluated

    def test_degenerate_joint_scores_zero_with_warning(self):
        # a donor whose fragments natively receive constant activations:
        # zeroed first-layer weights kill all variation downstream
        dead = small_net(40)
        dead.layers[0].weight[...] = 0.0
        dead.layers[0].bias[...] = 1.0
        dead.id = "deadnet"
        live = small_net(41)
        pool = build_pool([live, dead])
        ds = random_dataset(seed=42)
        # threshold above numeric noise: the dead joints score 0 (warned) or
        # garbage near 0 and must be pruned either way
        cfg = GenerationConfig(
            span_k=20, threshold=0.3, samples_m=32, seed=0, starting_ids=["small41"]
        )
        with pytest.warns(UserWarning, match="degenerate") as record:
            res = generate(pool, ds, cfg)
        dead_ids = {f.id for f in pool.fragments if f.source_network_id == "deadnet"}
        named = [
            re.fullmatch(
                r"degenerate joint activations at candidate '(.+)', scoring 0",
                str(w.message),
            )
            for w in record
            if "degenerate" in str(w.message)
        ]
        assert named and all(m is not None for m in named)
        assert {m.group(1) for m in named} <= dead_ids
        assert res.entries
        assert res.stats.joints_rejected > 0
        for sn, _ in res.entries:
            assert all(p.source_network_id != "deadnet" for p in sn.provenance[1:])


def conv_net(seed, width=4):
    """Three conv layers, then a linear head: conv, conv-to-linear joints."""
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(rng.normal(0, 0.5, (width, 1, 3, 3)), rng.normal(0, 0.1, width), 1, 1, "c1"),
        ReLU("r1"),
        Conv2d(rng.normal(0, 0.4, (width + 2, width, 3, 3)), rng.normal(0, 0.1, width + 2), 1, 1, "c2"),
        ReLU("r2"),
        MaxPool2d(2, 2, "p1"),
        Conv2d(rng.normal(0, 0.4, (width, width + 2, 3, 3)), rng.normal(0, 0.1, width), 1, 1, "c3"),
        ReLU("r3"),
        Flatten("fl"),
        Linear(rng.normal(0, 0.3, (3, width * 16)), rng.normal(0, 0.1, 3), "fc"),
        Softmax("sm"),
    ]
    return Network(layers, (1, 8, 8), ["c0", "c1", "c2"], f"conv{seed}")


def search_digest(res):
    """sha256 over ids, score and per-joint CKA reprs, provenance, emission
    joint counts, fused weight bytes, task outputs and the counters."""
    h = hashlib.sha256()
    for sn, score in res.entries:
        h.update(f"{sn.id};{score!r};{sn.provenance_key};{res.emission_joints[sn.id]};".encode())
        h.update(";".join(repr(p.cka) for p in sn.provenance).encode())
        for layer in sn.chain:
            for name, arr in sorted(layer.params().items()):
                h.update(name.encode())
                h.update(arr.tobytes())
        h.update(res.task_outputs[sn.id].tobytes())
    st = res.stats
    counters = (
        st.candidates_evaluated,
        st.joints_rejected,
        st.cka_computations,
        st.stitchnets_emitted,
        st.samples_processed,
    )
    h.update(repr(counters).encode())
    return h.hexdigest()


class TestSearchCost:
    """The search scores joints from cached CKA sides and one native forward
    pass per source network, with the output of scoring each joint afresh."""

    # captured from the search that ran cka_linear and forward_upto per joint
    GOLDEN_TINY = "95b910cf720c659e59d1752a48ab70882602761de1ca71e8d8292599c8bdacd0"
    GOLDEN_CONV = "eeda9601c2c1ad71833a2966e3a9f6dab5092444ccff2baa10b0cedb9e40ede6"

    def test_tiny_pool_matches_golden_digest(self, tiny_pool):
        cfg = GenerationConfig(threshold=0.2, samples_m=32, seed=15)
        res = generate(tiny_pool, random_dataset(seed=31), cfg, with_inference=True)
        assert len(res.entries) == 6
        assert search_digest(res) == self.GOLDEN_TINY

    def test_conv_pool_matches_golden_digest(self):
        # conv joints fold 32 x 8 x 8 positions into samples: feature-space sides
        pool = build_pool([conv_net(s) for s in (4, 5)], fine=True)
        cfg = GenerationConfig(threshold=0.2, samples_m=32, seed=16)
        res = generate(pool, random_dataset(seed=32), cfg, with_inference=True)
        assert len(res.entries) == 20
        assert search_digest(res) == self.GOLDEN_CONV

    def test_one_native_pass_per_source_network(self, monkeypatch):
        pool = build_pool([conv_net(s) for s in (4, 5)], fine=True)
        calls = Counter()
        for cls in {type(l) for net in pool.networks for l in net.layers}:
            def counted(self, x, _forward=cls.forward):
                calls[id(self)] += 1
                return _forward(self, x)

            monkeypatch.setattr(cls, "forward", counted)
        res = generate(pool, random_dataset(seed=32), GenerationConfig(threshold=0.2, samples_m=32, seed=16))
        assert res.stats.cka_computations > len(pool.fragments)
        # chains run copies of their fragments' weighted layers (parameter-free
        # layers are shared), so a source network's own weighted layers run
        # only in its native pass
        for net in pool.networks:
            deepest = max(f.start_layer for f in pool.fragments if f.source_network_id == net.id)
            weighted = [(i, l) for i, l in enumerate(net.layers) if l.n_params]
            assert len(weighted) == 4
            for i, layer in weighted:
                assert calls[id(layer)] == (1 if i < deepest else 0), (net.id, i)


class TestSelectCandidates:
    def test_k_at_least_pool_returns_all_compatible(self, tiny_pool):
        ds = random_dataset(seed=24)
        root = tiny_pool.starting_fragments[0]
        q = start_stitchnet(root, tiny_pool.network(root.source_network_id))
        cands = select_candidates(tiny_pool, q, 100, "top_cka", ds.images[:32])
        non_starting = [f for f in tiny_pool.fragments if not f.is_starting]
        # everything here is shape-compatible and non-overlapping except the
        # fragments of the root's own span
        assert len(cands) == len([f for f in non_starting if not (
            f.source_network_id == root.source_network_id
            and f.start_layer < root.end_layer
        )])

    def test_deterministic_tie_break_orders_by_id(self, tiny_pool):
        ds = random_dataset(seed=25)
        root = tiny_pool.starting_fragments[0]
        q = start_stitchnet(root, tiny_pool.network(root.source_network_id))
        a = select_candidates(tiny_pool, q, 5, "top_cka", ds.images[:32])
        b = select_candidates(tiny_pool, q, 5, "top_cka", ds.images[:32])
        assert [f.id for f in a] == [f.id for f in b]

    def test_fewest_params_orders_ascending(self, tiny_pool):
        ds = random_dataset(seed=26)
        root = tiny_pool.starting_fragments[0]
        q = start_stitchnet(root, tiny_pool.network(root.source_network_id))
        cands = select_candidates(tiny_pool, q, 4, "fewest_params", ds.images[:32])
        params = [f.n_params for f in cands]
        assert params == sorted(params)

    def test_top_cka_mean_beats_fewest_params(self, tiny_pool):
        from stitchkit.cka import cka_linear
        from stitchkit.network import forward_upto
        from stitchkit.stitching import joint_kind, prepare_joint

        ds = random_dataset(seed=27)
        batch = ds.images[:32]
        root = tiny_pool.starting_fragments[0]
        q = start_stitchnet(root, tiny_pool.network(root.source_network_id))
        x_q = forward(q, batch)

        def mean_cka(frags):
            vals = []
            for f in frags:
                y = forward_upto(tiny_pool.network(f.source_network_id), f.start_layer, batch)
                xm, ym = prepare_joint(x_q, y, joint_kind(x_q, f))
                vals.append(cka_linear(xm, ym))
            return np.mean(vals)

        top = select_candidates(tiny_pool, q, 3, "top_cka", batch, x_q=x_q)
        cheap = select_candidates(tiny_pool, q, 3, "fewest_params", batch, x_q=x_q)
        assert mean_cka(top) >= mean_cka(cheap) - 1e-12


class TestGenerateWithInference:
    def test_outputs_rows_sum_to_one(self, tiny_pool):
        ds = random_dataset(seed=28)
        res = generate(
            tiny_pool, ds, GenerationConfig(threshold=0.3, samples_m=32, seed=12), with_inference=True
        )
        assert res.task_outputs
        for probs in res.task_outputs.values():
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_outputs_match_posthoc_forward(self, tiny_pool):
        ds = random_dataset(seed=29)
        cfg = GenerationConfig(threshold=0.3, samples_m=32, seed=13)
        res = generate(tiny_pool, ds, cfg, with_inference=True)
        rng = np.random.default_rng(cfg.seed)
        idx = np.sort(rng.choice(len(ds), size=cfg.samples_m, replace=False))
        batch = ds.images[idx]
        for sn, _ in res.entries:
            again = forward(sn, batch)
            assert np.abs(res.task_outputs[sn.id] - again).max() < 1e-12

    def test_on_the_fly_labels_match_evaluator(self, tiny_pool):
        from stitchkit.evaluate import evaluate

        ds = random_dataset(seed=30)
        cfg = GenerationConfig(threshold=0.3, samples_m=32, seed=14)
        res = generate(tiny_pool, ds, cfg, with_inference=True)
        rng = np.random.default_rng(cfg.seed)
        idx = np.sort(rng.choice(len(ds), size=cfg.samples_m, replace=False))
        target = ds.subset(idx)
        for sn, _ in res.entries[:3]:
            labels = np.argmax(res.task_outputs[sn.id], axis=1)
            report = evaluate(sn, target, allow_train_split=True)
            assert report.accuracy == float((labels == target.labels).mean())
