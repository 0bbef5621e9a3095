"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time
from contextlib import contextmanager

import numpy as np

from stitchkit.cka import cka_linear
from stitchkit.data import make_synthetic_dataset, remap_dataset
from stitchkit.evaluate import ensemble_predict, ensemble_sweep, evaluate, select_ensemble_pool, write_csv
from stitchkit.generate import GenerationConfig, generate
from stitchkit.layers import Conv2d
from stitchkit.network import forward, forward_upto, fragmentize, models_equal
from stitchkit.serialize import load_network, save_network
from stitchkit.stitching import (
    JOINT_CONV_LINEAR,
    fuse_conv,
    fuse_linear,
    joint_kind,
    prepare_joint,
    start_stitchnet,
    stitch,
)
from stitchkit.tensor_ops import adaptive_avg_pool_1x1, solve_projection
from stitchkit.training import finetune_last_layer, loss_and_grads, train_network
from stitchkit.zoo import resolve_arch


@contextmanager
def criterion(number, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL (over time limit)"
    print(f"\n[ACCEPTANCE] criterion {number} ({name}): {verdict} [{elapsed:.1f}s < {limit_s}s]")
    assert elapsed < limit_s


def test_criterion_1_cka_correctness():
    with criterion(1, "CKA correctness suite", 5.0):
        rng = np.random.default_rng(100)
        x = rng.normal(size=(16, 48))
        assert abs(cka_linear(x, x) - 1.0) < 1e-9

        y = rng.normal(size=(9, 48))
        assert abs(cka_linear(x, y) - cka_linear(y, x)) < 1e-12

        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        assert abs(cka_linear(x, 3.7 * q @ x) - 1.0) < 1e-8
        assert abs(cka_linear(x, 0.02 * x) - 1.0) < 1e-8

        for trial in range(100):
            n = int(rng.integers(4, 65))
            p = int(rng.integers(1, 33))
            qd = int(rng.integers(1, 33))
            a = rng.normal(size=(p, n))
            b = rng.normal(size=(qd, n))
            val = cka_linear(a, b)
            assert 0.0 <= val <= 1.0 + 1e-9
            # covariance-Frobenius form of the same ratio
            ac = a - a.mean(axis=1, keepdims=True)
            bc = b - b.mean(axis=1, keepdims=True)
            want = np.linalg.norm(ac @ bc.T) ** 2 / (
                np.linalg.norm(ac @ ac.T) * np.linalg.norm(bc @ bc.T)
            )
            assert abs(val - want) / want < 1e-8


def test_criterion_2_projection_fusion():
    with criterion(2, "projection/fusion suite", 10.0):
        rng = np.random.default_rng(200)
        # planted-matrix recovery on full-rank instances
        for _ in range(50):
            p = int(rng.integers(2, 9))
            qd = int(rng.integers(2, 9))
            n = p + int(rng.integers(8, 24))
            x = rng.normal(size=(p, n))
            b = rng.normal(size=(qd, p))
            a = solve_projection(x, b @ x, ridge=0.0)
            assert np.abs(a - b).max() < 1e-8

        # linear joint: fused forward == explicit project-then-apply
        for _ in range(50):
            l, qd, p, n = (int(rng.integers(2, 7)) for _ in range(4))
            n += 4
            w = rng.normal(size=(l, qd))
            a = rng.normal(size=(qd, p))  # projection, old-space rows
            v = rng.normal(size=(n, p))
            fused = fuse_linear(w, a.T)
            assert np.abs(v @ fused.T - (v @ a.T) @ w.T).max() < 1e-9

        # conv joint (per-position channel projection oracle)
        for _ in range(50):
            o = int(rng.integers(1, 5))
            cj = int(rng.integers(1, 5))
            ck = int(rng.integers(1, 5))
            w = rng.normal(size=(o, cj, 3, 3))
            a = rng.normal(size=(cj, ck))  # old x new
            x = rng.normal(size=(2, ck, 6, 6))
            fused = fuse_conv(w, a.T)
            x_proj = np.einsum("jk,nkhw->njhw", a, x)
            got = Conv2d(fused, np.zeros(o), 1, 1, "f").forward(x)
            want = Conv2d(w, np.zeros(o), 1, 1, "w").forward(x_proj)
            assert np.abs(got - want).max() < 1e-9

        # conv->linear joint: pool, flatten, project, apply
        for _ in range(50):
            l = int(rng.integers(2, 6))
            qd = int(rng.integers(2, 6))
            c = int(rng.integers(1, 5))
            w = rng.normal(size=(l, qd))
            x = rng.normal(size=(3, c, 5, 5))
            y = rng.normal(size=(3, qd))
            xm, ym = prepare_joint(x, y, JOINT_CONV_LINEAR)
            a = solve_projection(xm, ym, ridge=1e-9)
            fused = fuse_linear(w, a.T)
            pooled = adaptive_avg_pool_1x1(x).reshape(3, -1)
            assert np.abs(pooled @ fused.T - (pooled @ a.T) @ w.T).max() < 1e-9


def test_criterion_3_self_recomposition(zoo, dataset8):
    with criterion(3, "self-recomposition", 30.0):
        net = next(n for n in zoo if n.id == "cnn_a")
        frags = fragmentize(net)
        rng = np.random.default_rng(300)
        idx = np.sort(rng.choice(len(dataset8.train), size=32, replace=False))
        batch = dataset8.train.images[idx]

        q = start_stitchnet(frags[0], net)
        for frag in frags[1:]:
            x_raw = forward(q, batch)
            y_raw = forward_upto(net, frag.start_layer, batch)
            kind = joint_kind(x_raw, frag)
            xm, ym = prepare_joint(x_raw, y_raw, kind)
            a = solve_projection(xm, ym)  # default ridge
            dim = a.shape[0]
            assert a.shape[0] == a.shape[1]
            assert np.linalg.norm(a - np.eye(dim)) / np.sqrt(dim) <= 1e-2
            q = stitch(q, frag, x_raw, y_raw, terminal_labels=net.class_labels)

        held = dataset8.test.images
        agree = np.mean(
            np.argmax(forward(q, held), axis=1) == np.argmax(forward(net, held), axis=1)
        )
        assert agree >= 0.99


def test_criterion_4_algorithm_behavior(pool, dataset8, genresult):
    with criterion(4, "composition search behavior", 300.0):
        assert len(pool.networks) == 3
        assert len(pool.fragments) >= 12
        cfg = GenerationConfig(span_k=2, threshold=0.5, max_fragments=16, samples_m=32, seed=7)

        assert genresult.entries
        for sn, score in genresult.entries:
            assert sn.fragments[-1].is_terminating
            running = 1.0
            for prov in sn.provenance:
                running *= prov.cka
                assert running > cfg.threshold
        s = len(pool.starting_fragments)
        bound = s * (cfg.span_k**cfg.max_fragments - 1) // (cfg.span_k - 1)
        assert genresult.stats.candidates_evaluated <= bound

        repeat = generate(pool, dataset8.train, cfg)

        def snapshot(res):
            return [
                (
                    sn.id,
                    repr(score),
                    sn.provenance_key,
                    b"".join(p.tobytes() for l in sn.chain for p in l.params().values()),
                )
                for sn, score in res.entries
            ]

        assert snapshot(repeat) == snapshot(genresult)


def test_criterion_5_accuracy_vs_score(zoo, genresult, dataset8, subtask_map):
    with criterion(5, "accuracy vs score analog", 600.0):
        evals = {sn.id: evaluate(sn, dataset8.test, subtask_map) for sn, _ in genresult.entries}
        zoo_evals = {n.id: evaluate(n, dataset8.test, subtask_map) for n in zoo}

        best_sn_acc = max(r.accuracy for r in evals.values())
        best_zoo_acc = max(r.accuracy for r in zoo_evals.values())
        assert best_sn_acc >= best_zoo_acc - 0.02

        largest = max(zoo, key=lambda n: n.n_params)
        largest_acc = zoo_evals[largest.id].accuracy
        small_matchers = [
            sn
            for sn, _ in genresult.entries
            if sn.n_params < largest.n_params
            and abs(evals[sn.id].accuracy - largest_acc) <= 0.05
        ]
        assert small_matchers

        accs = np.array([evals[sn.id].accuracy for sn, _ in genresult.entries])
        scores = np.array([score for _, score in genresult.entries])
        high = accs[scores >= 0.9]
        assert len(high) > 0
        assert high.mean() >= accs.mean()


def test_criterion_6_data_efficiency(zoo, pool, dataset8, subtask_map):
    with criterion(6, "creation cost vs fine-tuning", 900.0):
        sub_train = remap_dataset(dataset8.train, subtask_map)
        sub_test = remap_dataset(dataset8.test, subtask_map)
        budget = 12800
        gen_costs = []
        ft_costs = {net.id: [] for net in zoo}
        for seed in range(5):
            cfg = GenerationConfig(samples_m=32, seed=seed)
            res = generate(pool, dataset8.train, cfg)
            accs = {
                sn.id: evaluate(sn, dataset8.test, subtask_map).accuracy
                for sn, _ in res.entries
            }
            best_acc = max(accs.values())
            cost = cfg.samples_m * min(
                res.emission_joints[sid] for sid, a in accs.items() if a >= best_acc
            )
            gen_costs.append(cost)
            for net in zoo:
                _, curve = finetune_last_layer(
                    net, sub_train, budget, seed=seed, eval_dataset=sub_test
                )
                reach = next((s for s, a in curve if a >= best_acc), budget)
                ft_costs[net.id].append(reach)

        gen_mean = np.mean(gen_costs)
        print(f"\n  generation cost (mean over 5 seeds): {gen_mean:.0f} samples")
        for net_id, costs in ft_costs.items():
            ft_mean = np.mean(costs)
            print(f"  fine-tune {net_id}: mean {ft_mean:.0f} samples {costs}")
            assert gen_mean < 0.5 * ft_mean


def test_criterion_7_ensembles(genresult, dataset8, subtask_map, tmp_path):
    with criterion(7, "ensemble suite", 60.0):
        sn = genresult.entries[0][0]
        batch = dataset8.test.images[:40]
        solo_probs, solo_labels = ensemble_predict([sn], batch)
        direct = forward(sn, batch)
        assert np.array_equal(solo_probs, direct)
        assert np.array_equal(solo_labels, np.argmax(direct, axis=1))

        models = select_ensemble_pool(genresult, cka_min=0.8, k=10)
        assert models
        assert all(m.cumulative_score > 0.8 for m in models)
        scores = [m.cumulative_score for m in models]
        assert scores == sorted(scores, reverse=True)

        probs, _ = ensemble_predict(models, batch, subtask_map)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

        rows = ensemble_sweep(models, dataset8.test, subtask_map)
        p1 = write_csv(tmp_path / "sweep1.csv", ["ensemble_size", "accuracy"], rows)
        rows2 = ensemble_sweep(models, dataset8.test, subtask_map)
        p2 = write_csv(tmp_path / "sweep2.csv", ["ensemble_size", "accuracy"], rows2)
        assert p1.read_bytes() == p2.read_bytes()


def test_criterion_8_infrastructure(zoo, genresult, dataset8, tmp_path):
    with criterion(8, "serialization, gradients, demo", 1200.0):
        # bit-exact round-trip for every zoo network and generated net
        for model in list(zoo) + [sn for sn, _ in genresult.entries]:
            path = save_network(model, tmp_path / "m.snet")
            back = load_network(path)
            assert models_equal(model, back)
            assert save_network(back, tmp_path / "m2.snet").read_bytes() == path.read_bytes()

        # finite-difference gradient check on the zoo trainer's architecture
        probe_ds = make_synthetic_dataset(8, 6, 16, seed=801)
        net = train_network(resolve_arch("cnn_a"), probe_ds, epochs=0, seed=802)
        body = net.layers[:-1]
        batch, labels = probe_ds.images[:12], probe_ds.labels[:12]
        _, grads = loss_and_grads(body, batch, labels)
        rng = np.random.default_rng(803)
        checked = 0
        eps = 1e-6
        for layer_idx in grads:
            for pname, g in grads[layer_idx].items():
                arr = body[layer_idx].params()[pname]
                for flat in rng.choice(arr.size, size=min(2, arr.size), replace=False):
                    orig = arr.flat[flat]
                    arr.flat[flat] = orig + eps
                    lp, _ = loss_and_grads(body, batch, labels)
                    arr.flat[flat] = orig - eps
                    lm, _ = loss_and_grads(body, batch, labels)
                    arr.flat[flat] = orig
                    numeric = (lp - lm) / (2 * eps)
                    denom = max(abs(numeric), 1e-4)
                    assert abs(g.flat[flat] - numeric) / denom < 1e-4
                    checked += 1
        assert checked >= 10

        # the end-to-end pipeline at reference settings
        from stitchkit.cli import main as cli_main

        demo_out = tmp_path / "demo"
        rc = cli_main(["demo", "--out", str(demo_out), "--seed", "7"])
        assert rc == 0
        report = demo_out / "report"
        for name in ("results.csv", "histograms.csv", "learning_curve.csv", "ensemble_sweep.csv"):
            lines = (report / name).read_text().splitlines()
            assert len(lines) > 1, f"{name} has no data rows"
        assert list((demo_out / "generated").glob("sn*.snet"))
