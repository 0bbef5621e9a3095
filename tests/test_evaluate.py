"""Evaluation, ensembles, and report emission."""

import numpy as np
import pytest

from stitchkit.data import Dataset, apply_label_map, superclass_label_map
from stitchkit.errors import ConfigError, DimensionError
from stitchkit.evaluate import (
    emit_report,
    ensemble_predict,
    ensemble_sweep,
    evaluate,
    evaluate_many,
    read_evals_csv,
    select_ensemble_pool,
    write_evals_csv,
)
from stitchkit.generate import GenerationResult, GenerationStats
from stitchkit.layers import Conv2d, Flatten, Linear, ReLU, Softmax
from stitchkit.network import Network, PrefixTree, forward
from stitchkit.serialize import load_network, save_network


def onehot_oracle_net(num_classes=3):
    """Emits near-one-hot probabilities matching the one-hot input images."""
    from stitchkit.layers import Flatten

    w = np.eye(num_classes) * 50.0
    return Network(
        [Flatten("fl"), Linear(w, np.zeros(num_classes), "fc"), Softmax("sm")],
        (num_classes, 1, 1),
        [f"c{i}" for i in range(num_classes)],
        "oracle",
    )


def onehot_dataset(num_classes=3, n=30, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    images = np.eye(num_classes)[labels]
    return Dataset(
        images.reshape(n, num_classes, 1, 1), labels, [f"c{i}" for i in range(num_classes)], seed
    )


class FlatModel:
    """Minimal stand-in for evaluate(): fixed per-sample probabilities."""

    def __init__(self, probs, model_id="flat"):
        self._probs = np.asarray(probs, dtype=np.float64)
        self.id = model_id
        self.n_params = 0
        self.layers = [self]
        self.kind = "fixed"
        self.name = "fixed"

    def forward(self, x):
        return self._probs[: x.shape[0]]


class TestEvaluate:
    def test_onehot_model_scores_one(self):
        ds = onehot_dataset()
        net = onehot_oracle_net()
        report = evaluate(net, ds, batch_size=7)
        assert report.accuracy == 1.0
        assert report.n_correct == report.n_total == 30

    def test_uniform_model_ties_break_to_class_zero(self):
        n = 40
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=n).astype(np.int64)
        ds = Dataset(np.zeros((n, 2, 1, 1)), labels, ["a", "b"], 1)
        model = FlatModel(np.full((n, 2), 0.5))
        report = evaluate(model, ds)
        # every prediction is class 0, so accuracy equals class-0 frequency
        assert report.accuracy == float((labels == 0).mean())

    def test_matches_per_sample_loop_oracle(self, genresult, dataset8, subtask_map):
        sn = genresult.entries[0][0]
        report = evaluate(sn, dataset8.test, subtask_map)
        probs = forward(sn, dataset8.test.images)
        grouped = np.zeros((probs.shape[0], 2))
        for s, t in subtask_map.mapping.items():
            grouped[:, t] += probs[:, s]
        correct = 0
        for i in range(probs.shape[0]):
            pred = int(np.argmax(grouped[i]))
            truth = subtask_map.mapping[int(dataset8.test.labels[i])]
            correct += int(pred == truth)
        assert report.accuracy == correct / probs.shape[0]

    def test_invariant_to_sample_order(self, genresult, dataset8, subtask_map):
        sn = genresult.entries[0][0]
        perm = np.random.default_rng(2).permutation(len(dataset8.test))
        a = evaluate(sn, dataset8.test, subtask_map)
        b = evaluate(sn, dataset8.test.subset(perm), subtask_map)
        assert a.accuracy == b.accuracy

    def test_train_split_refused(self, dataset8):
        net = onehot_oracle_net(8)
        with pytest.raises(ConfigError):
            evaluate(net, dataset8.train)

    def test_label_map_incompatible_head(self):
        ds = onehot_dataset(3)
        net = onehot_oracle_net(3)
        with pytest.raises(ConfigError):
            evaluate(net, ds, superclass_label_map(8, 2))


class TestEnsemblePredict:
    def test_single_model_identity(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=10)
        model = FlatModel(probs)
        batch = np.zeros((10, 1))
        got, labels = ensemble_predict([model], batch)
        assert np.array_equal(got, probs)
        assert np.array_equal(labels, probs.argmax(axis=1))

    def test_two_opposed_models_tie_to_class_zero(self):
        a = FlatModel(np.array([[1.0, 0.0]]))
        b = FlatModel(np.array([[0.0, 1.0]]))
        probs, labels = ensemble_predict([a, b], np.zeros((1, 1)))
        assert np.array_equal(probs, [[0.5, 0.5]])
        assert labels[0] == 0

    def test_mean_matches_arithmetic_oracle(self):
        rng = np.random.default_rng(4)
        stack = [rng.dirichlet(np.ones(4), size=6) for _ in range(5)]
        models = [FlatModel(p, f"m{i}") for i, p in enumerate(stack)]
        probs, _ = ensemble_predict(models, np.zeros((6, 1)))
        want = sum(stack) / 5
        assert np.abs(probs - want).max() < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        models = [FlatModel(rng.dirichlet(np.ones(3), size=8)) for _ in range(3)]
        probs, _ = ensemble_predict(models, np.zeros((8, 1)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_identical_members_equal_single_model(self, genresult, dataset8):
        sn = genresult.entries[0][0]
        batch = dataset8.test.images[:24]
        solo = forward(sn, batch)
        probs, labels = ensemble_predict([sn, sn, sn], batch)
        assert np.array_equal(labels, np.argmax(solo, axis=1))
        assert np.abs(probs - solo).max() < 1e-15

    def test_heterogeneous_widths_rejected(self):
        a = FlatModel(np.ones((2, 3)) / 3)
        b = FlatModel(np.ones((2, 4)) / 4)
        with pytest.raises(DimensionError):
            ensemble_predict([a, b], np.zeros((2, 1)))


def _fake_result(scores):
    entries = []
    for i, s in enumerate(scores):
        sn = FlatModel(np.ones((1, 2)) * 0.5, f"sn{i:03d}")
        sn.cumulative_score = s
        entries.append((sn, s))
    entries.sort(key=lambda t: -t[1])
    return GenerationResult(entries=entries, stats=GenerationStats())


class TestSelectEnsemblePool:
    def test_threshold_one_empty(self):
        res = _fake_result([0.99, 0.95, 0.91])
        assert select_ensemble_pool(res, cka_min=1.0, k=5) == []

    def test_k_one_returns_best(self):
        res = _fake_result([0.7, 0.95, 0.9])
        picked = select_ensemble_pool(res, cka_min=0.5, k=1)
        assert len(picked) == 1
        assert picked[0].cumulative_score == 0.95

    def test_all_above_threshold_sorted(self):
        res = _fake_result([0.7, 0.95, 0.9, 0.85, 0.99])
        picked = select_ensemble_pool(res, cka_min=0.8, k=10)
        scores = [m.cumulative_score for m in picked]
        assert all(s > 0.8 for s in scores)
        assert scores == sorted(scores, reverse=True)


class TestEmitReport:
    def test_empty_results_header_only(self, tmp_path):
        res = GenerationResult(entries=[], stats=GenerationStats())
        files = emit_report(res, [], tmp_path)
        for f in files:
            lines = f.read_text().splitlines()
            assert len(lines) == 1 and "," in lines[0]

    def test_rerun_byte_identical(self, tmp_path, genresult, dataset8, subtask_map):
        evals = [evaluate(sn, dataset8.test, subtask_map) for sn, _ in genresult.entries]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(genresult, evals, d1)
        emit_report(genresult, evals, d2)
        for name in ("results.csv", "histograms.csv", "learning_curve.csv", "ensemble_sweep.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_histogram_counts_conserve_total(self, tmp_path, genresult, dataset8, subtask_map):
        evals = [evaluate(sn, dataset8.test, subtask_map) for sn, _ in genresult.entries]
        emit_report(genresult, evals, tmp_path)
        rows = (tmp_path / "histograms.csv").read_text().splitlines()[1:]
        totals = {}
        for row in rows:
            metric, _, _, _, count = row.split(",")
            totals[metric] = totals.get(metric, 0) + int(count)
        for metric, total in totals.items():
            assert total == len(genresult.entries), metric

    def test_eval_csv_roundtrip_exact(self, tmp_path, genresult, dataset8, subtask_map):
        evals = [evaluate(sn, dataset8.test, subtask_map) for sn, _ in genresult.entries[:5]]
        path = tmp_path / "evals.csv"
        write_evals_csv(evals, path)
        back = read_evals_csv(path)
        assert back == evals


class TestEnsembleSweep:
    def test_prefix_sizes_and_single_matches_evaluate(self, genresult, dataset8, subtask_map):
        models = select_ensemble_pool(genresult, cka_min=0.8, k=4)
        rows = ensemble_sweep(models, dataset8.test, subtask_map)
        assert [r[0] for r in rows] == list(range(1, len(models) + 1))
        single = evaluate(models[0], dataset8.test, subtask_map)
        assert rows[0][1] == single.accuracy


def per_net_probs(model, images, label_map=None, batch_size=256):
    """Oracle: the model alone through network.forward, batch by batch."""
    parts = []
    for start in range(0, images.shape[0], batch_size):
        probs = forward(model, images[start : start + batch_size])
        if label_map is not None:
            probs = apply_label_map(probs, label_map)
        parts.append(probs)
    return np.concatenate(parts, axis=0)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture()
def reloaded(tmp_path, genresult, zoo):
    """Generated and zoo nets read back from separate .snet files."""
    models = [sn for sn, _ in genresult.entries] + list(zoo)
    return [load_network(save_network(m, tmp_path / f"{m.id}.snet")) for m in models]


def count_forward_calls(monkeypatch, cls):
    calls = []
    original = cls.forward

    def counted(self, x):
        calls.append(self)
        return original(self, x)

    monkeypatch.setattr(cls, "forward", counted)
    return calls


class TestSharedPrefixWalk:
    def test_dataset_is_not_a_batch_multiple(self, dataset8):
        assert len(dataset8.test) % 256 != 0 and len(dataset8.test) > 256

    def test_evaluate_many_equals_per_net_forward(self, reloaded, dataset8, subtask_map):
        test = dataset8.test
        labels = subtask_map.map_labels(test.labels)
        reports = evaluate_many(reloaded, test, subtask_map)
        assert [r.model_id for r in reports] == [m.id for m in reloaded]
        for model, report in zip(reloaded, reports):
            preds = np.argmax(per_net_probs(model, test.images, subtask_map), axis=1)
            assert report.n_correct == int((preds == labels).sum())
            assert report == evaluate(model, test, subtask_map)

    def test_walk_probabilities_bit_identical(self, reloaded, dataset8, subtask_map):
        images = dataset8.test.images
        tree = PrefixTree(reloaded)
        for lm in (None, subtask_map):
            want = [per_net_probs(m, images, lm) for m in reloaded]
            got = [[] for _ in reloaded]
            for start in range(0, images.shape[0], 256):
                for part, p in zip(got, tree.forward(images[start : start + 256])):
                    part.append(p if lm is None else apply_label_map(p, lm))
            for model, w, g in zip(reloaded, want, got):
                assert same_bits(np.concatenate(g, axis=0), w), model.id

    def test_ensemble_sweep_and_predict_bit_identical(self, reloaded, dataset8, subtask_map):
        test = dataset8.test
        labels = subtask_map.map_labels(test.labels)
        models = reloaded[:6]
        probs = [per_net_probs(m, test.images, subtask_map) for m in models]
        want = []
        summed = None
        for size, p in enumerate(probs, start=1):
            summed = p if summed is None else summed + p
            want.append((size, float((np.argmax(summed / size, axis=1) == labels).mean())))
        assert ensemble_sweep(models, test, subtask_map) == want

        batch = test.images[:50]
        mean = np.zeros((50, 2))
        for m in models:
            mean += apply_label_map(forward(m, batch), subtask_map)
        mean /= len(models)
        got, preds = ensemble_predict(models, batch, subtask_map)
        assert same_bits(got, mean)
        assert np.array_equal(preds, np.argmax(mean, axis=1))

    def test_shared_prefixes_run_once(self, reloaded, dataset8, monkeypatch):
        # the stitched nets begin with fragments of the zoo nets, so the
        # reloaded copies share conv layers although no object is shared
        calls = count_forward_calls(monkeypatch, Conv2d)
        PrefixTree(reloaded).forward(dataset8.test.images[:8])
        shared = len(calls)
        calls.clear()
        for m in reloaded:
            forward(m, dataset8.test.images[:8])
        assert shared < len(calls)

    def test_reloaded_copies_merge(self, reloaded, tmp_path, monkeypatch):
        net = reloaded[-1]
        copy = load_network(save_network(net, tmp_path / "copy.snet"))
        calls = count_forward_calls(monkeypatch, Linear)
        x = np.random.default_rng(0).normal(size=(4, *net.input_shape))
        a, b = PrefixTree([net, copy]).forward(x)
        assert len(calls) == sum(l.kind == "linear" for l in net.layers)
        assert same_bits(a, forward(net, x)) and same_bits(b, a)


def _flat_head(weight, bias, name="fc"):
    return Network(
        [Flatten("fl"), Linear(weight, bias, name), Softmax("sm")],
        (weight.shape[1],),
        [f"c{i}" for i in range(weight.shape[0])],
        "head",
    )


class TestMergeRule:
    @pytest.mark.parametrize("edit", ["ulp_weight", "negative_zero_weight", "negative_zero_bias"])
    def test_byte_different_layers_never_merge(self, edit, monkeypatch):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(3, 4))
        w[1, 2] = 0.0
        b = np.zeros(3)
        w2, b2 = w.copy(), b.copy()
        if edit == "ulp_weight":
            w2[0, 0] = np.nextafter(w2[0, 0], np.inf)
        elif edit == "negative_zero_weight":
            w2[1, 2] = -0.0
        else:
            b2[0] = -0.0
        assert np.array_equal(w, w2) == (edit != "ulp_weight")  # value-equal for -0.0
        calls = count_forward_calls(monkeypatch, Linear)
        x = rng.normal(size=(5, 4))
        a, c = PrefixTree([_flat_head(w, b), _flat_head(w2, b2)]).forward(x)
        assert len(calls) == 2
        assert same_bits(a, forward(_flat_head(w, b), x))
        assert same_bits(c, forward(_flat_head(w2, b2), x))

    def test_names_and_hyperparameters_split_branches(self, monkeypatch):
        rng = np.random.default_rng(12)
        w, b = rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2)
        chains = [
            [Conv2d(w, b, 1, 1, "conv")],
            [Conv2d(w, b, 1, 1, "conv2")],
            [Conv2d(w, b, 2, 1, "conv")],
            [Conv2d(w, b, 1, 0, "conv")],
            [Conv2d(w.copy(), b.copy(), 1, 1, "conv")],  # equal bytes: merges with the first
        ]
        models = [Network(c, (3, 6, 6), [], f"m{i}") for i, c in enumerate(chains)]
        calls = count_forward_calls(monkeypatch, Conv2d)
        x = rng.normal(size=(2, 3, 6, 6))
        outs = PrefixTree(models).forward(x)
        assert len(calls) == 4
        for m, out in zip(models, outs):
            assert same_bits(out, forward(m, x))

    def test_prefix_model_gets_its_own_output(self, zoo, dataset8):
        net = zoo[0]
        prefix = Network(net.layers[:3], net.input_shape, [], "prefix")
        x = dataset8.test.images[:6]
        for models in ([net, prefix], [prefix, net], [prefix, net, prefix]):
            outs = PrefixTree(models).forward(x)
            for m, out in zip(models, outs):
                assert same_bits(out, forward(m, x))
        assert outs[0].shape != outs[1].shape

    def test_empty_model_list(self):
        assert PrefixTree([]).forward(np.zeros((2, 3))) == []

    def test_shape_error_names_layer_like_forward(self, dataset8):
        class Chain:
            def __init__(self, layers):
                self.layers = layers
                self.id = "bad"

        good = onehot_oracle_net(3)
        # shares the flatten with good, then a linear that cannot take 3 features
        bad = Chain([good.layers[0], ReLU("act"), Linear(np.ones((2, 5)), np.zeros(2), "wide")])
        x = np.zeros((4, 3, 1, 1))
        with pytest.raises(DimensionError) as alone:
            forward(bad, x)
        with pytest.raises(DimensionError) as walked:
            PrefixTree([good, bad]).forward(x)
        assert "layer 2 'wide'" in str(alone.value)
        assert str(walked.value) == str(alone.value)
        ds = onehot_dataset(3)
        with pytest.raises(DimensionError, match="layer 2 'wide'"):
            evaluate_many([good, bad], ds)
