"""Trainer behavior: determinism, gradients vs finite differences, fine-tuning."""

import hashlib

import numpy as np
import pytest

import stitchkit.layers
from stitchkit.data import Dataset, make_synthetic_dataset
from stitchkit.errors import ConfigError
from stitchkit.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Softmax
from stitchkit.network import Network
from stitchkit.training import finetune_last_layer, loss_and_grads, train_network
from stitchkit.zoo import resolve_arch


def separable_2class(n_per=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=-2.0, scale=0.4, size=(n_per, 1, 4, 4))
    b = rng.normal(loc=2.0, scale=0.4, size=(n_per, 1, 4, 4))
    images = np.concatenate([a, b])
    labels = np.array([0] * n_per + [1] * n_per, dtype=np.int64)
    return Dataset(images, labels, ["neg", "pos"], seed)


def tiny_mlp(rng, num_classes, input_shape):
    n_in = int(np.prod(input_shape))
    layers = [
        Flatten("fl"),
        Linear(rng.normal(0, 0.3, (6, n_in)), np.zeros(6), "h"),
        ReLU("r"),
        Linear(rng.normal(0, 0.3, (num_classes, 6)), np.zeros(num_classes), "out"),
        Softmax("sm"),
    ]
    return layers, "tinymlp"


def tiny_cnn(rng, num_classes, input_shape):
    c = input_shape[0]
    layers = [
        Conv2d(rng.normal(0, 0.4, (3, c, 3, 3)), np.zeros(3), 1, 1, "cv"),
        ReLU("r1"),
        MaxPool2d(2, 2, "mp"),
        Flatten("fl"),
        Linear(rng.normal(0, 0.3, (num_classes, 3 * 2 * 2)), np.zeros(num_classes), "out"),
        Softmax("sm"),
    ]
    return layers, "tinycnn"


class TestTrainNetwork:
    def test_zero_epochs_returns_initialized_network(self):
        ds = separable_2class()
        net = train_network(tiny_mlp, ds, epochs=0, seed=1)
        net2 = train_network(tiny_mlp, ds, epochs=0, seed=1)
        assert net.layers[1].weight.tobytes() == net2.layers[1].weight.tobytes()
        assert net.train_trace == []

    def test_separable_data_trains_to_high_accuracy(self):
        from stitchkit.network import forward

        ds = separable_2class()
        net = train_network(tiny_mlp, ds, epochs=50, lr=0.05, seed=2)
        preds = np.argmax(forward(net, ds.images), axis=1)
        assert (preds == ds.labels).mean() >= 0.98

    def test_bitwise_reproducible(self):
        ds = separable_2class()
        a = train_network(tiny_cnn, ds, epochs=4, lr=0.02, seed=3)
        b = train_network(tiny_cnn, ds, epochs=4, lr=0.02, seed=3)
        for la, lb in zip(a.layers, b.layers):
            for k, arr in la.params().items():
                assert arr.tobytes() == lb.params()[k].tobytes()
        assert a.train_trace == b.train_trace

    def test_loss_trace_recorded_and_decreasing(self):
        ds = separable_2class()
        net = train_network(tiny_mlp, ds, epochs=10, lr=0.05, seed=4)
        assert len(net.train_trace) == 10
        assert net.train_trace[-1] < net.train_trace[0]

    def test_wrong_output_width_rejected(self):
        ds = separable_2class()

        def bad_arch(rng, num_classes, input_shape):
            layers, _ = tiny_mlp(rng, num_classes + 1, input_shape)
            return layers, "bad"

        with pytest.raises(ConfigError):
            train_network(bad_arch, ds, epochs=1)

    def test_divergence_reports_epoch(self):
        from stitchkit.errors import NumericError

        ds = separable_2class()
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="epoch"):
            train_network(tiny_mlp, ds, epochs=5, lr=1e12, seed=16)


def pool_cnn(rng, num_classes, input_shape):
    # overlapping max-pool, then a second conv (its backward runs col2im)
    # and a max-pool leaving an odd row and column unread
    c = input_shape[0]
    layers = [
        Conv2d(rng.normal(0, 0.2, (5, c, 3, 3)), np.full(5, 0.05), 1, 1, "cv1"),
        ReLU("r1"),
        MaxPool2d(3, 2, "mp1"),
        Conv2d(rng.normal(0, 0.15, (6, 5, 3, 3)), np.full(6, 0.05), 1, 1, "cv2"),
        ReLU("r2"),
        MaxPool2d(2, 2, "mp2"),
        Flatten("fl"),
        Linear(rng.normal(0, 0.2, (num_classes, 24)), np.zeros(num_classes), "out"),
        Softmax("sm"),
    ]
    return layers, "poolcnn"


class TestGoldenTraining:
    # sha256 of every parameter's bytes plus repr(train_trace), captured
    # with the im2col/argmax/np.add.at conv and max-pool kernels that the
    # strided-tap kernels replaced
    GOLDEN = "b07327c784e2c92443cfbd6581b959b22f166a981ae42df236b1612432f1dd36"

    def test_conv_pool_net_matches_golden_digest(self):
        ds = make_synthetic_dataset(4, 30, 12, seed=11).train
        net = train_network(pool_cnn, ds, epochs=6, lr=0.01, seed=5)
        assert net.train_trace[-1] < net.train_trace[0]
        h = hashlib.sha256()
        for layer in net.layers:
            for _, arr in sorted(layer.params().items()):
                h.update(arr.tobytes())
        h.update(repr(net.train_trace).encode())
        assert h.hexdigest() == self.GOLDEN

    def test_first_conv_forms_no_input_gradient(self, monkeypatch):
        calls = []
        real = stitchkit.layers.col2im

        def counting_col2im(cols, x_shape, *args):
            calls.append(x_shape)
            return real(cols, x_shape, *args)

        monkeypatch.setattr(stitchkit.layers, "col2im", counting_col2im)
        ds = make_synthetic_dataset(4, 10, 12, seed=11).train
        body = train_network(pool_cnn, ds, epochs=0, seed=5).layers[:-1]
        batch = ds.images[:8]
        loss, grads = loss_and_grads(body, batch, ds.labels[:8])
        # only the second conv scatters a gradient back, onto the pooled map
        assert calls == [(8, 5, 5, 5)]
        assert sorted(grads) == [0, 3, 7]
        # the first conv's weight and bias gradients are those of a full backward
        out, cache = body[0].forward_cache(batch)
        calls.clear()
        probe = np.random.default_rng(0).normal(size=out.shape)
        gx, full = body[0].backward(probe, cache)
        _, short = body[0].backward(probe, cache, input_grad=False)
        assert gx.shape == batch.shape and len(calls) == 1
        for name in ("weight", "bias"):
            assert short[name].tobytes() == full[name].tobytes()


def central_difference_grads(layers, batch, labels, probes, eps=1e-6):
    """Finite-difference loss gradients at selected parameter coordinates."""
    out = []
    for layer_idx, pname, flat_idx in probes:
        arr = layers[layer_idx].params()[pname]
        orig = arr.flat[flat_idx]
        arr.flat[flat_idx] = orig + eps
        lp, _ = loss_and_grads(layers, batch, labels)
        arr.flat[flat_idx] = orig - eps
        lm, _ = loss_and_grads(layers, batch, labels)
        arr.flat[flat_idx] = orig
        out.append((lp - lm) / (2 * eps))
    return np.array(out)


class TestGradientCheck:
    @pytest.mark.parametrize("stride,padding,k", [(2, 1, 3), (2, 0, 2), (3, 2, 3)])
    def test_strided_conv_backward_matches_finite_differences(self, stride, padding, k):
        rng = np.random.default_rng(17)
        layer = Conv2d(rng.normal(size=(3, 2, k, k)), rng.normal(size=3), stride, padding, "c")
        x = rng.normal(size=(2, 2, 7, 7))
        out, cache = layer.forward_cache(x)
        g = rng.normal(size=out.shape)
        gx, grads = layer.backward(g, cache)
        eps = 1e-6

        def scalar_loss(xx):
            return float((layer.forward(xx) * g).sum())

        for flat in rng.choice(x.size, 8, replace=False):
            xp, xm = x.copy(), x.copy()
            xp.flat[flat] += eps
            xm.flat[flat] -= eps
            num = (scalar_loss(xp) - scalar_loss(xm)) / (2 * eps)
            assert abs(num - gx.flat[flat]) / max(abs(num), 1e-6) < 1e-5

    def test_overlapping_maxpool_backward_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        layer = MaxPool2d(3, 1, "p")  # stride < k: windows overlap
        x = rng.normal(size=(2, 2, 6, 6))
        out, cache = layer.forward_cache(x)
        g = rng.normal(size=out.shape)
        gx, _ = layer.backward(g, cache)
        eps = 1e-6
        for flat in rng.choice(x.size, 10, replace=False):
            xp, xm = x.copy(), x.copy()
            xp.flat[flat] += eps
            xm.flat[flat] -= eps
            num = (
                float((layer.forward(xp) * g).sum()) - float((layer.forward(xm) * g).sum())
            ) / (2 * eps)
            assert abs(num - gx.flat[flat]) < 1e-5

    @pytest.mark.parametrize("arch", [tiny_mlp, tiny_cnn])
    def test_backprop_matches_finite_differences(self, arch):
        ds = separable_2class(n_per=12, seed=5)
        net = train_network(arch, ds, epochs=0, seed=6)
        body = net.layers[:-1]
        batch, labels = ds.images[:16], ds.labels[:16]
        _, grads = loss_and_grads(body, batch, labels)

        rng = np.random.default_rng(7)
        probes = []
        for layer_idx, layer_grads in grads.items():
            for pname in layer_grads:
                size = body[layer_idx].params()[pname].size
                for flat_idx in rng.choice(size, size=min(3, size), replace=False):
                    probes.append((layer_idx, pname, int(flat_idx)))
        assert len(probes) >= 10
        numeric = central_difference_grads(body, batch, labels, probes)
        analytic = np.array(
            [grads[i][p].flat[j] for i, p, j in probes]
        )
        denom = np.maximum(np.abs(numeric), 1e-4)
        assert (np.abs(analytic - numeric) / denom).max() < 1e-4


class TestFinetuneLastLayer:
    def test_budget_zero_is_reinitialized_head(self):
        ds = separable_2class()
        net = train_network(tiny_mlp, ds, epochs=30, lr=0.05, seed=8)
        ft, curve = finetune_last_layer(net, ds, samples_budget=0, seed=9)
        assert curve == [curve[0]]
        assert curve[0][0] == 0
        # fresh head differs from the trained one
        assert ft.layers[3].weight.tobytes() != net.layers[3].weight.tobytes()

    def test_body_weights_bit_identical(self):
        ds = separable_2class()
        net = train_network(tiny_cnn, ds, epochs=5, lr=0.02, seed=10)
        before = {i: net.layers[i].weight.tobytes() for i in net.trainable_indices[:-1]}
        ft, _ = finetune_last_layer(net, ds, samples_budget=320, seed=11)
        for i, blob in before.items():
            assert net.layers[i].weight.tobytes() == blob  # source untouched
            assert ft.layers[i].weight.tobytes() == blob  # copy keeps body bits

    def test_curve_trends_upward_with_budget(self):
        ds = separable_2class(n_per=80, seed=12)
        net = train_network(tiny_mlp, ds, epochs=30, lr=0.05, seed=12)
        _, curve = finetune_last_layer(net, ds, samples_budget=320, lr=0.05, seed=13)
        samples = [s for s, _ in curve]
        accs = [a for _, a in curve]
        assert samples[0] == 0 and samples[-1] == 320
        assert accs[-1] >= accs[0]
        assert max(accs) >= 0.95

    def test_curve_samples_monotone(self):
        ds = separable_2class()
        net = train_network(tiny_mlp, ds, epochs=5, lr=0.05, seed=14)
        _, curve = finetune_last_layer(net, ds, samples_budget=100, seed=15)
        samples = [s for s, _ in curve]
        assert samples == sorted(samples)
        assert samples[-1] == 100  # budget hit exactly

    def test_requires_linear_head(self):
        ds = separable_2class()
        net = Network(
            [Flatten("fl"), ReLU("r")], (1, 4, 4), [], "headless"
        )
        with pytest.raises(ConfigError):
            finetune_last_layer(net, ds, samples_budget=10)


class TestZooArch:
    def test_unknown_arch_rejected(self):
        with pytest.raises(ConfigError):
            resolve_arch("unknown_arch")

    def test_zoo_fragment_counts(self, zoo):
        from stitchkit.network import fragmentize

        counts = {net.id: len(fragmentize(net)) for net in zoo}
        assert counts == {"cnn_a": 4, "cnn_b": 6, "mlp_c": 5}

    def test_pool_counts_by_construction(self, pool):
        assert len(pool.fragments) == 15
        assert len(pool.starting_fragments) == 3
        assert len(pool.terminating_fragments) == 3

    def test_zoo_reaches_90_percent(self, zoo, dataset8):
        from stitchkit.evaluate import evaluate

        for net in zoo:
            assert evaluate(net, dataset8.test).accuracy >= 0.9

    def test_desk_subtask_finetune_curve(self, zoo, dataset8, subtask_map):
        from stitchkit.data import remap_dataset

        sub_train = remap_dataset(dataset8.train, subtask_map)
        sub_test = remap_dataset(dataset8.test, subtask_map)
        net = zoo[0]
        _, curve = finetune_last_layer(
            net, sub_train, samples_budget=320, seed=0, eval_dataset=sub_test
        )
        accs = [a for _, a in curve]
        assert curve[-1][0] == 320
        # upward trend: late accuracy beats the start, and the final point
        # holds up against the one a batch earlier
        assert np.mean(accs[-3:]) >= np.mean(accs[:3])
        assert accs[-1] >= accs[-2] - 0.05
