"""Network construction, forward execution, and fragmentation."""

import numpy as np
import pytest

from stitchkit.errors import ConfigError, DimensionError, NumericError
from stitchkit.layers import (
    AdaptiveAvgPool1x1,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Softmax,
)
from stitchkit.network import (
    Network,
    PrefixTree,
    build_pool,
    forward,
    forward_taps,
    forward_upto,
    fragmentize,
    models_equal,
)

from conv_oracle import conv2d as conv_op


def toy_net(seed=0, num_classes=4):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(rng.normal(size=(3, 1, 3, 3)), rng.normal(size=3), 1, 1, "c1"),
        ReLU("r1"),
        MaxPool2d(2, 2, "p1"),
        Conv2d(rng.normal(size=(5, 3, 3, 3)), rng.normal(size=5), 1, 1, "c2"),
        ReLU("r2"),
        AdaptiveAvgPool1x1("gap"),
        Flatten("fl"),
        Linear(rng.normal(size=(num_classes, 5)), rng.normal(size=num_classes), "fc"),
        Softmax("sm"),
    ]
    return Network(layers, (1, 8, 8), [f"c{i}" for i in range(num_classes)], f"toy{seed}")


class TestForward:
    def test_identity_linear(self):
        net = Network(
            [Linear(np.eye(3), np.zeros(3), "id")], (3,), [], "idnet"
        )
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(forward(net, x), x)

    def test_relu_clamps(self):
        net = Network([ReLU("r")], (2,), [], "relunet")
        assert np.array_equal(forward(net, [[-1.0, 2.0]]), [[0.0, 2.0]])

    def test_matches_manual_composition(self):
        net = toy_net(1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 1, 8, 8))
        got = forward(net, x)

        # manual composition from the primitive ops
        h = conv_op(x, net.layers[0].weight, net.layers[0].bias, 1, 1)
        h = np.maximum(h, 0.0)
        h = net.layers[2].forward(h)
        h = conv_op(h, net.layers[3].weight, net.layers[3].bias, 1, 1)
        h = np.maximum(h, 0.0)
        h = h.mean(axis=(2, 3)).reshape(3, 5, 1, 1)
        h = h.reshape(3, -1)
        h = h @ net.layers[7].weight.T + net.layers[7].bias
        e = np.exp(h - h.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        assert np.abs(got - want).max() < 1e-12

    def test_softmax_rows_sum_to_one(self):
        net = toy_net(3)
        rng = np.random.default_rng(4)
        out = forward(net, rng.normal(size=(6, 1, 8, 8)))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9

    def test_shape_error_names_layer(self):
        net = toy_net(5)
        with pytest.raises(DimensionError, match="layer 0 'c1'"):
            forward(net, np.zeros((2, 2, 8, 8)))

    def test_output_shape_statically_consistent(self):
        net = toy_net(6)
        out = forward(net, np.zeros((2, 1, 8, 8)))
        assert out.shape == (2,) + net.output_shape


def overflow_net():
    """A net whose second linear layer overflows to inf on positive inputs."""
    layers = [
        Linear(np.full((4, 3), 1e200), np.zeros(4), "fc1"),
        ReLU("r1"),
        Linear(np.full((2, 4), 1e200), np.zeros(2), "fc2"),
        Softmax("sm"),
    ]
    return Network(layers, (3,), ["a", "b"], "boom")


FORWARD_LOOPS = {
    "forward": forward,
    "forward_taps": lambda net, x: forward_taps(net, [3], x),
    "prefix_tree": lambda net, x: PrefixTree([net]).forward(x),
}


class TestCheckedAtTheBoundary:
    def test_forward_checks_only_entry_and_exit(self, zoo, dataset8, monkeypatch):
        net = next(n for n in zoo if n.id == "cnn_b")
        batch = dataset8.test.images[:8]
        calls = []
        isfinite = np.isfinite

        def counting(x):
            calls.append(x.shape)
            return isfinite(x)

        monkeypatch.setattr(np, "isfinite", counting)
        forward(net, batch)
        assert len(net.layers) > 2
        assert len(calls) <= 2

    @pytest.mark.parametrize("loop", FORWARD_LOOPS)
    def test_overflow_inside_names_the_model(self, loop):
        x = np.ones((5, 3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="'boom'"):
            FORWARD_LOOPS[loop](overflow_net(), x)

    @pytest.mark.parametrize("loop", FORWARD_LOOPS)
    def test_nan_batch_rejected_at_entry(self, loop):
        x = np.ones((5, 3))
        x[2, 1] = np.nan
        with pytest.raises(NumericError, match="non-finite values in batch"):
            FORWARD_LOOPS[loop](overflow_net(), x)


class TestForwardUpto:
    def test_index_zero_returns_batch(self):
        net = toy_net(7)
        x = np.random.default_rng(8).normal(size=(2, 1, 8, 8))
        assert np.array_equal(forward_upto(net, 0, x), x)

    def test_full_index_equals_forward(self):
        net = toy_net(9)
        x = np.random.default_rng(10).normal(size=(2, 1, 8, 8))
        assert np.array_equal(forward_upto(net, len(net.layers), x), forward(net, x))

    def test_mid_index_matches_prefix_network(self):
        net = toy_net(11)
        x = np.random.default_rng(12).normal(size=(2, 1, 8, 8))
        prefix = Network(net.layers[:4], (1, 8, 8), [], "prefix")
        assert np.abs(forward_upto(net, 4, x) - forward(prefix, x)).max() < 1e-12

    def test_out_of_range(self):
        net = toy_net(13)
        with pytest.raises(DimensionError):
            forward_upto(net, len(net.layers) + 1, np.zeros((1, 1, 8, 8)))


class TestValidation:
    def test_softmax_must_be_last(self):
        with pytest.raises(ConfigError):
            Network([Softmax("s"), ReLU("r")], (3,), [], "bad")

    def test_label_count_must_match_output(self):
        with pytest.raises(ConfigError):
            Network([Linear(np.eye(3), np.zeros(3), "l")], (3,), ["a", "b"], "bad")

    def test_incompatible_chain_rejected(self):
        with pytest.raises(DimensionError):
            Network(
                [
                    Linear(np.zeros((4, 3)), np.zeros(4), "l1"),
                    Linear(np.zeros((2, 5)), np.zeros(2), "l2"),
                ],
                (3,),
                [],
                "bad",
            )


class TestFragmentize:
    def test_three_trainables_three_fragments(self):
        rng = np.random.default_rng(14)
        net = Network(
            [
                Linear(rng.normal(size=(4, 3)), np.zeros(4), "l1"),
                ReLU("r1"),
                Linear(rng.normal(size=(4, 4)), np.zeros(4), "l2"),
                ReLU("r2"),
                Linear(rng.normal(size=(2, 4)), np.zeros(2), "l3"),
                Softmax("sm"),
            ],
            (3,),
            ["a", "b"],
            "three",
        )
        frags = fragmentize(net)
        assert [f.kind for f in frags] == ["starting", "middle", "terminating"]
        assert [(f.start_layer, f.end_layer) for f in frags] == [(0, 2), (2, 4), (4, 6)]
        # spans cover the layer list exactly, in order, without overlap
        rebuilt = [l for f in frags for l in f.layers]
        assert rebuilt == net.layers

    def test_single_trainable_degenerate(self):
        net = Network(
            [Linear(np.eye(3), np.zeros(3), "l"), Softmax("sm")], (3,), ["a", "b", "c"], "one"
        )
        with pytest.warns(UserWarning):
            frags = fragmentize(net)
        assert len(frags) == 1
        assert frags[0].kind == "degenerate"
        assert frags[0].is_starting and frags[0].is_terminating

    def test_desk_pool_counts(self):
        nets = [toy_net(s) for s in (20, 21, 22)]  # 3 trainables each
        pool = build_pool(nets)
        assert len(pool.fragments) == 9
        assert len(pool.starting_fragments) == 3
        assert len(pool.terminating_fragments) == 3

    def test_reconcatenation_reproduces_forward_bitwise(self):
        net = toy_net(23)
        frags = fragmentize(net)
        x = np.random.default_rng(24).normal(size=(2, 1, 8, 8))
        h = x
        for frag in frags:
            h = forward(frag, h)
        assert h.tobytes() == forward(net, x).tobytes()

    def test_fine_spans_superset(self):
        net = toy_net(25)
        coarse = fragmentize(net)
        fine = fragmentize(net, fine=True)
        coarse_ids = {f.id for f in coarse}
        fine_ids = {f.id for f in fine}
        assert coarse_ids <= fine_ids
        assert len(fine_ids) > len(coarse_ids)
        # full-network span excluded
        assert not any(f.start_layer == 0 and f.end_layer == len(net.layers) for f in fine)

    def test_middle_fragments_start_trainable(self):
        for frag in fragmentize(toy_net(26)):
            if frag.kind in ("middle", "terminating"):
                assert frag.layers[0].kind in ("linear", "conv2d")


class TestModelsEqual:
    def test_equal_copies(self):
        net = toy_net(30)
        assert models_equal(net, net.copy())

    def test_detects_bit_flip(self):
        net = toy_net(31)
        other = net.copy()
        w = other.layers[0].weight
        w[0, 0, 0, 0] = np.nextafter(w[0, 0, 0, 0], np.inf)
        assert not models_equal(net, other)
