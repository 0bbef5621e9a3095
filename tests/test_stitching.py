"""Projection fusion algebra and fragment joining."""

import numpy as np
import pytest

from stitchkit.errors import DimensionError, UnsupportedJointError
from stitchkit.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Softmax
from stitchkit.network import Network, forward, forward_upto, fragmentize
from stitchkit.stitching import (
    JOINT_CONV,
    JOINT_CONV_LINEAR,
    JOINT_LINEAR,
    fuse_conv,
    fuse_linear,
    joint_kind,
    prepare_joint,
    start_stitchnet,
    stitch,
)
from stitchkit.tensor_ops import adaptive_avg_pool_1x1, solve_projection

from conv_oracle import conv2d


class TestFuseLinear:
    def test_identity_projection_keeps_weight(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 4))
        assert np.array_equal(fuse_linear(w, np.eye(4)), w)

    def test_fused_apply_equals_project_then_apply(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 4))       # original layer, input space q=4
        a = rng.normal(size=(6, 4))       # [new_input x old_input]
        wf = fuse_linear(w, a)
        v = rng.normal(size=(5, 6))
        projected = v @ a                 # reach old input space: v_k a_{kj}
        assert np.abs(v @ wf.T - projected @ w.T).max() < 1e-12

    def test_hand_swap_case(self):
        w = np.eye(2)
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        wf = fuse_linear(w, a)
        assert np.array_equal(wf @ np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_second_axis_must_match(self):
        with pytest.raises(DimensionError):
            fuse_linear(np.ones((3, 4)), np.ones((4, 5)))


class TestFuseConv:
    def test_identity_projection_keeps_weight(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3, 3, 3))
        assert np.abs(fuse_conv(w, np.eye(3)) - w).max() == 0.0

    def test_1x1_kernel_reduces_to_fuse_linear(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3, 1, 1))
        a = rng.normal(size=(5, 3))
        got = fuse_conv(w, a)
        want = fuse_linear(w[:, :, 0, 0], a)
        assert np.abs(got[:, :, 0, 0] - want).max() < 1e-15

    def test_matches_per_position_projection_oracle(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(4, 3, 3, 3))   # old input channels j=3
        a = rng.normal(size=(6, 3))         # [new_channels x old_channels]
        wf = fuse_conv(w, a)
        x = rng.normal(size=(2, 6, 7, 7))   # new-channel feature map
        # explicit per-position channel projection into the old space
        x_proj = np.einsum("kj,nkhw->njhw", a, x)
        got = conv2d(x, wf, np.zeros(4), 1, 1)
        want = conv2d(x_proj, w, np.zeros(4), 1, 1)
        assert np.abs(got - want).max() < 1e-10


class TestPrepareJoint:
    def test_linear_passthrough_shapes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 7))
        y = rng.normal(size=(10, 4))
        xm, ym = prepare_joint(x, y, JOINT_LINEAR)
        assert xm.shape == (7, 10)
        assert ym.shape == (4, 10)

    def test_conv_conv_spatial_fold(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 8, 8))
        y = rng.normal(size=(2, 5, 4, 4))
        xm, ym = prepare_joint(x, y, JOINT_CONV)
        assert xm.shape == (3, 2 * 4 * 4)
        assert ym.shape == (5, 2 * 4 * 4)

    def test_conv_linear_pools_then_flattens(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 8, 8))
        y = rng.normal(size=(2, 6))
        xm, ym = prepare_joint(x, y, JOINT_CONV_LINEAR)
        assert xm.shape == (3, 2)
        assert ym.shape == (6, 2)
        want = adaptive_avg_pool_1x1(x).reshape(2, 3).T
        assert np.abs(xm - want).max() < 1e-14


def _conv_net(seed, in_ch=1, num_classes=3):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(rng.normal(size=(4, in_ch, 3, 3)) * 0.5, rng.normal(size=4) * 0.1, 1, 1, "c1"),
        ReLU("r1"),
        Conv2d(rng.normal(size=(6, 4, 3, 3)) * 0.5, rng.normal(size=6) * 0.1, 1, 1, "c2"),
        ReLU("r2"),
        MaxPool2d(2, 2, "p1"),
        Flatten("fl"),
        Linear(rng.normal(size=(8, 6 * 4 * 4)) * 0.2, rng.normal(size=8) * 0.1, "fc1"),
        ReLU("r3"),
        Linear(rng.normal(size=(num_classes, 8)) * 0.2, rng.normal(size=num_classes) * 0.1, "fc2"),
        Softmax("sm"),
    ]
    return Network(layers, (in_ch, 8, 8), [f"k{i}" for i in range(num_classes)], f"cnet{seed}")


class TestStitch:
    def test_self_stitch_projection_near_identity(self):
        net = _conv_net(10)
        frags = fragmentize(net)
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(48, 1, 8, 8))
        q = start_stitchnet(frags[0], net)
        x_raw = forward(q, batch)
        y_raw = forward_upto(net, frags[1].start_layer, batch)
        xm, ym = prepare_joint(x_raw, y_raw, joint_kind(x_raw, frags[1]))
        a = solve_projection(xm, ym, ridge=1e-10)
        p = a.shape[0]
        assert np.linalg.norm(a - np.eye(p)) / np.linalg.norm(np.eye(p)) <= 1e-3

    def test_self_stitch_outputs_match_original(self):
        net = _conv_net(12)
        frags = fragmentize(net)
        rng = np.random.default_rng(13)
        # widest joint is the 96-dim flattened map: needs > 96 samples for
        # a full-rank projection
        batch = rng.normal(size=(128, 1, 8, 8))
        held_out = rng.normal(size=(32, 1, 8, 8))
        q = start_stitchnet(frags[0], net)
        for frag in frags[1:]:
            x_raw = forward(q, batch)
            y_raw = forward_upto(net, frag.start_layer, batch)
            q = stitch(q, frag, x_raw, y_raw, terminal_labels=net.class_labels)
        got = forward(q, held_out)
        want = forward(net, held_out)
        assert np.abs(got - want).max() < 1e-3

    def test_fusion_is_exact_algebra_linear_joint(self):
        # stitched forward equals manual project-then-apply to close tolerance
        rng = np.random.default_rng(14)
        src = Network(
            [
                Linear(rng.normal(size=(5, 9)), rng.normal(size=5), "l1"),
                ReLU("r1"),
                Linear(rng.normal(size=(6, 5)), rng.normal(size=6), "l2"),
                ReLU("r2"),
                Linear(rng.normal(size=(3, 6)), rng.normal(size=3), "l3"),
                Softmax("sm"),
            ],
            (9,),
            ["a", "b", "c"],
            "src",
        )
        frags = fragmentize(src)
        batch = rng.normal(size=(20, 9))
        q = start_stitchnet(frags[0], src)
        x_raw = forward(q, batch)
        y_raw = forward_upto(src, frags[1].start_layer, batch)
        q2 = stitch(q, frags[1], x_raw, y_raw)
        got = forward(q2, batch)

        xm, ym = prepare_joint(x_raw, y_raw, JOINT_LINEAR)
        a = solve_projection(xm, ym)
        manual = (x_raw @ a.T) @ src.layers[2].weight.T + src.layers[2].bias
        manual = np.maximum(manual, 0.0)
        assert np.abs(got - manual).max() < 1e-9

    def test_conv_linear_joint_matches_manual_pipeline(self):
        donor = _conv_net(15)          # fragment source
        host = _conv_net(16, in_ch=2)  # provides a conv-shaped output
        frags_h = fragmentize(host)
        frags_d = fragmentize(donor)
        rng = np.random.default_rng(17)
        batch = rng.normal(size=(24, 2, 8, 8))
        q = start_stitchnet(frags_h[0], host)
        x_raw = forward(q, batch)  # [24, 4, 8, 8] conv map
        lin_frag = frags_d[2]      # starts at fc1
        assert lin_frag.layers[0].kind == "linear"
        y_raw = forward_upto(donor, lin_frag.start_layer, batch[:, :1])
        q2 = stitch(q, lin_frag, x_raw, y_raw)
        got = forward(q2, batch)

        pooled = adaptive_avg_pool_1x1(x_raw).reshape(x_raw.shape[0], -1)
        a = solve_projection(pooled.T, y_raw.T)
        manual = (pooled @ a.T) @ donor.layers[6].weight.T + donor.layers[6].bias
        manual = np.maximum(manual, 0.0)  # the fragment ends after fc1+relu
        assert got.shape == manual.shape
        assert np.abs(got - manual).max() < 1e-9

    def test_pool_networks_never_mutated(self):
        net = _conv_net(18)
        before = [l.weight.tobytes() for l in net.layers if hasattr(l, "weight")]
        frags = fragmentize(net)
        rng = np.random.default_rng(19)
        batch = rng.normal(size=(40, 1, 8, 8))
        q = start_stitchnet(frags[0], net)
        for frag in frags[1:]:
            x_raw = forward(q, batch)
            y_raw = forward_upto(net, frag.start_layer, batch)
            q = stitch(q, frag, x_raw, y_raw)
        after = [l.weight.tobytes() for l in net.layers if hasattr(l, "weight")]
        assert before == after

    def test_score_bookkeeping_is_product(self):
        net = _conv_net(20)
        frags = fragmentize(net)
        rng = np.random.default_rng(21)
        batch = rng.normal(size=(40, 1, 8, 8))
        q = start_stitchnet(frags[0], net)
        for i, frag in enumerate(frags[1:]):
            x_raw = forward(q, batch)
            y_raw = forward_upto(net, frag.start_layer, batch)
            q = stitch(q, frag, x_raw, y_raw, joint_cka=0.9 - 0.1 * i)
        prod = 1.0
        for entry in q.provenance:
            prod *= entry.cka
        assert abs(q.cumulative_score - prod) < 1e-9

    def test_unsupported_joint_rejected(self):
        net = _conv_net(22)
        frags = fragmentize(net)
        conv_frag = frags[1]
        flat_x = np.zeros((4, 10))
        with pytest.raises(UnsupportedJointError):
            joint_kind(flat_x, conv_frag)

    def test_stitchnet_param_count_sums_chain(self):
        net = _conv_net(23)
        frags = fragmentize(net)
        rng = np.random.default_rng(24)
        batch = rng.normal(size=(40, 1, 8, 8))
        q = start_stitchnet(frags[0], net)
        x_raw = forward(q, batch)
        y_raw = forward_upto(net, frags[1].start_layer, batch)
        q2 = stitch(q, frags[1], x_raw, y_raw)
        assert q2.n_params == sum(l.n_params for l in q2.chain)
