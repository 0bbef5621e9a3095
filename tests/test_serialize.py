"""Container format round-trips and malformed-file handling."""

import numpy as np
import pytest

from stitchkit.data import make_synthetic_dataset
from stitchkit.errors import ConfigError, ParseError
from stitchkit.layers import (
    LAYER_KINDS,
    AdaptiveAvgPool1x1,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Resize,
    Softmax,
)
from stitchkit.network import Network, _layer_key, build_pool, forward, models_equal
from stitchkit.serialize import (
    load_dataset,
    load_network,
    load_pool_manifest,
    save_dataset,
    save_network,
    save_pool_manifest,
)
from stitchkit.stitching import StitchNet


def sample_net(seed=0):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(rng.normal(size=(4, 1, 3, 3)), rng.normal(size=4), 1, 1, "c1"),
        ReLU("r1"),
        MaxPool2d(2, 2, "p1"),
        Flatten("fl"),
        Linear(rng.normal(size=(5, 64)), rng.normal(size=5), "fc1"),
        ReLU("r2"),
        Linear(rng.normal(size=(3, 5)), rng.normal(size=3), "fc2"),
        Softmax("sm"),
    ]
    return Network(layers, (1, 8, 8), ["a", "b", "c"], f"sample{seed}")


class TestNetworkRoundTrip:
    def test_structural_and_bitwise_equality(self, tmp_path):
        net = sample_net(1)
        path = save_network(net, tmp_path / "net.snet")
        back = load_network(path)
        assert models_equal(net, back)

    def test_file_bytes_stable_across_saves(self, tmp_path):
        net = sample_net(2)
        p1 = save_network(net, tmp_path / "a.snet")
        p2 = save_network(net, tmp_path / "b.snet")
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_identical(self, tmp_path):
        net = sample_net(3)
        p1 = save_network(net, tmp_path / "a.snet")
        back = load_network(p1)
        p2 = save_network(back, tmp_path / "b.snet")
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_reload(self, tmp_path):
        net = sample_net(4)
        back = load_network(save_network(net, tmp_path / "n.snet"))
        x = np.random.default_rng(5).normal(size=(3, 1, 8, 8))
        assert forward(net, x).tobytes() == forward(back, x).tobytes()


class TestStitchNetRoundTrip:
    @pytest.fixture()
    def stitched(self, genresult):
        return genresult.entries[0][0]

    def test_roundtrip_bitwise(self, tmp_path, stitched):
        p1 = save_network(stitched, tmp_path / "sn.snet")
        back = load_network(p1)
        assert isinstance(back, StitchNet)
        assert models_equal(stitched, back)
        assert back.cumulative_score == stitched.cumulative_score
        assert back.provenance_key == stitched.provenance_key
        assert [p.cka for p in back.provenance] == [p.cka for p in stitched.provenance]
        p2 = save_network(back, tmp_path / "sn2.snet")
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_reload(self, tmp_path, stitched, dataset8):
        back = load_network(save_network(stitched, tmp_path / "sn.snet"))
        x = dataset8.test.images[:16]
        assert forward(stitched, x).tobytes() == forward(back, x).tobytes()


class TestMalformedFiles:
    def test_truncated_file_is_parse_error(self, tmp_path):
        net = sample_net(6)
        path = save_network(net, tmp_path / "n.snet")
        blob = path.read_bytes()
        for cut in (10, len(blob) // 2, len(blob) - 5):
            (tmp_path / "cut.snet").write_bytes(blob[:cut])
            with pytest.raises(ParseError):
                load_network(tmp_path / "cut.snet")

    def test_short_blob_names_the_tensor(self, tmp_path):
        net = sample_net(7)
        path = save_network(net, tmp_path / "n.snet")
        blob = path.read_bytes()
        (tmp_path / "short.snet").write_bytes(blob[:-9])  # drop > one float
        with pytest.raises(ParseError, match=r"truncated in tensor '(fc2|sm)"):
            load_network(tmp_path / "short.snet")

    def test_unknown_layer_kind(self, tmp_path):
        net = sample_net(8)
        path = save_network(net, tmp_path / "n.snet")
        text = path.read_bytes()
        bad = text.replace(b"layer relu r1", b"layer gelu r1")
        (tmp_path / "bad.snet").write_bytes(bad)
        with pytest.raises(ParseError, match="unknown layer kind"):
            load_network(tmp_path / "bad.snet")

    def test_blob_count_disagrees_with_shapes(self, tmp_path):
        net = sample_net(9)
        path = save_network(net, tmp_path / "n.snet")
        data = path.read_bytes()
        total = sum(l.weight.size + l.bias.size for l in net.layers if hasattr(l, "weight"))
        bad = data.replace(f"blob {total}".encode(), f"blob {total - 1}".encode())
        (tmp_path / "bad.snet").write_bytes(bad)
        with pytest.raises(ParseError, match="declares"):
            load_network(tmp_path / "bad.snet")

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "x.snet").write_bytes(b"NOPE 1\n")
        with pytest.raises(ParseError):
            load_network(tmp_path / "x.snet")

    def test_error_carries_byte_offset(self, tmp_path):
        net = sample_net(10)
        path = save_network(net, tmp_path / "n.snet")
        (tmp_path / "cut.snet").write_bytes(path.read_bytes()[:25])
        with pytest.raises(ParseError) as err:
            load_network(tmp_path / "cut.snet")
        assert err.value.offset is not None

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"layer linear fc1 5 64", b"layer linear fc1 -3 64"),
            (b"layer maxpool2d p1 2 2", b"layer maxpool2d p1 0 2"),
            (b"layer maxpool2d p1 2 2", b"layer maxpool2d p1 2 0"),
            (b"layer conv2d c1 4 1 3 3 1 1", b"layer conv2d c1 4 1 3 3 0 1"),
            (b"layer conv2d c1 4 1 3 3 1 1", b"layer conv2d c1 4 1 3 3 1 -1"),
        ],
    )
    def test_bad_layer_integers_name_the_layer_line(self, tmp_path, old, new):
        data = save_network(sample_net(12), tmp_path / "n.snet").read_bytes()
        assert old in data
        (tmp_path / "bad.snet").write_bytes(data.replace(old, new))
        with pytest.raises(ParseError, match="must be at least 1") as err:
            load_network(tmp_path / "bad.snet")
        assert err.value.offset == data.index(old)

    @pytest.mark.parametrize("shape", [b"input_shape 2 8 8", b"input_shape 1 -8 8"])
    def test_input_shape_that_does_not_fit_is_parse_error(self, tmp_path, shape):
        data = save_network(sample_net(13), tmp_path / "n.snet").read_bytes()
        bad = data.replace(b"input_shape 1 8 8", shape)
        (tmp_path / "bad.snet").write_bytes(bad)
        with pytest.raises(ParseError, match="inconsistent network") as err:
            load_network(tmp_path / "bad.snet")
        assert err.value.offset == bad.index(b"blob ")

    def test_stitchnet_without_fragments_is_parse_error(self, tmp_path):
        header = "SNET 1\nkind stitchnet\nid s\ninput_shape 3\nclass_labels 0\nscore 1.0\nfragments 0\n"
        (tmp_path / "s.snet").write_bytes(f"{header}blob 0\n".encode("ascii"))
        with pytest.raises(ParseError, match="must begin with a starting fragment") as err:
            load_network(tmp_path / "s.snet")
        assert err.value.offset == len(header)


def _poke_float(path, index, value):
    """Overwrite float number index of a file's trailing blob; returns its byte offset."""
    data = bytearray(path.read_bytes())
    blob_line = data.index(b"\nblob ") + 1
    offset = data.index(b"\n", blob_line) + 1 + index * 8
    data[offset : offset + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))
    return offset


class TestNonFiniteBlobs:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_network_names_tensor_and_offset(self, tmp_path, value):
        net = sample_net(11)
        path = save_network(net, tmp_path / "n.snet")
        names = [f"{l.name}.{p}" for l in net.layers for p in l.params()]
        sizes = [a.size for l in net.layers for a in l.params().values()]
        target = names.index("fc1.bias")
        index = sum(sizes[:target]) + 2
        offset = _poke_float(path, index, value)
        _poke_float(path, index + 10, np.nan)  # a later bad float is not the one named
        with pytest.raises(ParseError, match=r"non-finite value .* in tensor 'fc1\.bias'") as err:
            load_network(path)
        assert err.value.offset == offset

    def test_stitchnet_names_tensor(self, tmp_path, genresult):
        sn = genresult.entries[0][0]
        path = save_network(sn, tmp_path / "sn.snet")
        first = next(f"{l.name}.{p}" for l in sn.chain for p in l.params())
        _poke_float(path, 0, np.inf)
        with pytest.raises(ParseError, match=f"non-finite value inf in tensor '{first}'"):
            load_network(path)

    def test_dataset_names_offset(self, tmp_path):
        ds = make_synthetic_dataset(3, 5, 8, seed=14)
        path = save_dataset(ds, tmp_path / "d.sdat")
        offset = _poke_float(path, 77, np.nan)
        with pytest.raises(ParseError, match="non-finite value nan in images") as err:
            load_dataset(path)
        assert err.value.offset == offset


class TestTokens:
    def test_comma_in_model_id_rejected(self, tmp_path):
        net = sample_net(13)
        net.id = "a,b"
        with pytest.raises(ConfigError, match="commas"):
            save_network(net, tmp_path / "n.snet")
        assert not (tmp_path / "n.snet").exists()

    def test_comma_in_loaded_header_is_parse_error(self, tmp_path):
        path = save_network(sample_net(15), tmp_path / "n.snet")
        data = path.read_bytes()
        for old, new in ((b"id sample15\n", b"id a,b\n"), (b" a b c\n", b" a b,c d\n")):
            assert old in data
            (tmp_path / "bad.snet").write_bytes(data.replace(old, new, 1))
            with pytest.raises(ParseError, match="holds a comma") as err:
                load_network(tmp_path / "bad.snet")
            assert err.value.offset == data.rindex(b"\n", 0, data.index(old)) + 1

    def test_comma_in_class_label_rejected(self, tmp_path):
        net = sample_net(14)
        net.class_labels = ["a", "b,c", "d"]
        with pytest.raises(ConfigError, match="commas"):
            save_network(net, tmp_path / "n.snet")


class TestDatasetRoundTrip:
    def test_bitwise_roundtrip_with_split_indices(self, tmp_path):
        ds = make_synthetic_dataset(4, 12, 16, seed=11)
        p1 = save_dataset(ds, tmp_path / "d.sdat")
        back = load_dataset(p1)
        assert back.images.tobytes() == ds.images.tobytes()
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names
        assert back.seed == ds.seed and back.split == ds.split
        assert np.array_equal(back.train_indices, ds.train_indices)
        assert np.array_equal(back.test_indices, ds.test_indices)
        p2 = save_dataset(back, tmp_path / "d2.sdat")
        assert p1.read_bytes() == p2.read_bytes()

    def test_split_views_roundtrip(self, tmp_path):
        ds = make_synthetic_dataset(4, 12, 16, seed=12)
        back = load_dataset(save_dataset(ds.train, tmp_path / "t.sdat"))
        assert back.split == "train"
        assert back.images.tobytes() == ds.train.images.tobytes()

    def test_truncated_dataset(self, tmp_path):
        ds = make_synthetic_dataset(3, 5, 8, seed=13)
        path = save_dataset(ds, tmp_path / "d.sdat")
        (tmp_path / "cut.sdat").write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "cut.sdat")


class TestPoolManifest:
    def test_manifest_roundtrip_builds_pool(self, tmp_path):
        nets = [sample_net(s) for s in (20, 21)]
        paths = [save_network(n, tmp_path / f"{n.id}.snet") for n in nets]
        manifest = save_pool_manifest([p.name for p in paths], tmp_path / "pool.manifest")
        pool = load_pool_manifest(manifest)
        assert len(pool.networks) == 2
        direct = build_pool(nets)
        assert {f.id for f in pool.fragments} == {f.id for f in direct.fragments}

    def test_fine_flag_expands_spans(self, tmp_path):
        net = sample_net(22)
        save_network(net, tmp_path / "n.snet")
        coarse = load_pool_manifest(save_pool_manifest(["n.snet"], tmp_path / "c.manifest"))
        fine = load_pool_manifest(
            save_pool_manifest(["n.snet"], tmp_path / "f.manifest", fine=True)
        )
        assert len(fine.fragments) > len(coarse.fragments)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError):
            load_pool_manifest(tmp_path / "nothere.manifest")

    def test_missing_network_file(self, tmp_path):
        manifest = save_pool_manifest(["ghost.snet"], tmp_path / "pool.manifest")
        with pytest.raises((ParseError, FileNotFoundError)):
            load_pool_manifest(manifest)


# one instance of every declared kind, the input it runs on, and its header line
KIND_SAMPLES = {
    "linear": (lambda w: Linear(w(2, 3), w(2), "l"), (3,), "layer linear l 2 3"),
    "conv2d": (lambda w: Conv2d(w(2, 1, 3, 3), w(2), 1, 1, "c"), (1, 5, 5), "layer conv2d c 2 1 3 3 1 1"),
    "relu": (lambda w: ReLU("r"), (3,), "layer relu r"),
    "maxpool2d": (lambda w: MaxPool2d(2, 1, "p"), (1, 4, 4), "layer maxpool2d p 2 1"),
    "adaptiveavgpool": (lambda w: AdaptiveAvgPool1x1("g"), (1, 4, 4), "layer adaptiveavgpool g"),
    "flatten": (lambda w: Flatten("f"), (1, 4, 4), "layer flatten f"),
    "softmax": (lambda w: Softmax("s"), (3,), "layer softmax s"),
    "resize": (lambda w: Resize(3, 5, "z"), (1, 4, 4), "layer resize z 3 5"),
}


class TestLayerDeclaration:
    def test_every_kind_has_a_sample(self):
        assert set(KIND_SAMPLES) == set(LAYER_KINDS)

    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_header_line_and_reload(self, tmp_path, kind):
        rng = np.random.default_rng(len(kind))
        make, in_shape, line = KIND_SAMPLES[kind]
        layer = make(lambda *shape: rng.normal(size=shape))
        assert type(layer) is LAYER_KINDS[kind]
        path = save_network(Network([layer], in_shape, [], "one"), tmp_path / "one.snet")
        header = path.read_bytes().split(b"\nblob ")[0].decode("ascii").splitlines()
        assert header[-1] == line
        assert _layer_key(load_network(path).layers[0]) == _layer_key(layer)

    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_copy_owns_its_arrays(self, kind):
        rng = np.random.default_rng(len(kind))
        layer = KIND_SAMPLES[kind][0](lambda *shape: rng.normal(size=shape))
        twin = layer.copy()
        assert _layer_key(twin) == _layer_key(layer)
        for name, arr in twin.params().items():
            assert not np.shares_memory(arr, layer.params()[name])

    @pytest.mark.parametrize("kind", [k for k in sorted(LAYER_KINDS) if LAYER_KINDS[k].weight_ndim])
    def test_copy_with_weight_keeps_the_rest(self, kind):
        rng = np.random.default_rng(len(kind))
        layer = KIND_SAMPLES[kind][0](lambda *shape: rng.normal(size=shape))
        weight = layer.weight + 1.0
        twin = layer.copy(weight=weight)
        assert type(twin) is type(layer) and twin.name == layer.name
        assert [getattr(twin, h) for h in layer.hyper] == [getattr(layer, h) for h in layer.hyper]
        assert twin.weight.tobytes() == weight.tobytes()
        assert twin.bias.tobytes() == layer.bias.tobytes()
        assert not np.shares_memory(twin.bias, layer.bias)

    def test_undeclared_layer_cannot_be_serialized(self, tmp_path):
        class Custom(Layer):
            kind = "custom"
            name = "x"

            def out_shape(self, in_shape):
                return in_shape

        class LinearTwin(Linear):
            pass

        rng = np.random.default_rng(0)
        for layer in (Custom(), LinearTwin(rng.normal(size=(2, 3)), np.zeros(2), "t")):
            with pytest.raises(ConfigError, match="cannot serialize"):
                save_network(Network([layer], (3,), [], "odd"), tmp_path / "odd.snet")
