"""Container format round-trips and malformed-file handling."""

import numpy as np
import pytest

from stitchkit.data import make_synthetic_dataset
from stitchkit.errors import ConfigError, ParseError
from stitchkit.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Softmax
from stitchkit.network import Network, build_pool, forward, models_equal
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
