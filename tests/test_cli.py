"""Command-line behavior: flags, defaults, exit codes, idempotence."""

import os
import subprocess
import sys

import numpy as np
import pytest

from stitchkit import cli
from stitchkit.cli import build_parser, main
from stitchkit.serialize import load_dataset, load_network


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli("make-data", "--out", str(out), "--per-class", "40", "--seed", "5") == 0
    return out


@pytest.fixture()
def small_pipeline(tmp_path, data_dir):
    zoo = tmp_path / "zoo"
    rc = run_cli(
        "train-zoo",
        "--data",
        str(data_dir / "train.sdat"),
        "--out",
        str(zoo),
        "--epochs",
        "2",
        "--seed",
        "5",
    )
    assert rc == 0
    manifest = tmp_path / "pool.manifest"
    assert run_cli("build-pool", "--zoo", str(zoo), "--out", str(manifest)) == 0
    return data_dir, zoo, manifest


class TestMakeData:
    def test_writes_train_and_test_splits(self, data_dir):
        train = load_dataset(data_dir / "train.sdat")
        test = load_dataset(data_dir / "test.sdat")
        assert len(train) == 8 * 32 and train.split == "train"
        assert len(test) == 8 * 8 and test.split == "test"

    def test_seed_repeat_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("make-data", "--out", str(a), "--per-class", "10", "--seed", "9")
        run_cli("make-data", "--out", str(b), "--per-class", "10", "--seed", "9")
        assert (a / "train.sdat").read_bytes() == (b / "train.sdat").read_bytes()
        assert (a / "test.sdat").read_bytes() == (b / "test.sdat").read_bytes()

    def test_tiny_split_arithmetic(self, tmp_path):
        out = tmp_path / "d"
        run_cli("make-data", "--out", str(out), "--classes", "2", "--per-class", "10")
        assert len(load_dataset(out / "train.sdat")) == 16
        assert len(load_dataset(out / "test.sdat")) == 4

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("STITCHKIT_SEED", "77")
        run_cli("make-data", "--out", str(a), "--per-class", "10", "--seed", "1")
        monkeypatch.delenv("STITCHKIT_SEED")
        run_cli("make-data", "--out", str(b), "--per-class", "10", "--seed", "77")
        assert (a / "train.sdat").read_bytes() == (b / "train.sdat").read_bytes()


class TestTrainZoo:
    def test_epochs_zero_saves_init_networks(self, tmp_path, data_dir):
        zoo = tmp_path / "zoo0"
        rc = run_cli(
            "train-zoo", "--data", str(data_dir / "train.sdat"), "--out", str(zoo),
            "--epochs", "0",
        )
        assert rc == 0
        files = sorted(p.name for p in zoo.glob("*.snet"))
        assert files == ["cnn_a.snet", "cnn_b.snet", "mlp_c.snet"]

    def test_rerun_same_seed_identical_files(self, tmp_path, data_dir):
        za, zb = tmp_path / "za", tmp_path / "zb"
        args = ["--data", str(data_dir / "train.sdat"), "--epochs", "1", "--seed", "3"]
        run_cli("train-zoo", "--out", str(za), *args)
        run_cli("train-zoo", "--out", str(zb), *args)
        for name in ("cnn_a.snet", "cnn_b.snet", "mlp_c.snet"):
            assert (za / name).read_bytes() == (zb / name).read_bytes()


class TestGenerate:
    def test_default_run_produces_results(self, tmp_path, small_pipeline):
        data_dir, zoo, manifest = small_pipeline
        out = tmp_path / "gen"
        rc = run_cli(
            "generate", "--pool", str(manifest), "--data", str(data_dir / "train.sdat"),
            "--out", str(out), "--seed", "5",
        )
        assert rc == 0
        assert (out / "results.csv").exists()
        assert (out / "stats.json").exists()
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "stitchnet_id,score,n_fragments,n_params,provenance"
        n = len(lines) - 1
        assert n == len(list(out.glob("sn*.snet")))

    def test_rerun_byte_identical_outputs(self, tmp_path, small_pipeline):
        data_dir, zoo, manifest = small_pipeline
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            rc = run_cli(
                "generate", "--pool", str(manifest), "--data", str(data_dir / "train.sdat"),
                "--out", str(out), "--seed", "5",
            )
            assert rc == 0
            outs.append(out)
        a, b = outs
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_threshold_one_empty_results_exit_zero(self, tmp_path, small_pipeline):
        data_dir, zoo, manifest = small_pipeline
        out = tmp_path / "gen_empty"
        rc = run_cli(
            "generate", "--pool", str(manifest), "--data", str(data_dir / "train.sdat"),
            "--out", str(out), "-T", "1.0",
        )
        assert rc == 0
        assert (out / "results.csv").read_text().splitlines()[1:] == []

    def test_missing_manifest_exit_two(self, tmp_path, data_dir, capsys):
        rc = run_cli(
            "generate", "--pool", str(tmp_path / "ghost.manifest"),
            "--data", str(data_dir / "train.sdat"), "--out", str(tmp_path / "g"),
        )
        assert rc == 2
        assert "ghost.manifest" in capsys.readouterr().err

    def test_with_inference_writes_outputs(self, tmp_path, small_pipeline):
        data_dir, zoo, manifest = small_pipeline
        out = tmp_path / "gen_inf"
        rc = run_cli(
            "generate", "--pool", str(manifest), "--data", str(data_dir / "train.sdat"),
            "--out", str(out), "--with-inference", "-M", "16",
        )
        assert rc == 0
        assert (out / "outputs.csv").exists()

    def test_reloaded_stitchnet_executes(self, tmp_path, small_pipeline):
        data_dir, zoo, manifest = small_pipeline
        out = tmp_path / "gen2"
        run_cli(
            "generate", "--pool", str(manifest), "--data", str(data_dir / "train.sdat"),
            "--out", str(out),
        )
        snets = sorted(out.glob("sn*.snet"))
        if snets:  # tiny 2-epoch zoo can prune everything; results may be empty
            sn = load_network(snets[0])
            test = load_dataset(data_dir / "test.sdat")
            probs = sn.forward(test.images[:4])
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


class TestEvaluateEnsembleReport:
    def test_evaluate_zoo_exit_zero(self, tmp_path, small_pipeline):
        data_dir, zoo, manifest = small_pipeline
        out = tmp_path / "evals.csv"
        rc = run_cli(
            "evaluate", "--models", str(zoo), "--data", str(data_dir / "test.sdat"),
            "--label-map", "0-3:0,4-7:1", "--out", str(out),
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 4  # header + 3 nets

    def test_ensemble_loads_only_the_picked_nets(self, tmp_path, small_pipeline, monkeypatch):
        data_dir, zoo, manifest = small_pipeline
        gen = tmp_path / "gen_k"
        run_cli(
            "generate", "--pool", str(manifest), "--data", str(data_dir / "train.sdat"),
            "--out", str(gen), "-T", "0.0",
        )
        n_nets = len(list(gen.glob("sn*.snet")))
        assert n_nets > 2
        common = ["--results", str(gen), "--data", str(data_dir / "test.sdat"), "--cka-min", "0.0"]
        report = tmp_path / "report_k"
        assert run_cli("report", *common, "--ensemble-k", "2", "--out", str(report)) == 0

        import stitchkit.cli as cli

        loaded = []

        def counting_load(path):
            loaded.append(path)
            return load_network(path)

        monkeypatch.setattr(cli, "load_network", counting_load)
        sweep = tmp_path / "sweep_k.csv"
        assert run_cli("ensemble", *common, "-k", "2", "--out", str(sweep)) == 0
        assert 0 < len(loaded) <= 2
        # the same pick and rows as report, which loads every net first
        assert sweep.read_bytes() == (report / "ensemble_sweep.csv").read_bytes()

    def test_report_on_empty_results_header_only(self, tmp_path, small_pipeline):
        data_dir, zoo, manifest = small_pipeline
        gen = tmp_path / "gen_empty2"
        run_cli(
            "generate", "--pool", str(manifest), "--data", str(data_dir / "train.sdat"),
            "--out", str(gen), "-T", "1.0",
        )
        report = tmp_path / "report"
        rc = run_cli(
            "report", "--results", str(gen), "--data", str(data_dir / "test.sdat"),
            "--out", str(report),
        )
        assert rc == 0
        for name in ("results.csv", "histograms.csv", "learning_curve.csv", "ensemble_sweep.csv"):
            assert len((report / name).read_text().splitlines()) == 1


class TestNumericFailure:
    def test_divergent_training_exit_three(self, tmp_path, data_dir, capsys):
        with np.errstate(over="ignore"):
            rc = run_cli(
                "train-zoo", "--data", str(data_dir / "train.sdat"),
                "--out", str(tmp_path / "z"), "--epochs", "2", "--lr", "1e12",
            )
        assert rc == 3
        assert "diverged" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["make-data", "--bogus"])
        assert exc.value.code == 1

    def test_unknown_command_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_label_map_exit_one(self, tmp_path, data_dir):
        rc = run_cli(
            "evaluate", "--models", str(tmp_path), "--data", str(data_dir / "test.sdat"),
            "--label-map", "nonsense", "--out", str(tmp_path / "e.csv"),
        )
        assert rc == 1

    def test_help_lists_defaults_everywhere(self, capsys):
        for cmd in (
            "make-data", "train-zoo", "build-pool", "generate",
            "evaluate", "ensemble", "report", "demo",
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([cmd, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "default" in out


class TestSharedParser:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_build_parser():
            calls.append(1)
            return build_parser()

        cli._shared_parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        out = tmp_path / "d"
        argv = ["make-data", "--out", str(out), "--classes", "2", "--per-class", "10"]
        written = []
        try:
            for _ in range(2):
                assert main(argv) == 0
                written.append([(out / f).read_bytes() for f in ("train.sdat", "test.sdat")])
        finally:
            cli._shared_parser.cache_clear()
        assert written[0] == written[1]
        assert len(calls) == 1


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, "-m", "stitchkit.cli", "make-data", "--out",
             str(tmp_path / "d"), "--per-class", "8"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert (tmp_path / "d" / "train.sdat").exists()
