"""The reference run as a golden: the zoo's .snet bytes and the fine-pool
generate outputs (K=2, T=0.5, L=16, M=32) hash to a pinned digest, and so
do the evaluate, ensemble and report outputs on the test split together
with every net's probabilities."""

import hashlib

import numpy as np
import pytest

from stitchkit.cli import main
from stitchkit.evaluate import _batched_probs
from stitchkit.serialize import load_network, save_dataset, save_network, save_pool_manifest

# captured with numpy 2.4.6; a different numpy or BLAS may round differently
GOLDEN_REFERENCE_RUN = "cffbdf6a920aa9abef1db792922ffb3c35d4ce614ed41788146321842953b67d"
GOLDEN_EVALUATION = "3fff97172aed47be4e80d4ccab4688b3ce891d3ba6b32a95693d4243802c4841"


def _digest(files):
    """sha256 over (label, path or bytes) pairs."""
    h = hashlib.sha256()
    for label, data in files:
        data = data if isinstance(data, bytes) else data.read_bytes()
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def _check_golden(digest, golden, what):
    assert digest == golden, (
        f"{what} digest {digest} differs from the golden, captured with "
        f"numpy 2.4.6 (running numpy {np.__version__})"
    )


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory, zoo, dataset8):
    """The zoo files, the generate output directory and the test split file."""
    root = tmp_path_factory.mktemp("reference")
    zoo_dir = root / "zoo"
    zoo_dir.mkdir()
    zoo_files = [save_network(net, zoo_dir / f"{net.id}.snet") for net in zoo]
    manifest = save_pool_manifest([p.name for p in zoo_files], zoo_dir / "pool.manifest", fine=True)
    train = save_dataset(dataset8.train, root / "train.sdat")
    test = save_dataset(dataset8.test, root / "test.sdat")
    out = root / "generated"
    argv = ["generate", "--pool", str(manifest), "--data", str(train), "--out", str(out)]
    argv += ["-K", "2", "-T", "0.5", "-L", "16", "-M", "32", "--seed", "7"]
    assert main(argv) == 0
    return zoo_files, out, test


def test_reference_run_matches_golden_digest(tmp_path, reference_run):
    zoo_files, out, _ = reference_run
    nets = sorted(out.glob("*.snet"))
    assert len(nets) == 63
    for path in nets:  # the loader reads back exactly what was written
        again = save_network(load_network(path), tmp_path / "again.snet")
        assert again.read_bytes() == path.read_bytes(), path.name
    files = [(f"zoo/{p.name}", p) for p in zoo_files]
    files += [(f"generated/{p.name}", p) for p in nets]
    files += [(f"generated/{name}", out / name) for name in ("results.csv", "stats.json")]
    _check_golden(_digest(files), GOLDEN_REFERENCE_RUN, "reference run")


def test_evaluation_outputs_match_golden_digest(tmp_path, reference_run, dataset8):
    zoo_files, out, test = reference_run
    data = ["--data", str(test)]
    label_map = ["--label-map", "0-3:0,4-7:1"]
    models = ["--models", str(out), *map(str, zoo_files)]
    runs = {
        "evals.csv": ["evaluate", *models, *data],
        "evals_mapped.csv": ["evaluate", *models, *data, *label_map],
        "ensemble_sweep.csv": ["ensemble", "--results", str(out), *data, "--cka-min", "0.8", "-k", "10"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    assert main(["report", "--results", str(out), *data, "--out", str(tmp_path / "report")]) == 0
    files = [(name, tmp_path / name) for name in runs]
    files += [(f"report/{p.name}", p) for p in sorted((tmp_path / "report").iterdir())]
    # accuracies hide most roundings; the probabilities themselves do not
    paths = sorted(out.glob("*.snet")) + list(zoo_files)
    probs = _batched_probs([load_network(p) for p in paths], dataset8.test.images)
    files += [(f"probs/{path.name}", p.tobytes()) for path, p in zip(paths, probs)]
    _check_golden(_digest(files), GOLDEN_EVALUATION, "evaluation")
