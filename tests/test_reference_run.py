"""The reference run as a golden: the zoo's .snet bytes and the fine-pool
generate outputs (K=2, T=0.5, L=16, M=32) hash to a pinned digest."""

import hashlib

import numpy as np

from stitchkit.cli import main
from stitchkit.serialize import load_network, save_dataset, save_network, save_pool_manifest

# captured with numpy 2.4.6; a different numpy or BLAS may round differently
GOLDEN_REFERENCE_RUN = "cffbdf6a920aa9abef1db792922ffb3c35d4ce614ed41788146321842953b67d"


def _digest(files):
    h = hashlib.sha256()
    for label, path in files:
        data = path.read_bytes()
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def test_reference_run_matches_golden_digest(tmp_path, zoo, dataset8):
    zoo_dir = tmp_path / "zoo"
    zoo_dir.mkdir()
    zoo_files = [save_network(net, zoo_dir / f"{net.id}.snet") for net in zoo]
    manifest = save_pool_manifest([p.name for p in zoo_files], zoo_dir / "pool.manifest", fine=True)
    train = save_dataset(dataset8.train, tmp_path / "train.sdat")
    out = tmp_path / "generated"
    argv = ["generate", "--pool", str(manifest), "--data", str(train), "--out", str(out)]
    argv += ["-K", "2", "-T", "0.5", "-L", "16", "-M", "32", "--seed", "7"]
    assert main(argv) == 0

    nets = sorted(out.glob("*.snet"))
    assert len(nets) == 63
    for path in nets:  # the loader reads back exactly what was written
        again = save_network(load_network(path), tmp_path / "again.snet")
        assert again.read_bytes() == path.read_bytes(), path.name
    files = [(f"zoo/{p.name}", p) for p in zoo_files]
    files += [(f"generated/{p.name}", p) for p in nets]
    files += [(f"generated/{name}", out / name) for name in ("results.csv", "stats.json")]
    digest = _digest(files)
    assert digest == GOLDEN_REFERENCE_RUN, (
        f"reference run digest {digest} differs from the golden, captured with "
        f"numpy 2.4.6 (running numpy {np.__version__})"
    )
