"""Command-line front end for the full pipeline.

Commands: make-data, train-zoo, build-pool, generate, evaluate, ensemble,
report, demo. Every flag has a documented default; STITCHKIT_SEED overrides
any --seed. Exit codes: 0 success (including empty results), 1 usage error,
2 data/format error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .data import make_synthetic_dataset, parse_label_map, remap_dataset, superclass_label_map
from .errors import ConfigError, NumericError, ParseError, StitchkitError
from .evaluate import (
    emit_report,
    ensemble_sweep,
    evaluate_many,
    select_ensemble_pool,
    write_csv,
    write_evals_csv,
)
from .generate import GenerationConfig, GenerationResult, GenerationStats, generate
from .serialize import (
    load_dataset,
    load_network,
    load_pool_manifest,
    save_dataset,
    save_network,
    save_pool_manifest,
)
from .training import finetune_last_layer
from .zoo import ZOO_EPOCHS, ZOO_LR, build_zoo


class _Parser(argparse.ArgumentParser):
    # usage failures exit 1, not argparse's default 2 (2 means data error here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(value):
    env = os.environ.get("STITCHKIT_SEED")
    if env not in (None, ""):
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"STITCHKIT_SEED must be an integer, got {env!r}") from None
    return value


def _label_map(args):
    if getattr(args, "label_map", None):
        return parse_label_map(args.label_map)
    return None


def _results_rows(path):
    """(stitched net id, score) rows of a generate() output directory."""
    csv = Path(path) / "results.csv"
    if not csv.exists():
        raise ParseError(f"no results.csv under {path}")
    rows = []
    for lineno, line in enumerate(csv.read_bytes().splitlines()[1:], start=2):
        if not line:
            continue
        try:  # UnicodeDecodeError is a ValueError too
            sn_id, score = line.decode("ascii").split(",")[:2]
            rows.append((sn_id, float(score)))
        except ValueError:
            raise ParseError(f"{csv}:{lineno}: expected 'id,score,...', got {line!r}") from None
    return rows


def _load_results_dir(path):
    """Reload a generate() output directory into a GenerationResult."""
    entries = [(load_network(Path(path) / f"{sn_id}.snet"), score) for sn_id, score in _results_rows(path)]
    entries.sort(key=lambda t: -t[1])
    return GenerationResult(entries=entries, stats=GenerationStats())


def _write_generation_outputs(result, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for sn, score in result.entries:
        save_network(sn, out_dir / f"{sn.id}.snet")
        rows.append((sn.id, float(score), sn.n_fragments, sn.n_params, sn.provenance_key))
    write_csv(
        out_dir / "results.csv",
        ["stitchnet_id", "score", "n_fragments", "n_params", "provenance"],
        rows,
    )
    stats = result.stats
    # wall time stays off disk: identical inputs+seed must give identical bytes
    summary = {
        "candidates_evaluated": stats.candidates_evaluated,
        "joints_rejected": stats.joints_rejected,
        "cka_computations": stats.cka_computations,
        "stitchnets_emitted": stats.stitchnets_emitted,
        "samples_processed": stats.samples_processed,
        "emission_joints": {sn.id: result.emission_joints[sn.id] for sn, _ in result.entries},
    }
    (out_dir / "stats.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="ascii")
    if result.task_outputs is not None:
        rows = []
        for sn_id in sorted(result.task_outputs):
            probs = result.task_outputs[sn_id]
            for i in range(probs.shape[0]):
                for c in range(probs.shape[1]):
                    rows.append((sn_id, i, c, float(probs[i, c])))
        write_csv(
            out_dir / "outputs.csv",
            ["stitchnet_id", "sample_index", "class_index", "prob"],
            rows,
        )


def cmd_make_data(args):
    ds = make_synthetic_dataset(args.classes, args.per_class, args.image_size, _seed(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds.train, out / "train.sdat")
    save_dataset(ds.test, out / "test.sdat")
    print(f"wrote {out / 'train.sdat'} ({len(ds.train)} samples)")
    print(f"wrote {out / 'test.sdat'} ({len(ds.test)} samples)")
    return 0


def cmd_train_zoo(args):
    train = load_dataset(args.data)
    nets = build_zoo(
        train,
        arch_names=args.archs.split(","),
        epochs=args.epochs,
        lr=args.lr,
        momentum=args.momentum,
        batch_size=args.batch_size,
        seed=_seed(args.seed),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for net in nets:
        p = save_network(net, out / f"{net.id}.snet")
        print(f"wrote {p} ({net.n_params} params)")
    return 0


def cmd_build_pool(args):
    zoo = Path(args.zoo)
    paths = sorted(zoo.glob("*.snet"))
    if not paths:
        raise ParseError(f"no .snet files under {zoo}")
    manifest = Path(args.out)
    manifest.parent.mkdir(parents=True, exist_ok=True)
    rel = [os.path.relpath(p, manifest.parent) for p in paths]
    save_pool_manifest(rel, manifest, fine=args.fine)
    pool = load_pool_manifest(manifest)
    print(
        f"wrote {manifest}: {len(pool.networks)} networks, {len(pool.fragments)} fragments "
        f"({len(pool.starting_fragments)} starting, {len(pool.terminating_fragments)} terminating)"
    )
    return 0


def cmd_generate(args):
    pool = load_pool_manifest(args.pool)
    dataset = load_dataset(args.data)
    cfg = GenerationConfig(
        span_k=args.K,
        threshold=args.T,
        max_fragments=args.L,
        samples_m=args.M,
        starting_ids=args.starting_ids.split(",") if args.starting_ids else None,
        candidate_strategy=args.strategy,
        seed=_seed(args.seed),
    )
    result = generate(pool, dataset, cfg, with_inference=args.with_inference)
    _write_generation_outputs(result, args.out)
    print(
        f"generated {len(result.entries)} stitched nets "
        f"({result.stats.candidates_evaluated} joints evaluated, "
        f"{result.stats.joints_rejected} rejected) -> {args.out}"
    )
    return 0


def cmd_evaluate(args):
    dataset = load_dataset(args.data)
    lm = _label_map(args)
    models = []
    for spec in args.models:
        p = Path(spec)
        if p.is_dir():
            models.extend(load_network(f) for f in sorted(p.glob("*.snet")))
        else:
            models.append(load_network(p))
    if not models:
        raise ParseError(f"no models found in {args.models}")
    evals = evaluate_many(models, dataset, lm)
    write_evals_csv(evals, args.out)
    for r in evals:
        print(f"{r.model_id}: accuracy={r.accuracy:.4f} params={r.n_params}")
    print(f"wrote {args.out}")
    return 0


def cmd_ensemble(args):
    # pick from results.csv first: only the ensembled nets are loaded
    picked_ids = select_ensemble_pool(_results_rows(args.results), cka_min=args.cka_min, k=args.k)
    picked = [load_network(Path(args.results) / f"{sn_id}.snet") for sn_id in picked_ids]
    dataset = load_dataset(args.data)
    lm = _label_map(args)
    if not picked:
        print("no stitched nets above the score threshold; nothing to ensemble")
        write_csv(Path(args.out), ["ensemble_size", "accuracy"], [])
        return 0
    rows = ensemble_sweep(picked, dataset, lm)
    write_csv(Path(args.out), ["ensemble_size", "accuracy"], rows)
    for size, acc in rows:
        print(f"ensemble size {size}: accuracy={acc:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_report(args):
    result = _load_results_dir(args.results)
    dataset = load_dataset(args.data)
    lm = _label_map(args)
    evals = evaluate_many([sn for sn, _ in result.entries], dataset, lm)
    sweep = None
    if args.ensemble_k:
        picked = select_ensemble_pool(result, cka_min=args.cka_min, k=args.ensemble_k)
        sweep = ensemble_sweep(picked, dataset, lm) if picked else []
    files = emit_report(result, evals, args.out, curves=None, sweep=sweep)
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_demo(args):
    """Full pipeline with the reference hyperparameters, one output tree."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = _seed(args.seed)
    print("[1/6] synthesizing dataset")
    ds = make_synthetic_dataset(args.classes, args.per_class, args.image_size, seed)
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    save_dataset(ds.train, data_dir / "train.sdat")
    save_dataset(ds.test, data_dir / "test.sdat")

    print("[2/6] training the zoo")
    nets = build_zoo(ds.train, epochs=args.epochs, seed=seed)
    zoo_dir = out / "zoo"
    zoo_dir.mkdir(exist_ok=True)
    for net in nets:
        save_network(net, zoo_dir / f"{net.id}.snet")
    manifest = out / "pool.manifest"
    save_pool_manifest(
        [os.path.relpath(zoo_dir / f"{n.id}.snet", out) for n in nets], manifest
    )
    pool = load_pool_manifest(manifest)

    print("[3/6] generating stitched nets")
    cfg = GenerationConfig(
        span_k=args.K, threshold=args.T, max_fragments=args.L, samples_m=args.M, seed=seed
    )
    result = generate(pool, ds.train, cfg)
    _write_generation_outputs(result, out / "generated")
    print(f"    {len(result.entries)} stitched nets")

    print("[4/6] evaluating on the superclass subtask")
    lm = superclass_label_map(args.classes, 2)
    all_evals = evaluate_many([sn for sn, _ in result.entries] + nets, ds.test, lm)
    evals, zoo_evals = all_evals[: len(result.entries)], all_evals[len(result.entries) :]
    write_evals_csv(all_evals, out / "evals.csv")

    print("[5/6] fine-tuning baselines (accuracy vs samples)")
    sub_train = remap_dataset(ds.train, lm)
    sub_test = remap_dataset(ds.test, lm)
    curves = {}
    for net in nets:
        _, curve = finetune_last_layer(
            net, sub_train, args.finetune_budget, eval_dataset=sub_test, seed=seed
        )
        curves[net.id] = curve
    if result.entries:
        best = max(evals, key=lambda r: r.accuracy)
        # cost to reach that accuracy: M samples per joint examined up to the
        # first emission attaining it, same accounting as the search stats
        best_cost = args.M * min(
            result.emission_joints[r.model_id]
            for r in evals
            if r.accuracy >= best.accuracy
        )
        curves["stitched_best"] = [(best_cost, best.accuracy)]

    print("[6/6] ensembles and report")
    picked = select_ensemble_pool(result, cka_min=args.cka_min, k=args.ensemble_k)
    sweep = ensemble_sweep(picked, ds.test, lm) if picked else []
    emit_report(result, evals, out / "report", curves=curves, sweep=sweep)
    best_line = (
        f"best stitched accuracy {max(r.accuracy for r in evals):.4f}"
        if evals
        else "no stitched nets emitted"
    )
    zoo_best = max(r.accuracy for r in zoo_evals)
    print(f"done: {best_line}; best zoo accuracy {zoo_best:.4f}; outputs under {out}")
    return 0


def build_parser():
    parser = _Parser(
        prog="stitchkit",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "make-data",
        help="synthesize the labeled dataset and write train/test splits",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--out", default="data", help="output directory")
    p.add_argument("--classes", type=int, default=8, help="number of classes")
    p.add_argument("--per-class", type=int, default=200, help="samples per class")
    p.add_argument("--image-size", type=int, default=16, help="square image side")
    p.add_argument("--seed", type=int, default=7, help="generation seed")
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser(
        "train-zoo",
        help="train the architecture zoo on a dataset",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--data", default="data/train.sdat", help="training dataset file")
    p.add_argument("--out", default="zoo", help="output directory for .snet files")
    p.add_argument("--archs", default="cnn_a,cnn_b,mlp_c", help="comma-separated architectures")
    p.add_argument("--epochs", type=int, default=ZOO_EPOCHS, help="training epochs")
    p.add_argument("--lr", type=float, default=ZOO_LR, help="learning rate")
    p.add_argument("--momentum", type=float, default=0.9, help="SGD momentum")
    p.add_argument("--batch-size", type=int, default=32, help="batch size")
    p.add_argument("--seed", type=int, default=7, help="initialization/shuffle seed")
    p.set_defaults(func=cmd_train_zoo)

    p = sub.add_parser(
        "build-pool",
        help="write a fragment-pool manifest for a zoo directory",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--zoo", default="zoo", help="directory of .snet files")
    p.add_argument("--out", default="pool.manifest", help="manifest path")
    p.add_argument("--fine", action="store_true", help="also expose multi-span fragments")
    p.set_defaults(func=cmd_build_pool)

    p = sub.add_parser(
        "generate",
        help="run the composition search over a fragment pool",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--pool", default="pool.manifest", help="pool manifest path")
    p.add_argument("--data", default="data/train.sdat", help="target dataset file")
    p.add_argument("--out", default="generated", help="output directory")
    p.add_argument("-K", type=int, default=2, help="candidate span per node")
    p.add_argument("-T", type=float, default=0.5, help="score pruning threshold")
    p.add_argument("-L", type=int, default=16, help="maximum fragments per net")
    p.add_argument("-M", type=int, default=32, help="target samples used for stitching")
    p.add_argument(
        "--strategy",
        default="top_cka",
        choices=["top_cka", "fewest_params"],
        help="candidate ranking strategy",
    )
    p.add_argument("--starting-ids", default="", help="comma-separated starting fragment/network ids")
    p.add_argument("--seed", type=int, default=7, help="target-sample selection seed")
    p.add_argument(
        "--with-inference",
        action="store_true",
        help="also write per-net class probabilities on the target samples",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "evaluate",
        help="evaluate models (.snet files or directories) on a dataset",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--models", nargs="+", required=True, help=".snet files or directories")
    p.add_argument("--data", default="data/test.sdat", help="evaluation dataset file")
    p.add_argument("--label-map", default="", help="class grouping, e.g. '0-3:0,4-7:1'")
    p.add_argument("--out", default="evals.csv", help="output CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "ensemble",
        help="probability-averaging ensemble sweep over generated nets",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--results", default="generated", help="generate output directory")
    p.add_argument("--data", default="data/test.sdat", help="evaluation dataset file")
    p.add_argument("--label-map", default="", help="class grouping, e.g. '0-3:0,4-7:1'")
    p.add_argument("--cka-min", type=float, default=0.8, help="minimum overall score")
    p.add_argument("-k", type=int, default=10, help="maximum ensemble size")
    p.add_argument("--out", default="ensemble_sweep.csv", help="output CSV path")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser(
        "report",
        help="emit scatter/histogram/sweep CSVs for a generation run",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--results", default="generated", help="generate output directory")
    p.add_argument("--data", default="data/test.sdat", help="evaluation dataset file")
    p.add_argument("--label-map", default="", help="class grouping, e.g. '0-3:0,4-7:1'")
    p.add_argument("--out", default="report", help="report output directory")
    p.add_argument("--ensemble-k", type=int, default=10, help="ensemble sweep size (0 disables)")
    p.add_argument("--cka-min", type=float, default=0.8, help="ensemble score threshold")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "demo",
        help="end-to-end pipeline with reference hyperparameters",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p.add_argument("--out", default="demo_run", help="output directory")
    p.add_argument("--classes", type=int, default=8, help="number of classes")
    p.add_argument("--per-class", type=int, default=200, help="samples per class")
    p.add_argument("--image-size", type=int, default=16, help="square image side")
    p.add_argument("--epochs", type=int, default=ZOO_EPOCHS, help="zoo training epochs")
    p.add_argument("-K", type=int, default=2, help="candidate span per node")
    p.add_argument("-T", type=float, default=0.5, help="score pruning threshold")
    p.add_argument("-L", type=int, default=16, help="maximum fragments per net")
    p.add_argument("-M", type=int, default=32, help="target samples used for stitching")
    p.add_argument("--finetune-budget", type=int, default=6400, help="baseline sample budget")
    p.add_argument("--ensemble-k", type=int, default=10, help="ensemble sweep size")
    p.add_argument("--cka-min", type=float, default=0.8, help="ensemble score threshold")
    p.add_argument("--seed", type=int, default=7, help="global seed")
    p.set_defaults(func=cmd_demo)
    return parser


@functools.cache
def _shared_parser():
    # built once per process: each build leaves argparse objects behind
    return build_parser()


def main(argv=None):
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (StitchkitError, FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
