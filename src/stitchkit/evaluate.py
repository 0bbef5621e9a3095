"""Accuracy evaluation, probability-averaging ensembles, and CSV reports.

Models are forwarded together, batch by batch, through the prefix tree of
their layer chains (network.PrefixTree). Nets from one search share their
early fragments, so each shared prefix runs once per batch instead of once
per net. Layers merge only when kind, name, hyperparameters and the exact
bytes of every parameter agree, so every probability is bit-identical to
forwarding that model alone under the same batching.

Argmax ties break to the lowest class index everywhere. Report files are
plain CSV (comma separators, '.' decimals, LF endings) with byte-stable
output for identical inputs; floats are written with repr so parsing them
back recovers the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import apply_label_map
from .errors import ConfigError, DimensionError
from .network import PrefixTree


@dataclass
class EvalReport:
    model_id: str
    accuracy: float
    n_params: int
    overall_cka: float | None = None
    n_correct: int = 0
    n_total: int = 0
    per_class: dict = field(default_factory=dict)
    n_fragments: int = 1
    provenance: str = ""


def _mapped(probs, label_map):
    return probs if label_map is None else apply_label_map(probs, label_map)


def _batched_probs(models, images, label_map=None, batch_size=256):
    """Each model's (label-mapped) probabilities on images, in model order."""
    tree = PrefixTree(models)
    parts = [[] for _ in models]
    for start in range(0, images.shape[0], batch_size):
        for part, probs in zip(parts, tree.forward(images[start : start + batch_size])):
            part.append(_mapped(probs, label_map))
    return [np.concatenate(part, axis=0) for part in parts]


def evaluate_many(models, dataset, label_map=None, batch_size=256, allow_train_split=False):
    """Accuracy of each model on a labeled dataset, optionally label-mapped.

    With a label map, model probabilities are grouped into target classes
    and dataset labels mapped the same way. Evaluation on the train split is
    refused unless allow_train_split (scores must come from unseen samples).
    Returns one EvalReport per model, in order.
    """
    if dataset.split == "train" and not allow_train_split:
        raise ConfigError("refusing to evaluate on the train split (pass allow_train_split=True)")
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    all_probs = _batched_probs(models, dataset.images, label_map, batch_size)
    labels = dataset.labels if label_map is None else label_map.map_labels(dataset.labels)
    return [_report(model, probs, labels) for model, probs in zip(models, all_probs)]


def evaluate(model, dataset, label_map=None, batch_size=256, allow_train_split=False):
    """evaluate_many for a single model."""
    return evaluate_many([model], dataset, label_map, batch_size, allow_train_split)[0]


def _report(model, probs, labels):
    if labels.max(initial=0) >= probs.shape[1]:
        raise ConfigError(
            f"labels reach {labels.max()} but model emits {probs.shape[1]} classes"
        )
    preds = np.argmax(probs, axis=1)  # first max: lowest-index tie-break
    correct = int((preds == labels).sum())
    total = int(labels.shape[0])
    per_class = {}
    for c in np.unique(labels):
        mask = labels == c
        per_class[int(c)] = float((preds[mask] == c).mean())
    return EvalReport(
        model_id=getattr(model, "id", "model"),
        accuracy=correct / total,
        n_params=int(getattr(model, "n_params", 0)),
        overall_cka=getattr(model, "cumulative_score", None),
        n_correct=correct,
        n_total=total,
        per_class=per_class,
        n_fragments=int(getattr(model, "n_fragments", 1)),
        provenance=getattr(model, "provenance_key", ""),
    )


def ensemble_predict(models, batch, label_map=None):
    """Average the class probabilities of several models on one batch.

    Returns (mean probabilities, argmax labels). All models must emit the
    same class space after any label mapping.
    """
    if not models:
        raise ConfigError("ensemble needs at least one model")
    probs = None
    width = None
    for model, p in zip(models, PrefixTree(models).forward(batch)):
        p = _mapped(p, label_map)
        if width is None:
            width = p.shape[1]
            probs = np.zeros_like(p)
        elif p.shape[1] != width:
            raise DimensionError(
                f"model '{getattr(model, 'id', '?')}' emits {p.shape[1]} classes, expected {width}"
            )
        probs += p
    probs /= len(models)
    return probs, np.argmax(probs, axis=1)


def select_ensemble_pool(result, cka_min=0.8, k=10):
    """Highest-scoring stitched nets with score strictly above cka_min.

    `result` is a GenerationResult or a list of (net, score) entries; a net
    may also be given as its id string, as read back from results.csv.
    Ties on score break on id.
    """
    entries = getattr(result, "entries", result)
    picked = [(sn, s) for sn, s in entries if s > cka_min]
    picked.sort(key=lambda t: (-t[1], getattr(t[0], "id", t[0])))
    return [sn for sn, _ in picked[:k]]


def ensemble_sweep(models, dataset, label_map=None, batch_size=256):
    """Accuracy of the size-1..size-n prefixes of a model list."""
    labels = dataset.labels if label_map is None else label_map.map_labels(dataset.labels)
    rows = []
    summed = None
    for size, p in enumerate(_batched_probs(models, dataset.images, label_map, batch_size), start=1):
        summed = p if summed is None else summed + p
        preds = np.argmax(summed / size, axis=1)
        rows.append((size, float((preds == labels).mean())))
    return rows


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # canonical text even for numpy scalars
    return str(v)


EVAL_COLUMNS = [
    "model_id",
    "accuracy",
    "n_params",
    "overall_cka",
    "n_correct",
    "n_total",
    "n_fragments",
    "provenance",
    "per_class",
]


def write_evals_csv(evals, path):
    """Persist EvalReports; read_evals_csv recovers them exactly."""
    rows = []
    for r in evals:
        per_class = ";".join(f"{c}:{acc!r}" for c, acc in sorted(r.per_class.items()))
        rows.append(
            (
                r.model_id,
                r.accuracy,
                r.n_params,
                r.overall_cka,
                r.n_correct,
                r.n_total,
                r.n_fragments,
                r.provenance,
                per_class,
            )
        )
    return write_csv(path, EVAL_COLUMNS, rows)


def read_evals_csv(path):
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != ",".join(EVAL_COLUMNS):
        raise ConfigError(f"{path} is not an evaluation CSV")
    out = []
    for line in lines[1:]:
        model_id, acc, n_params, cka, n_corr, n_tot, n_frag, prov, per_class = line.split(",")
        pc = {}
        if per_class:
            for item in per_class.split(";"):
                c, v = item.split(":")
                pc[int(c)] = float(v)
        out.append(
            EvalReport(
                model_id=model_id,
                accuracy=float(acc),
                n_params=int(n_params),
                overall_cka=float(cka) if cka else None,
                n_correct=int(n_corr),
                n_total=int(n_tot),
                per_class=pc,
                n_fragments=int(n_frag),
                provenance=prov,
            )
        )
    return out


def write_csv(path, header, rows):
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def _histogram_rows(name, values, bins=10):
    rows = []
    if len(values) == 0:
        return rows
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        rows.append((name, 0, lo, hi, len(values)))
        return rows
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    for i, c in enumerate(counts):
        rows.append((name, i, float(edges[i]), float(edges[i + 1]), int(c)))
    return rows


def emit_report(result, evals, out_dir, curves=None, sweep=None):
    """Write the evaluation CSVs for a generation run.

    results.csv       one row per stitched net: score, size, accuracy
    histograms.csv    binned accuracy / fragment count / score / parameters
    learning_curve.csv  accuracy vs training samples processed rows
    ensemble_sweep.csv  accuracy vs ensemble size rows

    Deterministic: identical inputs give byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_id = {r.model_id: r for r in evals}
    rows = []
    for sn, score in result.entries:
        r = by_id.get(sn.id)
        rows.append(
            (
                sn.id,
                float(score),
                sn.n_fragments,
                sn.n_params,
                r.accuracy if r else None,
                sn.provenance_key,
            )
        )
    files = [
        write_csv(
            out_dir / "results.csv",
            ["stitchnet_id", "score", "n_fragments", "n_params", "accuracy", "provenance"],
            rows,
        )
    ]

    hist_rows = []
    reported = [by_id[sn.id] for sn, _ in result.entries if sn.id in by_id]
    hist_rows += _histogram_rows("accuracy", [r.accuracy for r in reported])
    hist_rows += _histogram_rows("n_fragments", [sn.n_fragments for sn, _ in result.entries])
    hist_rows += _histogram_rows("score", [s for _, s in result.entries])
    hist_rows += _histogram_rows("n_params", [sn.n_params for sn, _ in result.entries])
    files.append(
        write_csv(
            out_dir / "histograms.csv",
            ["metric", "bin", "lo", "hi", "count"],
            hist_rows,
        )
    )

    curve_rows = []
    for model_id, pts in (curves or {}).items():
        for samples, acc in pts:
            curve_rows.append((model_id, int(samples), float(acc)))
    files.append(
        write_csv(
            out_dir / "learning_curve.csv",
            ["model_id", "samples_processed", "accuracy"],
            curve_rows,
        )
    )

    files.append(
        write_csv(
            out_dir / "ensemble_sweep.csv",
            ["ensemble_size", "accuracy"],
            [(int(s), float(a)) for s, a in (sweep or [])],
        )
    )
    return files
