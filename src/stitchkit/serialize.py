"""On-disk formats: networks (.snet), datasets (.sdat), pool manifests.

A file is an ASCII text header (LF line endings, space-separated tokens)
followed by one little-endian float64 blob holding every weight tensor in
declaration order. Round-trips are bit-exact; the header is diffable and
trivially parsed from any language. Parse failures report byte offsets.

Layer line grammar (`layer <kind> <name> <params...>`):
    linear          out in
    conv2d          out in kh kw stride padding
    maxpool2d       k stride
    resize          target_h target_w
    relu / flatten / adaptiveavgpool / softmax    (no params)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .layers import (
    AdaptiveAvgPool1x1,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Resize,
    Softmax,
)
from .network import Fragment, FragmentPool, Network, fragmentize
from .stitching import ProvenanceEntry, StitchNet

NETWORK_MAGIC = "SNET"
DATASET_MAGIC = "SDAT"
MANIFEST_MAGIC = "SPOOL"
FORMAT_VERSION = 1


def _check_token(tok, what):
    # ids and labels land unquoted in space-separated headers and in CSVs
    if not tok or any(ch.isspace() or ch == "," for ch in str(tok)):
        raise ConfigError(f"{what} {tok!r} must be non-empty without whitespace or commas")
    return str(tok)


def _layer_line(layer):
    name = _check_token(layer.name, "layer name")
    if layer.kind == "linear":
        o, i = layer.weight.shape
        return f"layer linear {name} {o} {i}"
    if layer.kind == "conv2d":
        o, c, kh, kw = layer.weight.shape
        return f"layer conv2d {name} {o} {c} {kh} {kw} {layer.stride} {layer.padding}"
    if layer.kind == "maxpool2d":
        return f"layer maxpool2d {name} {layer.k} {layer.stride}"
    if layer.kind == "resize":
        return f"layer resize {name} {layer.target_h} {layer.target_w}"
    if layer.kind in ("relu", "flatten", "adaptiveavgpool", "softmax"):
        return f"layer {layer.kind} {name}"
    raise ConfigError(f"cannot serialize layer kind {layer.kind!r}")


def _chain_tensors(chain):
    out = []
    for layer in chain:
        for pname, arr in layer.params().items():
            out.append((f"{layer.name}.{pname}", arr))
    return out


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, msg, offset=None):
        raise ParseError(f"{self.path}: {msg}", self.pos if offset is None else offset)

    def line(self, what="line"):
        start = self.pos
        end = self.data.find(b"\n", start)
        if end == -1:
            self.fail(f"truncated file while reading {what}", start)
        raw = self.data[start:end]
        self.pos = end + 1
        try:
            return raw.decode("ascii"), start
        except UnicodeDecodeError:
            self.fail(f"non-ASCII bytes in {what}", start)

    def tokens(self, what, expect_key=None, min_tokens=1):
        text, start = self.line(what)
        toks = text.split()
        if len(toks) < min_tokens:
            self.fail(f"malformed {what}: {text!r}", start)
        if expect_key is not None and toks[0] != expect_key:
            self.fail(f"expected '{expect_key} ...', got {text!r}", start)
        return toks, start

    def intval(self, tok, what, start):
        try:
            return int(tok)
        except ValueError:
            self.fail(f"bad integer {tok!r} in {what}", start)

    def name(self, tok, what, start):
        """A header token that ends up in CSVs: no commas, as in _check_token."""
        if "," in tok:
            self.fail(f"{what} {tok!r} holds a comma", start)
        return tok

    def floatval(self, tok, what, start):
        try:
            return float(tok)
        except ValueError:
            self.fail(f"bad float {tok!r} in {what}", start)


def _parse_layer(toks, r, start):
    if toks[0] != "layer" or len(toks) < 3:
        r.fail(f"malformed layer line: {' '.join(toks)!r}", start)
    kind, name = toks[1], toks[2]
    args = toks[3:]

    def ints(n):
        if len(args) != n:
            r.fail(f"layer {kind} expects {n} parameters, got {len(args)}", start)
        return [r.intval(a, f"layer {name}", start) for a in args]

    if kind == "linear":
        o, i = ints(2)
        return Linear(np.zeros((o, i)), np.zeros(o), name)
    if kind == "conv2d":
        o, c, kh, kw, stride, padding = ints(6)
        return Conv2d(np.zeros((o, c, kh, kw)), np.zeros(o), stride, padding, name)
    if kind == "maxpool2d":
        k, stride = ints(2)
        return MaxPool2d(k, stride, name)
    if kind == "resize":
        th, tw = ints(2)
        return Resize(th, tw, name)
    if kind == "relu":
        return ReLU(name)
    if kind == "flatten":
        return Flatten(name)
    if kind == "adaptiveavgpool":
        return AdaptiveAvgPool1x1(name)
    if kind == "softmax":
        return Softmax(name)
    r.fail(f"unknown layer kind {kind!r}", start)


def _first_non_finite(flat):
    """Index of the first NaN or Inf in a float array, or None."""
    finite = np.isfinite(flat)
    return None if finite.all() else int(np.argmin(finite))


def _tensor_at(tensors, index):
    """Name of the tensor that holds float number index of the blob."""
    acc = 0
    for tname, arr in tensors:
        if acc + arr.size > index:
            return tname
        acc += arr.size
    return tensors[-1][0] if tensors else "?"


def _read_blob(r, chain):
    toks, start = r.tokens("blob header", expect_key="blob", min_tokens=2)
    declared = r.intval(toks[1], "blob header", start)
    tensors = _chain_tensors(chain)
    expected = sum(arr.size for _, arr in tensors)
    if declared != expected:
        r.fail(
            f"blob declares {declared} floats but layer shapes need {expected}",
            start,
        )
    blob = r.data[r.pos :]
    if len(blob) < declared * 8:
        # name the tensor the shortfall lands in
        have = len(blob) // 8
        r.fail(
            f"blob holds {have} floats, {declared} declared; "
            f"truncated in tensor '{_tensor_at(tensors, have)}'",
            r.pos + have * 8,
        )
    if len(blob) > declared * 8:
        r.fail(f"{len(blob) - declared * 8} trailing bytes after blob", r.pos + declared * 8)
    flat = np.frombuffer(blob, dtype="<f8")
    bad = _first_non_finite(flat)
    if bad is not None:
        r.fail(f"non-finite value {flat[bad]} in tensor '{_tensor_at(tensors, bad)}'", r.pos + bad * 8)
    offset = 0
    for tname, arr in tensors:
        chunk = flat[offset : offset + arr.size]
        arr[...] = chunk.reshape(arr.shape)
        offset += arr.size


def _blob_bytes(chain):
    tensors = _chain_tensors(chain)
    total = sum(arr.size for _, arr in tensors)
    parts = [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in tensors]
    return total, b"".join(parts)


def save_network(model, path):
    """Write a Network or StitchNet to a .snet file (bit-exact round-trip)."""
    path = Path(path)
    is_stitch = isinstance(model, StitchNet)
    lines = [f"{NETWORK_MAGIC} {FORMAT_VERSION}"]
    lines.append(f"kind {'stitchnet' if is_stitch else 'network'}")
    lines.append(f"id {_check_token(model.id or 'unnamed', 'model id')}")
    lines.append("input_shape " + " ".join(str(s) for s in model.input_shape))
    labels = [_check_token(l, "class label") for l in model.class_labels]
    lines.append(f"class_labels {len(labels)}" + ("" if not labels else " " + " ".join(labels)))
    if is_stitch:
        lines.append(f"score {float(model.cumulative_score)!r}")
        lines.append(f"fragments {len(model.fragments)}")
        for adapters, frag, prov in zip(model.adapters, model.fragments, model.provenance):
            lines.append(
                f"fragment {_check_token(frag.source_network_id, 'network id')} "
                f"{frag.start_layer} {frag.end_layer} {frag.kind} {float(prov.cka)!r} "
                f"layers {len(frag.layers)} adapters {len(adapters)}"
            )
            for layer in adapters:
                lines.append(_layer_line(layer))
            for layer in frag.layers:
                lines.append(_layer_line(layer))
        chain = model.chain
    else:
        lines.append(f"layers {len(model.layers)}")
        for layer in model.layers:
            lines.append(_layer_line(layer))
        chain = model.layers
    total, blob = _blob_bytes(chain)
    lines.append(f"blob {total}")
    header = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(header + blob)
    return path


def _load_stitchnet(r, model_id, input_shape, class_labels):
    toks, start = r.tokens("score", expect_key="score", min_tokens=2)
    score = r.floatval(toks[1], "score", start)
    toks, start = r.tokens("fragment count", expect_key="fragments", min_tokens=2)
    n_frags = r.intval(toks[1], "fragment count", start)
    fragments, adapters, provenance = [], [], []
    for _ in range(n_frags):
        toks, start = r.tokens("fragment header", expect_key="fragment", min_tokens=10)
        src, lo, hi, kind = r.name(toks[1], "network id", start), toks[2], toks[3], toks[4]
        cka = r.floatval(toks[5], "fragment header", start)
        if toks[6] != "layers" or toks[8] != "adapters":
            r.fail(f"malformed fragment header: {' '.join(toks)!r}", start)
        n_layers = r.intval(toks[7], "fragment header", start)
        n_adapt = r.intval(toks[9], "fragment header", start)
        lo = r.intval(lo, "fragment header", start)
        hi = r.intval(hi, "fragment header", start)
        adapt = [_parse_layer(*_next_layer(r)) for _ in range(n_adapt)]
        layers = [_parse_layer(*_next_layer(r)) for _ in range(n_layers)]
        try:
            fragments.append(Fragment(src, lo, hi, kind, layers))
        except ConfigError as e:
            r.fail(f"bad fragment: {e}", start)
        adapters.append(adapt)
        provenance.append(ProvenanceEntry(src, lo, hi, cka))
    sn = StitchNet(
        fragments=fragments,
        adapters=adapters,
        cumulative_score=score,
        provenance=provenance,
        input_shape=input_shape,
        class_labels=class_labels,
        id=model_id,
    )
    _read_blob(r, sn.chain)
    return sn


def _next_layer(r):
    toks, start = r.tokens("layer line", min_tokens=2)
    return toks, r, start


def load_network(path):
    """Read a .snet file back into a Network or StitchNet."""
    path = Path(path)
    r = _Reader(path.read_bytes(), str(path))
    toks, start = r.tokens("magic", min_tokens=2)
    if toks[0] != NETWORK_MAGIC:
        r.fail(f"not a network file (magic {toks[0]!r})", start)
    if r.intval(toks[1], "version", start) != FORMAT_VERSION:
        r.fail(f"unsupported format version {toks[1]}", start)
    toks, start = r.tokens("kind", expect_key="kind", min_tokens=2)
    file_kind = toks[1]
    toks, start = r.tokens("id", expect_key="id", min_tokens=2)
    model_id = r.name(toks[1], "model id", start)
    toks, start = r.tokens("input shape", expect_key="input_shape", min_tokens=2)
    input_shape = tuple(r.intval(t, "input shape", start) for t in toks[1:])
    toks, start = r.tokens("class labels", expect_key="class_labels", min_tokens=2)
    n_labels = r.intval(toks[1], "class labels", start)
    labels = [r.name(t, "class label", start) for t in toks[2:]]
    if len(labels) != n_labels:
        r.fail(f"class_labels declares {n_labels} labels, lists {len(labels)}", start)

    if file_kind == "stitchnet":
        return _load_stitchnet(r, model_id, input_shape, labels)
    if file_kind != "network":
        r.fail(f"unknown file kind {file_kind!r}", start)
    toks, start = r.tokens("layer count", expect_key="layers", min_tokens=2)
    n_layers = r.intval(toks[1], "layer count", start)
    layers = [_parse_layer(*_next_layer(r)) for _ in range(n_layers)]
    try:
        net = Network(layers, input_shape, labels, model_id)
    except ConfigError as e:
        r.fail(f"inconsistent network: {e}")
    _read_blob(r, net.layers)
    return net


def save_dataset(dataset, path):
    """Write a Dataset to a .sdat file (same header+blob container)."""
    path = Path(path)
    lines = [f"{DATASET_MAGIC} {FORMAT_VERSION}"]
    lines.append(f"seed {dataset.seed}")
    lines.append(f"split {dataset.split}")
    names = [_check_token(n, "class name") for n in dataset.class_names]
    lines.append(f"class_names {len(names)}" + ("" if not names else " " + " ".join(names)))
    lines.append(f"labels {len(dataset)} " + " ".join(str(int(v)) for v in dataset.labels))
    for attr in ("train_indices", "test_indices"):
        idx = getattr(dataset, attr)
        if idx is not None:
            lines.append(f"{attr} {len(idx)} " + " ".join(str(int(v)) for v in idx))
    lines.append("images " + " ".join(str(s) for s in dataset.images.shape))
    lines.append(f"blob {dataset.images.size}")
    header = ("\n".join(lines) + "\n").encode("ascii")
    blob = np.ascontiguousarray(dataset.images, dtype="<f8").tobytes()
    path.write_bytes(header + blob)
    return path


def load_dataset(path):
    from .data import Dataset

    path = Path(path)
    r = _Reader(path.read_bytes(), str(path))
    toks, start = r.tokens("magic", min_tokens=2)
    if toks[0] != DATASET_MAGIC:
        r.fail(f"not a dataset file (magic {toks[0]!r})", start)
    if r.intval(toks[1], "version", start) != FORMAT_VERSION:
        r.fail(f"unsupported format version {toks[1]}", start)
    toks, start = r.tokens("seed", expect_key="seed", min_tokens=2)
    seed = r.intval(toks[1], "seed", start)
    toks, start = r.tokens("split", expect_key="split", min_tokens=2)
    split = toks[1]
    toks, start = r.tokens("class names", expect_key="class_names", min_tokens=2)
    n_names = r.intval(toks[1], "class names", start)
    names = [r.name(t, "class name", start) for t in toks[2:]]
    if len(names) != n_names:
        r.fail(f"class_names declares {n_names}, lists {len(names)}", start)
    toks, start = r.tokens("labels", expect_key="labels", min_tokens=2)
    n = r.intval(toks[1], "labels", start)
    if len(toks) != n + 2:
        r.fail(f"labels declares {n} entries, lists {len(toks) - 2}", start)
    labels = np.array([r.intval(t, "labels", start) for t in toks[2:]], dtype=np.int64)

    extras = {"train_indices": None, "test_indices": None}
    toks, start = r.tokens("images or indices", min_tokens=2)
    while toks[0] in extras:
        m = r.intval(toks[1], toks[0], start)
        if len(toks) != m + 2:
            r.fail(f"{toks[0]} declares {m} entries, lists {len(toks) - 2}", start)
        extras[toks[0]] = np.array(
            [r.intval(t, toks[0], start) for t in toks[2:]], dtype=np.int64
        )
        toks, start = r.tokens("images header", min_tokens=2)
    if toks[0] != "images" or len(toks) != 5:
        r.fail(f"expected 'images N C H W', got {' '.join(toks)!r}", start)
    shape = tuple(r.intval(t, "images header", start) for t in toks[1:])
    toks, start = r.tokens("blob header", expect_key="blob", min_tokens=2)
    declared = r.intval(toks[1], "blob header", start)
    expected = int(np.prod(shape))
    if declared != expected:
        r.fail(f"blob declares {declared} floats, images need {expected}", start)
    blob = r.data[r.pos :]
    if len(blob) != declared * 8:
        r.fail(
            f"blob holds {len(blob) // 8} floats, {declared} declared",
            r.pos + min(len(blob), declared * 8),
        )
    flat = np.frombuffer(blob, dtype="<f8")
    bad = _first_non_finite(flat)
    if bad is not None:
        r.fail(f"non-finite value {flat[bad]} in images", r.pos + bad * 8)
    images = flat.reshape(shape).copy()
    try:
        return Dataset(
            images, labels, names, seed, split, extras["train_indices"], extras["test_indices"]
        )
    except ConfigError as e:
        r.fail(f"inconsistent dataset: {e}")


def save_pool_manifest(net_paths, path, fine=False):
    """Write a pool manifest: one network file path per line, plus flags."""
    path = Path(path)
    lines = [f"{MANIFEST_MAGIC} {FORMAT_VERSION}"]
    for p in net_paths:
        entry = f"net {p}"
        if fine:
            entry += " fine"
        lines.append(entry)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def load_pool_manifest(path):
    """Load every listed network and fragmentize it into a FragmentPool."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"pool manifest not found: {path}")
    text = path.read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MANIFEST_MAGIC):
        raise ParseError(f"{path}: not a pool manifest", 0)
    nets, frags = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] != "net" or len(toks) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: malformed manifest line {line!r}")
        fine = len(toks) == 3 and toks[2] == "fine"
        if len(toks) == 3 and not fine:
            raise ParseError(f"{path}:{lineno}: unknown flag {toks[2]!r}")
        net_path = Path(toks[1])
        if not net_path.is_absolute():
            net_path = path.parent / net_path
        net = load_network(net_path)
        if isinstance(net, StitchNet):
            raise ParseError(f"{path}:{lineno}: stitched nets cannot join a pool")
        nets.append(net)
        frags.extend(fragmentize(net, fine=fine))
    return FragmentPool(frags, nets)
