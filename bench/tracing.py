"""Spans around the calls into stitchkit's modules, recorded from outside.

`Tracer.install()` replaces every public function of the traced modules,
on its own module and wherever another module imported it by name, with a
wrapper that records a span; it also wraps `forward`, `forward_cache` and
`backward` of each layer class and `LabelMap.map_labels`. `uninstall()`
puts the originals back, so untraced work runs the library unchanged.

A span is [name, start, end, parent, op, count]: parent is the index of
the enclosing span (-1 at top level), op the benchmark operation it served,
and count a size (rows for layer calls, bytes for `load_network`). Spans
stay in memory until `write()`.
"""

import functools
import importlib
import inspect
import json
import os
import time

MODULES = (
    "tensor_ops",
    "layers",
    "network",
    "cka",
    "stitching",
    "generate",
    "data",
    "training",
    "zoo",
    "evaluate",
    "serialize",
    "cli",
)
LAYER_METHODS = ("forward", "forward_cache", "backward")


def _rows(args):
    return args[1].shape[0]


def _file_bytes(args):
    return os.path.getsize(args[0])


def _arch_name(args):
    arch = args[0]
    return f"training.train_network.{getattr(arch, '__name__', None) or arch.id}"


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.main.{argv[0] if argv else 'none'}"


# spans whose name or count depends on the call's arguments
_NAMERS = {"training.train_network": _arch_name, "cli.main": _cli_name}
_COUNTERS = {"serialize.load_network": _file_bytes}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, namer=None, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                namer(args) if namer else name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                self.op,
                counter(args) if counter else 0,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self):
        pkg = importlib.import_module("stitchkit")
        mods = {m: importlib.import_module(f"stitchkit.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                # the cli's cmd_* functions are argparse targets reached only
                # through main, whose span is named after the subcommand
                if short == "cli" and attr != "main":
                    continue
                name = f"{short}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(fn, name, _NAMERS.get(name), _COUNTERS.get(name)))
        for mod in (pkg, *mods.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        layers = mods["layers"]
        for cls in vars(layers).values():
            if inspect.isclass(cls) and issubclass(cls, layers.Layer) and cls is not layers.Layer:
                for meth in LAYER_METHODS:
                    fn = getattr(cls, meth)
                    self._set(cls, meth, self._wrap(fn, f"layers.{cls.kind}.{meth}", counter=_rows))
        label_map = mods["data"].LabelMap
        self._set(label_map, "map_labels", self._wrap(label_map.map_labels, "data.LabelMap.map_labels"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def write(self, path):
        with open(path, "w", encoding="ascii") as f:
            for name, start, end, parent, op, count in self.spans:
                f.write(json.dumps([name, start, end, parent, op, count]) + "\n")


_ABSENT = object()


def summarize(spans, ops):
    """Per span name over the spans of the given op ids: calls, inclusive
    seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    children, i.e. the part of its interval no nested span covers.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, op, count) in enumerate(spans):
        if op not in ops:
            continue
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["count"] += count
    return out
