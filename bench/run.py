"""stitchkit benchmark: on-the-fly creation, pool evaluation, zoo training.

    python3 bench/run.py --workload ondemand --seed 1 --seconds 25 --trace 0

Run from the repository root. One process, one client in a closed loop:
each operation starts when the previous one has returned. The run sets up
its workload several times (the median is `setup_s`), then runs whole
rounds of operations until their summed wall time reaches --seconds,
checking every round's outputs outside the timed calls. The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
the metrics named in BENCHMARK.json: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1.

A traced run alternates untraced and traced rounds on the same inputs;
the per-layer metrics are per traced round, and `trace.overhead_pct` is
how much longer the traced rounds took. Spans go to
.bench_build/bench/trace-<workload>.jsonl.

The first run in a checkout trains the reference zoo once and keeps it
under .bench_build/bench/fixture; that build is not part of `setup_s`.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# one BLAS thread (nproc is 2 on the reference machine): set before numpy
# is first imported, in main, because BLAS reads it when it loads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "bench"


@dataclass
class Record:
    kind: str
    seconds: float
    tally: dict  # None when the operation failed
    traced: bool


@dataclass
class Context:
    seed: int
    fixture: Path
    work: Path


def _machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ensure_fixture(workloads):
    path = BUILD / "fixture"
    if (path / "pool.manifest").exists():
        return path
    tmp = BUILD / f"fixture.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    workloads.build_fixture(tmp)
    os.replace(tmp, path)
    print(f"built the reference zoo fixture in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return path


class Harness:
    """Runs a workload's set-ups and rounds, timing each operation.

    With a tracer, set-ups and the traced half of each round run with the
    wrappers installed, and every operation gets its own op id.
    """

    def __init__(self, wl, ctx, tracer):
        self.wl, self.ctx, self.tracer = wl, ctx, tracer
        self.records = []
        self.failures = []
        self.op_count = 0
        self.traced_ops = set()  # op ids of traced operations
        self.setup_ops = set()  # op ids of traced set-ups
        self.peak_rss_mb = 0.0

    def _next_op(self):
        self.op_count += 1
        if self.tracer is not None:
            self.tracer.op = self.op_count
        return self.op_count

    def setup(self):
        times, state = [], None
        if self.tracer is not None:
            self.tracer.install()
        try:
            for _ in range(self.wl.setups):
                self.setup_ops.add(self._next_op())
                t0 = time.perf_counter()
                state = self.wl.setup(self.ctx)
                times.append(time.perf_counter() - t0)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        return state, times

    def run_round(self, state, inputs, traced):
        outputs = []
        if traced:
            self.tracer.install()
        try:
            for kind, thunk in self.wl.round_ops(state, inputs):
                op = self._next_op()
                if traced:
                    self.traced_ops.add(op)
                t0 = time.perf_counter()
                try:
                    out = thunk()
                except Exception:  # an operation that raises counts as failed
                    out = None
                    self.failures.append(traceback.format_exc())
                seconds = time.perf_counter() - t0
                outputs.append(out)
                tally = None if out is None else self.wl.tally(state, kind, out)
                self.records.append(Record(kind, seconds, tally, traced))
        finally:
            if traced:
                self.tracer.uninstall()
        return outputs

    def measure(self, state, seconds, rng):
        """Whole rounds until their operations have taken `seconds`."""
        busy, rounds = 0.0, 0
        while busy < seconds:
            inputs = self.wl.round_inputs(state, rng)
            halves = (False, True) if self.tracer is not None else (False,)
            for traced in halves:
                start = len(self.records)
                outputs = self.run_round(state, inputs, traced)
                busy += sum(r.seconds for r in self.records[start:])
                # read before the checks, whose reference forwards run in
                # small batches and stay below the program's own peak
                self.peak_rss_mb = _peak_rss_mb()
                self.wl.check(state, inputs, outputs)
                del outputs  # not alive during the next round's operations
            rounds += 1
        return rounds


def _end_to_end(wl, records):
    """call_p50_s and work_per_s from the untraced operations that succeeded,
    plus the same two values under the names they have on this workload;
    None when no operation of a kind succeeded."""
    done = [r for r in records if r.tally is not None and not r.traced]
    latency_name, kinds = wl.latency
    latency = [r.seconds for r in done if r.kind in kinds]
    throughput_name, kinds = wl.throughput
    working = [r for r in done if r.kind in kinds]
    if not latency or not working:
        return None, None
    p50 = statistics.median(latency)
    rate = sum(r.tally["work"] for r in working) / sum(r.seconds for r in working)
    named = {latency_name: ("s", p50, len(latency)), throughput_name: ("1/s", rate, len(working))}
    return {"call_p50_s": p50, "work_per_s": rate}, named


# per-layer metrics of set-up work, reported per set-up instead of per round
SETUP_METRICS = {"data.make_synthetic_dataset.s"}


def _per_layer(spec, harness, rounds, summarize, counters):
    """Per-layer metrics from the spans of the traced rounds, per round.

    counters names the search counters a generate operation tallies.
    """
    spans = harness.tracer.spans
    ops = summarize(spans, harness.traced_ops)
    setups = summarize(spans, harness.setup_ops)
    traced = [r for r in harness.records if r.traced]
    untraced = [r for r in harness.records if not r.traced]
    stats = {}
    for r in traced:
        for key, value in (r.tally or {}).items():
            stats[key] = stats.get(key, 0) + value

    def spans_value(summary, span, field, per):
        key = {"rows": "count", "bytes": "count"}.get(field, field)
        total = sum(v[key] for n, v in summary.items() if n == span or n.startswith(span + "."))
        return total / per

    out = {}
    for m in spec:
        name = m["name"]
        span, field = name.rsplit(".", 1)
        if name == "trace.overhead_pct":
            value = 100.0 * (sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1.0)
        elif name == "generate.emitted_per_cka":
            value = stats.get("stitchnets_emitted", 0) / max(stats.get("cka_computations", 0), 1)
        elif span == "generate" and field in counters:
            value = stats.get(field, 0) / rounds
        elif name in SETUP_METRICS:
            value = spans_value(setups, span, field, len(harness.setup_ops))
        else:
            value = spans_value(ops, span, field, rounds)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "stitchkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: needs {SRC / 'stitchkit'} and {spec_path}; run from a stitchkit checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import numpy as np
    import stitchkit

    if Path(stitchkit.__file__).resolve().parent != SRC / "stitchkit":
        print(f"bench: imported stitchkit from {stitchkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    BUILD.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, _ensure_fixture(workloads), BUILD / f"run{os.getpid()}")
    ctx.work.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    harness = Harness(wl, ctx, tracer)
    correct = True
    try:
        state, setup_times = harness.setup()
        rounds = harness.measure(state, args.seconds, np.random.default_rng(args.seed))
        e2e, named = _end_to_end(wl, harness.records)
        if e2e is None:
            raise workloads.CheckFailed("no operation succeeded")
    except workloads.CheckFailed as e:
        print(f"bench: check failed: {e}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    for tb in harness.failures:
        print(tb, file=sys.stderr)
    if not correct:
        print(json.dumps({"correct": False, "attempted": len(harness.records), "failed": len(harness.failures), "metrics": {}}))
        return 1

    machine = _machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"{wl.name}: seed {args.seed}, {rounds} rounds, {len(harness.records)} operations")
    for name, (unit, value, n) in named.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = harness.peak_rss_mb
    if tracer is None:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        metrics = _per_layer(spec["per_layer"], harness, rounds, tracing.summarize, workloads.GENERATE_COUNTERS)
        trace_path = BUILD / f"trace-{wl.name}.jsonl"
        tracer.write(trace_path)
        print(f"  {len(tracer.spans)} spans -> {trace_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": True,
        "attempted": len(harness.records),
        "failed": len(harness.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
