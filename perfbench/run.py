"""Benchmark of the attentive-mlp library: four closed-loop workloads, one client each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long-attn --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

With ``--trace 0`` a run sets the workload up several times (reporting the
median as ``setup_s``), then calls the library op in a closed loop for
``--seconds`` seconds, checking every output, and prints the end-to-end
metrics.  With ``--trace 1`` it spends half the time untraced and half with
the tracer's wrappers installed, and prints the per-layer metrics together
with the tracing overhead and the untraced remainder; the spans go to
``.perfbench_out/spans-<workload>.csv``.  Each metric is printed on its own
line with its unit, after a line with the environment fingerprint; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``latency_ms_p50`` and ``fail_ratio`` (``failed / attempted``)
are printed but not in ``metrics``.  ``--workload all`` runs every workload
in turn, each in its own process; ``BENCHMARK.json`` gates all but
``toy-decode`` (``workloads.json`` records why).

The library is imported from ``src/`` of the same checkout and nowhere else;
without it the run exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

# Modules that import numpy or the library (workloads, tracing, golden,
# envinfo) are imported inside functions: the BLAS thread limit must be set
# before numpy loads, and the library's location checked before it is imported.

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("toy-train", "toy-decode", "long-attn", "causal-decode")
SETUP_REPEATS = 5
MIN_OPS = 20  # a tail percentile needs ten samples above it
DIGESTS_COMPARED = 3  # leading ops whose outputs must match between untraced and traced phases
# Printed but left out of the result line, so not gated: on a host whose
# speed drifts between states for tens of seconds the median op latency of
# one run flips between states and spreads wider than any usable bound.
PRINTED_ONLY = ("latency_ms_p50",)
TRACED_TENSOR_OPS = (
    "matmul",
    "transpose",
    "softmax",
    "slice_cols",
    "concat",
    "layer_norm",
    "add",
    "relu",
    "cross_entropy",
    "gather_rows",
    "backward",
)
TRACED_ATTENTION_FNS = ("multi_head_forward", "amlp_cov_forward", "amlp_cov_weights", "mlp_forward")


def _limit_blas_threads() -> None:
    # must run before numpy is imported; one client uses at most nproc BLAS threads
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _import_library() -> None:
    package = SRC / "attentive_mlp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: library source not found at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import attentive_mlp

    if pathlib.Path(attentive_mlp.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported attentive_mlp from {attentive_mlp.__file__}, not from {package}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class LoopResult:
    """What one closed-loop phase did: per-op latencies, counts and leading output digests."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.tokens = 0
        self.op_ns = 0
        self.digests: list[str] = []
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / (self.op_ns / 1e9)


def closed_loop(w, seconds: float, tracer=None, min_ops: int = MIN_OPS) -> LoopResult:
    """Call the workload's op back to back for ``seconds`` (and at least ``min_ops`` times).

    Only the op itself is timed, and ``tokens_per_s`` divides by that timed
    time; preparing an op's input and checking its output happen between
    ops.  An op fails if it raises or its check fails.
    """
    import workloads

    res = LoopResult()
    deadline = time.perf_counter() + seconds
    while res.attempted < min_ops or time.perf_counter() < deadline:
        inp = w.next_input()
        span = tracer.op(res.attempted) if tracer is not None else contextlib.nullcontext()
        res.attempted += 1
        start = time.perf_counter_ns()
        try:
            with span:
                out = w.op(inp)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            res.op_ns += time.perf_counter_ns() - start
            res.fail(f"op raised {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter_ns() - start
        res.op_ns += elapsed
        try:
            w.check(inp, out)
        except workloads.CheckFailed as exc:
            res.fail(str(exc))
            continue
        res.latencies_ns.append(elapsed)
        res.tokens += w.tokens_per_op
        if len(res.digests) < DIGESTS_COMPARED:
            res.digests.append(w.digest(out))
    return res


def tail_percentile(latencies_ms: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples strictly above it, and its value."""
    import numpy as np

    values = np.sort(np.asarray(latencies_ms))
    for p in range(99, 0, -1):
        cut = float(np.percentile(values, p))
        if int((values > cut).sum()) >= 10:
            return p, cut
    return 50, float(np.percentile(values, 50))


def _median(xs) -> float:
    return float(statistics.median(xs))


def _setup(name: str, seed: int, sizes: dict | None):
    """One set-up: build the workload from its seed and run one warm-up op."""
    import workloads

    w = workloads.build(name, seed, sizes)
    w.op(w.next_input())
    return w


def _golden(name: str, res: LoopResult) -> None:
    """Count the recorded-values probe as one more checked op, for workloads that have one."""
    import golden

    if name not in golden.WORKLOADS:
        return
    res.attempted += 1
    for problem in golden.check(name):
        res.fail(f"golden: {problem}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_metrics(metrics: dict, notes: dict) -> None:
    for key, m in metrics.items():
        suffix = f"  ({notes[key]})" if key in notes else ""
        print(f"{key} {m['value']:.6g} {m['unit']}{suffix}")


def run_end_to_end(name: str, seed: int, seconds: float, sizes: dict | None = None) -> tuple[dict, LoopResult, dict]:
    setup_s = []
    w = None
    for _ in range(SETUP_REPEATS):
        w = None  # the previous set-up is released before the next is timed
        start = time.perf_counter()
        w = _setup(name, seed, sizes)
        setup_s.append(time.perf_counter() - start)
    w.expect()
    res = closed_loop(w, seconds)
    _golden(name, res)
    lat_ms = [ns / 1e6 for ns in res.latencies_ns] or [0.0]  # zeros only when every op failed
    p, tail = tail_percentile(lat_ms)
    metrics = {
        "tokens_per_s": _metric(res.tokens_per_s, "1/s"),
        "latency_ms_p50": _metric(_median(lat_ms), "ms"),
        "latency_ms_tail": _metric(tail, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": _metric(_median(setup_s), "s"),
    }
    notes = {
        "latency_ms_tail": f"p{p} of {len(lat_ms)} samples",
        "latency_ms_p50": "printed only, not gated",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    return metrics, res, notes


def run_traced(name: str, seed: int, seconds: float, sizes: dict | None = None) -> tuple[dict, LoopResult, dict]:
    import tracing

    w = _setup(name, seed, sizes)
    w.expect()
    untraced = closed_loop(w, seconds / 2)

    w = _setup(name, seed, sizes)
    w.expect()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = closed_loop(w, seconds / 2, tracer)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{name}.csv")

    tracemalloc.start()
    try:
        w.op(w.next_input())
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    res = LoopResult()
    for phase in (untraced, traced):
        res.attempted += phase.attempted
        res.failed += phase.failed
        res.errors += phase.errors
    for i, (a, b) in enumerate(zip(untraced.digests, traced.digests)):
        if a != b:
            res.fail(f"op {i}: traced output {b} differs from untraced {a}")
    _golden(name, res)

    ops = tracer.ops

    def per_op_ms(span: str) -> float:
        return tracer.self_ns.get(span, 0) / ops / 1e6

    def layer_ms(layer: str) -> float:
        return sum(ns for span, ns in tracer.self_ns.items() if span.startswith(layer + ".")) / ops / 1e6

    c = tracer.counters
    metrics = {
        "tensor.nodes_per_op": _metric(c["tensor.nodes"] / ops, "count"),
        "tensor.calls_per_op": _metric(c["tensor.calls"] / ops, "count"),
    }
    for op in TRACED_TENSOR_OPS:
        metrics[f"tensor.{op}.self_ms"] = _metric(per_op_ms(f"tensor.{op}"), "ms")
    metrics.update(
        {
            "tensor.self_ms": _metric(layer_ms("tensor"), "ms"),
            "tensor.bytes_per_op": _metric(c["tensor.bytes"] / ops, "bytes_computed"),
            "tensor.gc_pause_ms": _metric(per_op_ms("gc"), "ms"),
            "tensor.gc_gen2_per_op": _metric(c["gc.gen2"] / ops, "count"),
        }
    )
    for fn in TRACED_ATTENTION_FNS:
        metrics[f"attention.{fn}.self_ms"] = _metric(per_op_ms(f"attention.{fn}"), "ms")
    outer_ns = c["attention.outer_ns"]
    metrics.update(
        {
            "attention.causal_amlp_cov_step.self_us_per_token": _metric(
                per_op_ms("attention.causal_amlp_cov_step") * 1e3 / w.tokens_per_op, "us"
            ),
            "attention.self_ms": _metric(layer_ms("attention"), "ms"),
            "attention.macs_per_op": _metric(c["attention.macs"] / ops, "MAC"),
            "attention.gmacs_per_s": _metric(c["attention.macs"] / outer_ns if outer_ns else 0.0, "GMAC/s"),
            "attention.peak_traced_mb": _metric(peak_bytes / 2**20, "MiB"),
            "narmodel.train_step.self_ms": _metric(per_op_ms("narmodel.train_step"), "ms"),
            "narmodel.evaluate.self_ms": _metric(per_op_ms("narmodel.evaluate"), "ms"),
            "narmodel.self_ms": _metric(layer_ms("narmodel"), "ms"),
            "harness.untraced_remainder_ms": _metric(per_op_ms("op"), "ms"),
            "harness.tracing_overhead_tokens_per_s": _metric(
                traced.tokens_per_s - untraced.tokens_per_s, "1/s"
            ),
        }
    )
    notes = {
        "tensor.bytes_per_op": "computed from the shapes of the arrays the traced tensor calls return",
        "harness.untraced_remainder_ms": "op time covered by no layer span",
        "harness.tracing_overhead_tokens_per_s": (
            f"traced {traced.tokens_per_s:.6g} minus untraced {untraced.tokens_per_s:.6g}"
        ),
        "attention.peak_traced_mb": "tracemalloc peak of one untraced op",
    }
    return metrics, res, notes


def run_one(name: str, seed: int, seconds: float, trace_on: bool) -> int:
    _limit_blas_threads()
    _import_library()
    import envinfo
    import workloads

    spec = workloads.SPEC[name]
    env = envinfo.fingerprint(ROOT, seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name}: {spec['loop']} loop, {spec['clients']} client, op = {spec['op']}")
    print("sizes " + json.dumps(spec["sizes"], sort_keys=True))
    runner = run_traced if trace_on else run_end_to_end
    metrics, res, notes = runner(name, seed, seconds)
    if name == "long-attn" and env["l3_mib"]:
        mib = spec["sizes"]["n"] * spec["sizes"]["d_model"] * 8 / 2**20
        verdict = "not a DRAM-bandwidth measurement" if mib < env["l3_mib"] else "partly DRAM-bound"
        print(f"note: a long-attn operand is {mib:.1f} MiB against an L3 of {env['l3_mib']} MiB, so long-attn is {verdict}")
    _print_metrics(metrics, notes)
    print(f"fail_ratio {res.failed / res.attempted:.6g} ratio  ({res.failed} failed of {res.attempted} attempted)")
    for err in res.errors:
        print(f"failure: {err}")
    gated = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": gated}))
    return 0


def run_all(seed: int, seconds: float, trace_on: bool) -> int:
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace_on))]
        proc = subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()), *args],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"run.py: workload {name} exited with code {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
