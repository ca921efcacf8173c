"""Latency and memory harness comparing generation architectures on CPU.

Three simulated single-module workloads: a token-by-token causal softmax
decode (the sequential bottleneck of step-wise generation), one full
quadratic softmax attention pass, and one adaptive-MLP attention pass.
Latencies are quartile-filtered means over repeated runs on a monotonic
clock; memory is both modeled analytically (element counts, formulas in the
README) and measured with tracemalloc where the platform allows.

Each cell times the library forward itself, with no tape: ``softmax_attention``,
``amlp_cov_forward``, and a decode loop that runs ``softmax_attention`` on one
query row against the cache prefix.
"""

from __future__ import annotations

import math
import os
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .attention import (
    AmlpCovParams,
    AttentionInputs,
    ConfigError,
    amlp_cov_forward,
    softmax_attention,
)
from .narmodel import NarConfig, NarModel, SyntheticTask, evaluate, train
from .tensor import ContractError, Tensor

__all__ = [
    "ARCHITECTURES",
    "BenchConfig",
    "BenchRecord",
    "SweepConfig",
    "SweepRow",
    "iqr_filter",
    "model_memory",
    "amlp_cov_flops",
    "time_architecture",
    "sweep_inner_dimension",
    "run_and_report",
    "fit_loglog_slope",
    "records_to_csv",
    "sweep_to_csv",
    "CSV_HEADER",
]

ARCHITECTURES = ("ar-causal-softmax", "nar-softmax", "nar-amlp")

CSV_HEADER = "arch,n,batch,runs,kept,mean_latency_s,modeled_elems,measured_peak_bytes"

# extra headroom over the modeled working set before declaring a cell feasible
_MEM_SAFETY = 1.6

# The first second or so of two-thread BLAS work after the host has been idle
# runs up to 2.5x slow (a 40 ms softmax cell measured 85-130 ms a run for about
# 1 s; with one BLAS thread there is no such window), so a warm-up lasts at
# least this long in addition to its `warmup` rounds.
_MIN_WARMUP_S = 1.5


@dataclass(frozen=True)
class BenchConfig:
    lengths: tuple = (256, 512, 1024, 2048, 4096, 8192)
    batch: int = 12
    runs: int = 100
    d_model: int = 512
    heads: int = 8
    c: int = 64
    sigma1: str = "relu"
    architectures: tuple = ARCHITECTURES
    seed: int = 0
    warmup: int = 3

    def __post_init__(self):
        if self.runs < 4:
            raise ContractError(f"quartile filtering needs runs >= 4, got {self.runs}")
        if not self.lengths or any(
            b <= a for a, b in zip(self.lengths, self.lengths[1:])
        ) or min(self.lengths) < 1:
            raise ConfigError(f"lengths must be strictly increasing, got {self.lengths}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d_model={self.d_model}")
        if not (1 <= self.c <= self.d_model // self.heads):
            raise ConfigError(f"need 1 <= c <= d_model/heads, got c={self.c}")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ConfigError(f"unknown architecture {arch!r}")
        if self.batch < 1 or self.warmup < 0:
            raise ConfigError("batch must be >= 1 and warmup >= 0")


@dataclass(frozen=True)
class BenchRecord:
    """One measured (architecture, length) cell."""

    arch: str
    n: int
    batch: int
    runs: int
    kept: int
    mean_latency_s: float | None
    modeled_elems: int
    measured_peak_bytes: int | None
    feasible: bool = True


def iqr_filter(samples) -> tuple[list, float]:
    """Keep the sorted middle half (first to third quartile) and average it.

    With N samples, sorted ascending, the kept indices are floor(N/4) through
    ceil(3N/4) - 1 inclusive.
    """
    samples = list(samples)
    n = len(samples)
    if n < 4:
        raise ContractError(f"quartile filtering needs at least 4 samples, got {n}")
    samples.sort()
    lo = n // 4
    hi = math.ceil(3 * n / 4)
    kept = samples[lo:hi]
    return kept, sum(kept) / len(kept)


def model_memory(arch: str, n: int, m: int, d: int, c: int, h: int, batch: int) -> int:
    """Closed-form peak activation element count for one simulated module.

    nar-softmax holds per-head n x n weights plus q/k/v and the output;
    nar-amlp holds the two covariance summaries, the two adaptive weights,
    the per-head n x c hidden, and q/k/v/out; ar-causal-softmax models
    incremental decoding: cached keys/values plus one attention row per head.
    """
    for name, val in (("n", n), ("m", m), ("d", d), ("c", c), ("h", h), ("batch", batch)):
        if val < 1:
            raise ContractError(f"{name} must be positive, got {val}")
    if arch == "nar-softmax":
        return batch * (h * n * n + 3 * n * d + n * d)
    if arch == "nar-amlp":
        dh = d // h
        return batch * (2 * dh * dh * h + 2 * c * d + n * c * h + 4 * n * d)
    if arch == "ar-causal-softmax":
        return batch * (n * d * 2 + n * h)
    raise ConfigError(f"unknown architecture {arch!r}")


def amlp_cov_flops(n: int, m: int, d: int, c: int) -> int:
    """Multiply-accumulate count of one covariance-variant forward.

    Covariance stage (n + 2m) d^2, weight maps 3 c d^2, hidden and output
    2 n c d, plus the elementwise softmax/activation terms.
    """
    return (n + 2 * m) * d * d + 3 * c * d * d + 2 * n * c * d + 3 * d * d + 2 * n * c


def fit_loglog_slope(ns, ts) -> float:
    """Least-squares slope of log(t) against log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    if ns.size < 2:
        raise ContractError("slope fit needs at least two points")
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def ar_causal_decode(inputs: AttentionInputs) -> np.ndarray:
    """n sequential causal steps; each step re-attends over the whole prefix.

    The prefix views skip the finiteness check: the whole cache was checked
    when it was wrapped.
    """
    q, k, v = inputs.q.data, inputs.k.data, inputs.v.data
    out = np.empty_like(q)
    for t in range(1, q.shape[1] + 1):
        step = AttentionInputs(
            Tensor._wrap(q[:, t - 1 : t], finite=True),
            Tensor._wrap(k[:, :t], finite=True),
            Tensor._wrap(v[:, :t], finite=True),
        )
        out[:, t - 1 : t] = softmax_attention(step).data
    return out


_FORWARDS = {
    "ar-causal-softmax": ar_causal_decode,
    "nar-softmax": softmax_attention,
    "nar-amlp": amlp_cov_forward,
}


def _cell_rng(config: BenchConfig, arch: str, n: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, ARCHITECTURES.index(arch), n])


def _make_inputs(config: BenchConfig, arch: str, n: int) -> tuple:
    """The arguments of one cell's forward, drawn from the cell's own seed."""
    rng = _cell_rng(config, arch, n)
    dh = config.d_model // config.heads
    b = config.batch * config.heads
    inputs = AttentionInputs(
        *(Tensor._wrap(rng.standard_normal((b, n, dh))) for _ in range(3))
    )
    if arch == "nar-amlp":
        c_q = rng.standard_normal((config.c, dh)) * dh**-0.5
        c_k = rng.standard_normal((config.c, dh)) * dh**-0.5
        return (inputs, AmlpCovParams(Tensor._wrap(c_q), Tensor._wrap(c_k), config.sigma1))
    return (inputs,)


def _run_once(arch: str, args):
    return _FORWARDS[arch](*args)


def _time_interleaved(arch: str, cells, runs: int, warmup: int) -> list[list[float]]:
    """Warm up every cell, then time `runs` rounds that run each cell once.

    Warm-up runs every cell `warmup` times, and with warmup > 0 keeps going
    round the cells until _MIN_WARMUP_S has passed.  Cells compared with each
    other are timed in turn, round by round, so a drift in host speed lands
    on all of them alike.
    """
    start, rounds = time.perf_counter(), 0
    while rounds < warmup or (warmup and time.perf_counter() - start < _MIN_WARMUP_S):
        for args in cells:
            _run_once(arch, args)
        rounds += 1
    samples = [[] for _ in cells]
    for _ in range(runs):
        for args, cell_samples in zip(cells, samples):
            t0 = time.perf_counter()
            _run_once(arch, args)
            cell_samples.append(time.perf_counter() - t0)
    return samples


def _available_memory_bytes(_root: str = "/") -> int | None:
    """MemAvailable, capped by this process's cgroup-v2 ``memory.max`` when one is set.

    Every path read is taken under `_root`, so tests can supply fake files.
    """
    avail = None
    try:
        with open(os.path.join(_root, "proc/meminfo")) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    known = [v for v in (avail, _cgroup_memory_max(_root)) if v is not None]
    return min(known) if known else None


def _cgroup_memory_max(root: str) -> int | None:
    """The ``memory.max`` of the cgroup-v2 group named on the ``0::`` line of /proc/self/cgroup."""
    try:
        with open(os.path.join(root, "proc/self/cgroup")) as fh:
            group = next((line[3:].strip() for line in fh if line.startswith("0::")), None)
        if group is None:
            return None
        with open(os.path.join(root, "sys/fs/cgroup", group.lstrip("/"), "memory.max")) as fh:
            value = fh.read().strip()
    except OSError:
        return None
    return int(value) if value.isdigit() else None  # "max" means no limit


def _workload_bytes(config: BenchConfig, arch: str, n: int) -> int:
    modeled = model_memory(
        arch, n, n, config.d_model, config.c, config.heads, config.batch
    )
    inputs = 3 * config.batch * n * config.d_model
    return 8 * (modeled + inputs)


def _measure_peak_bytes(config: BenchConfig, arch: str, n: int) -> int | None:
    """Peak traced allocation of one run, inputs included.

    For the causal architecture the traced run mimics incremental decoding:
    key/value caches resident, one query row materialized at a time, outputs
    not retained.  Peak allocation is hit at the final step, so only that
    step runs.
    """
    try:
        tracemalloc.start()
        try:
            if arch == "ar-causal-softmax":
                rng = _cell_rng(config, arch, n)
                dh = config.d_model // config.heads
                b = config.batch * config.heads
                k = rng.standard_normal((b, n, dh))
                v = rng.standard_normal((b, n, dh))
                q_t = rng.standard_normal((b, 1, dh))
                softmax_attention(
                    AttentionInputs(Tensor._wrap(q_t), Tensor._wrap(k), Tensor._wrap(v))
                )
            else:
                _run_once(arch, _make_inputs(config, arch, n))
            _, peak = tracemalloc.get_traced_memory()
            return int(peak)
        finally:
            tracemalloc.stop()
    except MemoryError:
        return None
    except RuntimeError:
        return None


def time_architecture(arch: str, n: int, config: BenchConfig) -> BenchRecord:
    """Warm up, time `runs` repeats on a monotonic clock, quartile-filter.

    Cells whose working set cannot fit in memory are returned infeasible
    rather than raising, so a sweep over lengths can continue.
    """
    if arch not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {arch!r}")
    modeled = model_memory(arch, n, n, config.d_model, config.c, config.heads, config.batch)
    infeasible = BenchRecord(
        arch=arch,
        n=n,
        batch=config.batch,
        runs=config.runs,
        kept=0,
        mean_latency_s=None,
        modeled_elems=modeled,
        measured_peak_bytes=None,
        feasible=False,
    )
    avail = _available_memory_bytes()
    if avail is not None and _workload_bytes(config, arch, n) * _MEM_SAFETY > avail:
        return infeasible
    try:
        args = _make_inputs(config, arch, n)
        (samples,) = _time_interleaved(arch, [args], config.runs, config.warmup)
    except MemoryError:
        return infeasible
    kept, mean = iqr_filter(samples)
    del args
    peak = _measure_peak_bytes(config, arch, n)
    return BenchRecord(
        arch=arch,
        n=n,
        batch=config.batch,
        runs=config.runs,
        kept=len(kept),
        mean_latency_s=mean,
        modeled_elems=modeled,
        measured_peak_bytes=peak,
        feasible=True,
    )


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "" if x is None else f"{x:.9g}" if isinstance(x, float) else str(x)


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    r.arch,
                    str(r.n),
                    str(r.batch),
                    str(r.runs),
                    str(r.kept),
                    _fmt(r.mean_latency_s),
                    str(r.modeled_elems),
                    _fmt(r.measured_peak_bytes),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def run_and_report(config: BenchConfig) -> tuple[list[BenchRecord], str, str]:
    """Measure every (architecture, length) cell; return records, CSV, summary.

    The summary lists per-length speedups relative to the causal architecture
    (when it was measured) and the fitted log-log latency slope per
    architecture.
    """
    records = [
        time_architecture(arch, n, config)
        for arch in config.architectures
        for n in config.lengths
    ]
    by_arch: dict[str, dict[int, BenchRecord]] = {}
    for r in records:
        by_arch.setdefault(r.arch, {})[r.n] = r

    lines = ["architecture latency summary"]
    for arch, cells in by_arch.items():
        pts = [(n, c.mean_latency_s) for n, c in sorted(cells.items()) if c.feasible]
        if len(pts) >= 2:
            slope = fit_loglog_slope([p[0] for p in pts], [p[1] for p in pts])
            lines.append(f"  {arch}: log-log slope {slope:.3f} over n={pts[0][0]}..{pts[-1][0]}")
        else:
            lines.append(f"  {arch}: too few feasible cells for a slope fit")
    ar = by_arch.get("ar-causal-softmax", {})
    if ar:
        lines.append("speedup relative to ar-causal-softmax")
        for n in config.lengths:
            base = ar.get(n)
            if base is None or not base.feasible:
                continue
            parts = []
            for arch in ("nar-softmax", "nar-amlp"):
                cell = by_arch.get(arch, {}).get(n)
                if cell is not None and cell.feasible:
                    parts.append(f"{arch} {base.mean_latency_s / cell.mean_latency_s:.1f}x")
            if parts:
                lines.append(f"  n={n}: " + ", ".join(parts))
    return records, records_to_csv(records), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inner-dimension sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Timing and toy-task settings for the inner-dimension trade-off sweep."""

    d_model: int = 32
    heads: int = 2
    n: int = 8192
    batch: int = 4
    runs: int = 25
    warmup: int = 3
    sigma1: str = "relu"
    seed: int = 0
    task_kind: str = "reverse"
    vocab: int = 16
    length: int = 12
    train_steps: int = 3000
    train_batch: int = 8
    learning_rate: float = 0.2
    eval_samples: int = 256
    stop_accuracy: float = 0.97
    probe_every: int = 250


@dataclass(frozen=True)
class SweepRow:
    c: int
    mean_latency_s: float
    accuracy: float


def _train_toy_accuracy(c: int, cfg: SweepConfig) -> float:
    nar = NarConfig(
        vocab_size=cfg.vocab,
        seq_len=cfg.length,
        source_len=cfg.length,
        d_model=cfg.d_model,
        heads=cfg.heads,
        c=c,
        variant="cov",
        learning_rate=cfg.learning_rate,
        seed=cfg.seed,
    )
    model = NarModel(nar)
    task = SyntheticTask(cfg.task_kind, vocab=cfg.vocab, length=cfg.length, seed=cfg.seed + 1)
    best = 0.0

    def probe(step, _loss):
        nonlocal best
        if step % cfg.probe_every == 0:
            best = max(best, evaluate(model, task, cfg.eval_samples))
            return best >= cfg.stop_accuracy
        return False

    steps = len(train(model, task, cfg.train_steps, cfg.train_batch, on_step=probe))
    if steps and steps % cfg.probe_every == 0:
        return best  # the probe has just evaluated these weights
    return max(best, evaluate(model, task, cfg.eval_samples))


def sweep_inner_dimension(cs, config: SweepConfig) -> list[SweepRow]:
    """For each inner dimension c: adaptive-forward latency plus toy-task accuracy.

    The latency cells are timed round by round against each other (see
    `_time_interleaved`), so their ratios do not depend on when each ran.
    """
    dh = config.d_model // config.heads
    for c in cs:
        if not (1 <= c <= dh):
            raise ConfigError(f"inner dimension {c} exceeds the per-head width {dh}")
    avail = _available_memory_bytes()
    need = 0
    cells = []
    for c in cs:
        bench = BenchConfig(
            lengths=(config.n,),
            batch=config.batch,
            runs=config.runs,
            d_model=config.d_model,
            heads=config.heads,
            c=c,
            sigma1=config.sigma1,
            architectures=("nar-amlp",),
            seed=config.seed,
            warmup=config.warmup,
        )
        need += _workload_bytes(bench, "nar-amlp", config.n)
        if avail is not None and need * _MEM_SAFETY > avail:
            raise MemoryError(f"sweep cell c={c} does not fit in memory")
        cells.append(_make_inputs(bench, "nar-amlp", config.n))
    samples = _time_interleaved("nar-amlp", cells, config.runs, config.warmup)
    del cells
    rows = []
    for c, cell_samples in zip(cs, samples):
        _, mean = iqr_filter(cell_samples)
        rows.append(SweepRow(c=c, mean_latency_s=mean, accuracy=_train_toy_accuracy(c, config)))
    return rows


def sweep_to_csv(rows) -> str:
    lines = ["c,mean_latency_s,accuracy"]
    for r in rows:
        lines.append(f"{r.c},{r.mean_latency_s:.9g},{r.accuracy:.9g}")
    return "\n".join(lines) + "\n"
