"""Latency and memory harness comparing generation architectures on CPU.

Three simulated single-module workloads: a token-by-token causal softmax
decode (the sequential bottleneck of step-wise generation), one full
quadratic softmax attention pass, and one adaptive-MLP attention pass.
Latencies are quartile-filtered means over repeated runs on a monotonic
clock; memory is both modeled analytically (element counts, formulas in the
README) and measured with tracemalloc where the platform allows.

Each cell times the library forward itself, with no tape: ``softmax_attention``,
``amlp_cov_forward``, and a decode loop that runs ``softmax_attention`` on one
query row against the cache prefix.  ``run_and_report`` times the paper's grid
over lengths, ``sweep_inner_dimension`` the adaptive forward over inner
dimensions c (shape ``SWEEP_CONFIG``) next to each c's toy-task accuracy.  Both
time one architecture's cells round-robin after a single warm-up.
"""

from __future__ import annotations

import dataclasses
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
    _check_sigma1,
    amlp_cov_forward,
    softmax_attention,
)
from .narmodel import (
    DEFAULT_EVAL_SAMPLES,
    DEFAULT_TASK,
    NarConfig,
    NarModel,
    SyntheticTask,
    _check_seed,
    evaluate,
    train,
)
from .tensor import ContractError, Tensor

__all__ = [
    "ARCHITECTURES",
    "BenchConfig",
    "BenchRecord",
    "SWEEP_CONFIG",
    "SweepRow",
    "iqr_filter",
    "model_memory",
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
            raise ConfigError(f"quartile filtering needs runs >= 4, got {self.runs}")
        if not self.lengths:
            raise ConfigError("lengths must not be empty")
        if min(self.lengths) < 1:
            raise ConfigError(f"lengths must be >= 1, got {self.lengths}")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ConfigError(f"lengths must be strictly increasing, got {self.lengths}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d_model={self.d_model}")
        if not (1 <= self.c <= self.d_model // self.heads):
            raise ConfigError(f"need 1 <= c <= d_model/heads, got c={self.c}")
        if not self.architectures:
            raise ConfigError("architectures must not be empty")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ConfigError(f"unknown architecture {arch!r}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        _check_sigma1(self.sigma1)
        _check_seed(self.seed)


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


def model_memory(arch: str, n: int, d: int, c: int, h: int, batch: int) -> int:
    """Closed-form peak activation element count for one simulated module.

    nar-softmax holds per-head n x n weights plus q/k/v and the output;
    nar-amlp holds the two covariance summaries, the two adaptive weights,
    the per-head n x c hidden, and q/k/v/out; ar-causal-softmax models
    incremental decoding: cached keys/values plus one attention row per head.
    """
    for name, val in (("n", n), ("d", d), ("c", c), ("h", h), ("batch", batch)):
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


def _input_bytes(config: BenchConfig, n: int) -> int:
    return 8 * 3 * config.batch * n * config.d_model


def _workload_bytes(config: BenchConfig, arch: str, n: int) -> int:
    modeled = model_memory(arch, n, config.d_model, config.c, config.heads, config.batch)
    return 8 * modeled + _input_bytes(config, n)


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


def _time_cells(arch: str, cells, refuse: str | None = None) -> list:
    """Time one architecture's (config, n) cells round by round, after one warm-up.

    A cell fits when the inputs of the cells kept before it plus its own
    working set (`_workload_bytes`), times _MEM_SAFETY, fit in available
    memory.  A cell that does not gets None instead of its samples, or, when
    `refuse` is given, raises MemoryError(refuse.format(c=config.c)) before
    anything runs.  All cells have the same runs and warmup; with no cell
    kept nothing runs, not even the warm-up.
    """
    avail = _available_memory_bytes()
    resident, kept = 0, []
    for config, n in cells:
        need = (resident + _workload_bytes(config, arch, n)) * _MEM_SAFETY
        try:
            if avail is not None and need > avail:
                raise MemoryError(refuse and refuse.format(c=config.c))
            kept.append(_make_inputs(config, arch, n))
            resident += _input_bytes(config, n)
        except MemoryError:
            if refuse is not None:
                raise
            kept.append(None)
    live = [args for args in kept if args is not None]
    try:
        samples = iter(_time_interleaved(arch, live, config.runs, config.warmup) if live else ())
    except MemoryError:
        if refuse is not None:
            raise
        kept = [None] * len(kept)
    return [None if args is None else next(samples) for args in kept]


def _record(config: BenchConfig, arch: str, n: int, samples) -> BenchRecord:
    """The CSV row of one grid cell; a cell without samples did not fit in memory."""
    modeled = model_memory(arch, n, config.d_model, config.c, config.heads, config.batch)
    if samples is None:
        kept, mean, peak = [], None, None
    else:
        kept, mean = iqr_filter(samples)
        peak = _measure_peak_bytes(config, arch, n)
    return BenchRecord(
        arch, n, config.batch, config.runs, len(kept), mean, modeled, peak, samples is not None
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

    Each architecture's lengths are timed round-robin after one warm-up (see
    `_time_cells`); a length that does not fit in memory is recorded infeasible.

    The summary lists per-length speedups relative to the causal architecture
    (when it was measured) and the fitted log-log latency slope per
    architecture.
    """
    records = []
    for arch in config.architectures:
        samples = _time_cells(arch, [(config, n) for n in config.lengths])
        records += [_record(config, arch, n, s) for n, s in zip(config.lengths, samples)]
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


# The sweep's timing shape; each cell replaces c (1 fits any head width).
SWEEP_CONFIG = BenchConfig(
    lengths=(8192,), batch=4, runs=25, d_model=32, heads=2, c=1, sigma1="relu",
    architectures=("nar-amlp",),
)

# The toy run is probed this often and stops once its best accuracy reaches this.
_PROBE_EVERY = 250
_STOP_ACCURACY = 0.97


@dataclass(frozen=True)
class SweepRow:
    c: int
    mean_latency_s: float
    accuracy: float


def _train_toy_accuracy(c: int, config: BenchConfig, steps: int) -> float:
    """Best reverse-task accuracy of `NarConfig`'s default run at inner dimension c.

    The model takes the sweep's width, heads, sigma1 and seed, so every swept c
    fits it and its accuracy belongs to the forward whose latency the sweep times.
    """
    model = NarModel(
        NarConfig(
            d_model=config.d_model, heads=config.heads, c=c, sigma1=config.sigma1, seed=config.seed
        )
    )
    nar = model.config
    task = SyntheticTask(DEFAULT_TASK, vocab=nar.vocab_size, length=nar.seq_len, seed=nar.seed + 1)
    best = 0.0

    def probe(step, _loss):
        nonlocal best
        if step % _PROBE_EVERY == 0:
            best = max(best, evaluate(model, task, DEFAULT_EVAL_SAMPLES))
            return best >= _STOP_ACCURACY
        return False

    taken = len(train(model, task, steps, on_step=probe))
    if taken and taken % _PROBE_EVERY == 0:
        return best  # the probe has just evaluated these weights
    return max(best, evaluate(model, task, DEFAULT_EVAL_SAMPLES))


def sweep_inner_dimension(
    cs=(4, 8, 16), config: BenchConfig = SWEEP_CONFIG, steps: int = 3000
) -> list[SweepRow]:
    """For each inner dimension c: adaptive-forward latency plus toy-task accuracy.

    The latency cells, `config` with c replaced at its first length, are timed
    round by round against each other (see `_time_cells`) before any training,
    so their ratios do not depend on when each ran.  A cell that does not fit
    in memory raises MemoryError.
    """
    if not cs:
        raise ConfigError("the sweep needs at least one inner dimension")
    cells = [(dataclasses.replace(config, c=c), config.lengths[0]) for c in cs]
    samples = _time_cells("nar-amlp", cells, refuse="sweep cell c={c} does not fit in memory")
    return [
        SweepRow(c, iqr_filter(cell)[1], _train_toy_accuracy(c, config, steps))
        for c, cell in zip(cs, samples)
    ]


def sweep_to_csv(rows) -> str:
    lines = ["c,mean_latency_s,accuracy"]
    for r in rows:
        lines.append(f"{r.c},{r.mean_latency_s:.9g},{r.accuracy:.9g}")
    return "\n".join(lines) + "\n"
