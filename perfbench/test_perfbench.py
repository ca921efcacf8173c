"""Self-tests of the benchmark: tracing hygiene, determinism, output checks.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from attentive_mlp import attention, narmodel, tensor  # noqa: E402

TOY = {"variant": "cov", "d_model": 8, "heads": 2, "c": 2, "vocab": 7, "seq_len": 4}
SMALL = {
    "toy-train": {**TOY, "batch": 2},
    "toy-decode": {**TOY, "eval_samples": 4},
    "long-attn": {"n": 64, "d_model": 16, "heads": 2, "c": 4, "sigma1": "relu"},
    "causal-decode": {"tokens": 16, "d": 8, "c": 4, "sigma1": "relu"},
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _prepared(name: str, seed: int = 1):
    w = workloads.build(name, seed, SMALL[name])
    w.expect()
    return w


def _snapshot():
    owners = (tensor, attention, narmodel, narmodel.NarModel)
    return {owner: dict(vars(owner)) for owner in owners}, list(gc.callbacks)


def test_tracer_restores_every_attribute():
    before, callbacks = _snapshot()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert narmodel.matmul is not before[narmodel]["matmul"]
        assert attention.softmax is not before[attention]["softmax"]
        assert len(gc.callbacks) == len(callbacks) + 1
        run.closed_loop(_prepared("toy-train"), 0.0, tracer, min_ops=2)
    after, callbacks_after = _snapshot()
    assert callbacks_after == callbacks
    for owner, attrs in before.items():
        assert set(after[owner]) == set(attrs), owner
        for key, value in attrs.items():
            assert after[owner][key] is value, (owner, key)


def test_tracer_restores_attributes_when_the_body_raises():
    before, callbacks = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    after, callbacks_after = _snapshot()
    assert callbacks_after == callbacks
    assert all(after[o][k] is v for o, attrs in before.items() for k, v in attrs.items())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_outputs_are_identical(name):
    untraced = run.closed_loop(_prepared(name), 0.0, min_ops=3)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.closed_loop(_prepared(name), 0.0, tracer, min_ops=3)
    assert untraced.failed == traced.failed == 0
    assert len(untraced.digests) == 3
    assert untraced.digests == traced.digests
    assert tracer.ops == 3


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_another_seed_changes_inputs_but_not_counts(name):
    digests, counts = [], []
    for seed in (1, 2):
        w = _prepared(name, seed)
        digests.append(w.inputs_digest())
        tracer = tracing.Tracer()
        with tracer.installed():
            res = run.closed_loop(w, 0.0, tracer, min_ops=2)
        assert res.failed == 0
        counts.append((tracer.counters["tensor.nodes"], tracer.counters["tensor.calls"]))
    assert digests[0] != digests[1]
    assert counts[0] == counts[1]


def _corrupt(name, out):
    if name in ("toy-train", "toy-decode"):
        return out + 1e-6
    if name == "long-attn":
        data = out.data.copy()
        data[-1, -1] += 1e-6 * np.abs(data).max()
        return tensor.Tensor(data)
    rows = list(out)
    rows[-1] = tensor.Tensor(rows[-1].data + 1e-6)
    return rows


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failed(name):
    w = _prepared(name)
    op = w.op
    w.op = lambda inp: _corrupt(name, op(inp))
    res = run.closed_loop(w, 0.0, min_ops=3)
    assert (res.attempted, res.failed) == (3, 3)
    assert res.tokens == 0


def test_raising_op_counts_as_failed():
    w = _prepared("long-attn")

    def broken(inp):
        raise FloatingPointError("no")

    w.op = broken
    res = run.closed_loop(w, 0.0, min_ops=2)
    assert (res.attempted, res.failed) == (2, 2)
    assert "FloatingPointError" in res.errors[0]


def test_golden_values_reproduce():
    assert golden.check("toy-train") == []
    assert golden.check("toy-decode") == []


@pytest.mark.parametrize("count", [11, 30, 100, 1000])
def test_tail_percentile_is_the_highest_with_ten_samples_above(count):
    samples = list(range(1, count + 1))
    p, value = run.tail_percentile(samples)
    assert sum(x > value for x in samples) >= 10
    assert sum(x > np.percentile(samples, p + 1) for x in samples) < 10


def test_end_to_end_run_reports_exactly_the_declared_metrics():
    metrics, res, _ = run.run_end_to_end("long-attn", 1, 0.0, SMALL["long-attn"])
    assert res.failed == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items() if k not in run.PRINTED_ONLY} == declared
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_exactly_the_declared_metrics():
    metrics, res, _ = run.run_traced("toy-train", 1, 0.0, SMALL["toy-train"])
    assert res.failed == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert metrics["tensor.nodes_per_op"]["value"] > 0
    assert metrics["tensor.backward.self_ms"]["value"] > 0


def test_records_agree():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(names) <= set(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.SPEC)
    layer_metrics = {m["name"] for m in BENCHMARK["per_layer"]}
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]} | set(run.PRINTED_ONLY)
    for spec in workloads.SPEC.values():
        assert set(spec["predictions"]) <= layer_metrics
        assert set(spec["unchanged"]) <= layer_metrics
        assert all(set(moved) <= e2e for moved in spec["predictions"].values())


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "toy-train", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
