"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

The expensive shared runs (the benchmark CLI invocation, the toy trainings,
the inner-dimension sweep) are session fixtures so criteria can share them.
"""

import json
import time

import numpy as np
import pytest

from attentive_mlp.attention import (
    AmlpCovParams,
    AmlpPQueryParams,
    AttentionInputs,
    amlp_cov_forward,
    amlp_pquery_forward,
    causal_amlp_cov_init,
    causal_amlp_cov_step,
    distance_attention,
    low_rank_factor,
    mlp_forward,
    softmax_attention,
)
from attentive_mlp.bench import SWEEP_CONFIG, iqr_filter, model_memory, sweep_inner_dimension
from attentive_mlp.cli import main
from attentive_mlp.narmodel import (
    NarConfig,
    NarModel,
    SyntheticTask,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from attentive_mlp.tensor import (
    Tensor,
    cross_entropy,
    finite_difference_check,
    mul,
    sum_all,
)

SIGMA1S = ("softmax", "relu", "identity")


def report(num: int, description: str, ok: bool, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} criterion-{num}: {description}{suffix}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def bench_run(tmp_path_factory):
    """One benchmark CLI invocation at the scaling-criterion lengths."""
    out = tmp_path_factory.mktemp("bench") / "bench.csv"
    started = time.perf_counter()
    code = main(
        [
            "bench",
            "--lengths", "1024,2048,4096,8192",
            "--runs", "5",
            "--batch", "1",
            "--heads", "2",
            "--d", "512",
            "--c", "64",
            "--arch", "nar-softmax,nar-amlp",
            "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    rows = {}
    lines = out.read_text().strip().split("\n")
    for line in lines[1:]:
        arch, n, batch, runs, kept, lat, modeled, peak = line.split(",")
        rows[(arch, int(n))] = {
            "latency": float(lat) if lat else None,
            "modeled_elems": int(modeled),
            "peak_bytes": int(peak) if peak else None,
        }
    return {"rows": rows, "elapsed": elapsed, "lengths": (1024, 2048, 4096, 8192)}


@pytest.fixture(scope="session")
def toy_training():
    """Reverse-task trainings for the cov variant and the softmax baseline."""

    def run(variant):
        model = NarModel(NarConfig(variant=variant, learning_rate=0.2, seed=0))
        task = SyntheticTask("reverse", vocab=16, length=12, seed=1)
        best, steps_used = 0.0, 0

        def probe(step, _loss):
            nonlocal best, steps_used
            if step % 250 == 0:
                acc = evaluate(model, task, 512)
                best, steps_used = max(best, acc), step
                return acc >= 0.92
            return False

        train(model, task, 10000, batch_size=8, on_step=probe)
        return best, steps_used, model

    started = time.perf_counter()
    cov_acc, cov_steps, cov_model = run("cov")
    soft_acc, soft_steps, _ = run("softmax")
    elapsed = time.perf_counter() - started
    return {
        "cov": (cov_acc, cov_steps),
        "softmax": (soft_acc, soft_steps),
        "elapsed": elapsed,
        "model": cov_model,
    }


@pytest.fixture(scope="session")
def sweep_rows():
    config = SWEEP_CONFIG  # toy dims: d_model 32, heads 2 -> head width 16
    return sweep_inner_dimension([4, 8, 16], config), config


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_causal_noncausal_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(1, 9))
        c = int(rng.integers(1, min(4, d) + 1))
        sigma1 = SIGMA1S[i % 3]
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        params = AmlpCovParams(
            Tensor(rng.standard_normal((c, d)) * d**-0.5),
            Tensor(rng.standard_normal((c, d)) * d**-0.5),
            sigma1=sigma1,
        )
        state = causal_amlp_cov_init(d)
        for t in range(1, n + 1):
            out_t, state = causal_amlp_cov_step(
                state, Tensor(q[t - 1 : t]), Tensor(k[t - 1 : t]), Tensor(v[t - 1 : t]), params
            )
            prefix = amlp_cov_forward(
                AttentionInputs(Tensor(q[:t]), Tensor(k[:t]), Tensor(v[:t])), params
            )
            worst = max(worst, float(np.abs(out_t.data[0] - prefix.data[t - 1]).max()))
    elapsed = time.perf_counter() - started
    report(
        1,
        "step-wise causal outputs equal non-causal prefix rows (200 instances, 1e-10)",
        worst <= 1e-10 and elapsed < 10.0,
        f"max abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_low_rank_factorization():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst_exact = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 33))
        r = int(rng.integers(1, min(d, 8) + 1))
        c = int(rng.integers(r, d + 1))
        b = rng.standard_normal((d, r))
        sigma = b @ b.T
        l = low_rank_factor(Tensor(sigma), c).l.data
        worst_exact = max(worst_exact, float(np.linalg.norm(sigma - l @ l.T)))
    worst_dropped = 0.0
    for _ in range(50):
        d = int(rng.integers(4, 33))
        c = int(rng.integers(1, d))
        b = rng.standard_normal((d, d))
        sigma = b @ b.T
        factor = low_rank_factor(Tensor(sigma), c)
        err2 = float(np.linalg.norm(sigma - factor.l.data @ factor.l.data.T) ** 2)
        lam = np.sort(np.linalg.eigvalsh(sigma))[::-1]  # dense full-rank oracle
        worst_dropped = max(worst_dropped, abs(err2 - float((lam[c:] ** 2).sum())))
    elapsed = time.perf_counter() - started
    report(
        2,
        "rank-c factor reconstructs low-rank inputs and drops exactly the spare spectrum",
        worst_exact <= 1e-8 and worst_dropped <= 1e-8 and elapsed < 5.0,
        f"exact {worst_exact:.2e}, dropped-mass gap {worst_dropped:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_distance_form_matches_factored_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        d = int(rng.integers(2, 13))
        c = int(rng.integers(1, d + 1))
        r = int(rng.integers(1, c + 1))
        b = rng.standard_normal((d, r))
        sigma = b @ b.T
        q, k, v = (rng.standard_normal((s, d)) for s in (n, m, m))
        inputs = AttentionInputs(Tensor(q), Tensor(k), Tensor(v))
        direct = distance_attention(inputs, Tensor(sigma)).data
        l = low_rank_factor(Tensor(sigma), c).l.data
        factored = q @ l @ l.T @ k.T @ v
        worst = max(worst, float(np.abs(direct - factored).max()))
    report(
        3,
        "bilinear-form attention equals its rank-c factored form when rank <= c",
        worst <= 1e-8,
        f"max abs err {worst:.2e}",
    )


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(104)
    started = time.perf_counter()
    failures = []

    def check(tag, f, params):
        reports = finite_difference_check(f, params, h=1e-4, tol=1e-4)
        worst = max(r.max_rel_err for r in reports)
        if not all(r.passed for r in reports):
            failures.append((tag, worst))
        return worst

    d = 6
    q, k, v = (Tensor(rng.standard_normal((s, d)) * d**-0.5) for s in (4, 5, 5))
    probe = Tensor(rng.standard_normal((4, d)))

    def f_attn(qv, kv, vv):
        return sum_all(mul(softmax_attention(AttentionInputs(qv, kv, vv)), probe))

    worst = check("softmax-attention", f_attn, [q, k, v])

    w1, w2 = Tensor(rng.standard_normal((d, 8)) * d**-0.5), Tensor(rng.standard_normal((8, d)) * 8**-0.5)

    def f_mlp(xv, a, b):
        return sum_all(mul(mlp_forward(xv, a, b), probe))

    worst = max(worst, check("mlp", f_mlp, [q, w1, w2]))

    cq, ck = (Tensor(rng.standard_normal((2, d)) * d**-0.5) for _ in range(2))

    def f_cov(a, b, qv, kv, vv):
        out = amlp_cov_forward(AttentionInputs(qv, kv, vv), AmlpCovParams(a, b))
        return sum_all(mul(out, probe))

    worst = max(worst, check("amlp-cov", f_cov, [cq, ck, q, k, v]))

    w = Tensor(rng.standard_normal((2 * d, d)) * (2 * d) ** -0.5)

    def f_pq(a, b, wv, qv, kv, vv):
        out = amlp_pquery_forward(
            AttentionInputs(qv, kv, vv), AmlpPQueryParams(a, b, wv, beta=0.5)
        )
        return sum_all(mul(out, probe))

    worst = max(worst, check("amlp-pquery", f_pq, [cq, ck, w, q, k, v]))

    # embeddings: full toy-model loss, every vocab row exercised
    for variant in ("cov", "pquery"):
        cfg = NarConfig(
            vocab_size=3, seq_len=3, source_len=3, d_model=4, heads=1, c=2, variant=variant, seed=2
        )
        model = NarModel(cfg)
        names = sorted(model.params)
        src, tgt = np.array([0, 1, 2]), np.array([2, 1, 0])

        def f_model(*tensors):
            return cross_entropy(model._forward(src, dict(zip(names, tensors))), tgt)

        worst = max(
            worst, check(f"model-{variant}", f_model, [Tensor(model.params[k]) for k in names])
        )

    elapsed = time.perf_counter() - started
    report(
        4,
        "finite differences confirm every mechanism gradient (h=1e-4, tol 1e-4)",
        not failures and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s" + (f", failures {failures}" if failures else ""),
    )


def test_criterion_05_latency_scaling(bench_run):
    rows, lengths = bench_run["rows"], bench_run["lengths"]
    soft = [rows[("nar-softmax", n)]["latency"] for n in lengths]
    amlp = [rows[("nar-amlp", n)]["latency"] for n in lengths]
    ok = all(v is not None for v in soft + amlp)
    log_n = np.log(lengths)
    soft_slope = float(np.polyfit(log_n, np.log(soft), 1)[0])
    amlp_slope = float(np.polyfit(log_n, np.log(amlp), 1)[0])
    faster = all(
        rows[("nar-amlp", n)]["latency"] < rows[("nar-softmax", n)]["latency"]
        for n in (4096, 8192)
    )
    ok = ok and soft_slope >= 1.7 and amlp_slope <= 1.3 and faster and bench_run["elapsed"] < 600
    report(
        5,
        "quadratic vs linear latency scaling over n=1024..8192 in one bench run",
        ok,
        f"slopes softmax {soft_slope:.2f} (>=1.7), adaptive {amlp_slope:.2f} (<=1.3), "
        f"run {bench_run['elapsed']:.0f}s",
    )


def test_criterion_06_memory_model(bench_run):
    soft = model_memory("nar-softmax", 8192, 512, 64, 8, 1)
    amlp = model_memory("nar-amlp", 8192, 512, 64, 8, 1)
    ratio = amlp / soft
    agreement_ok = True
    checked = 0
    worst_factor = 1.0
    for (arch, n), row in bench_run["rows"].items():
        if row["peak_bytes"] is None:
            continue
        factor = row["peak_bytes"] / (8 * row["modeled_elems"])
        worst_factor = max(worst_factor, factor, 1.0 / factor)
        agreement_ok &= 0.5 <= factor <= 2.0
        checked += 1
    report(
        6,
        "element-count model: >=88% savings at 8192 and measured peaks within 2x",
        ratio <= 0.12 and agreement_ok and checked > 0,
        f"ratio {ratio:.4f}, {checked} measured cells, worst model-vs-measured factor {worst_factor:.2f}",
    )


def test_criterion_07_quartile_filter_rule():
    kept, mean = iqr_filter(list(range(1, 101)))
    ok = kept == list(range(26, 76)) and len(kept) == 50 and mean == 50.5
    report(7, "quartile filter keeps sorted indices 25..74 of 100 with mean 50.5", ok,
           f"kept {len(kept)} mean {mean}")


def test_criterion_08_toy_model_efficacy(toy_training):
    cov_acc, cov_steps = toy_training["cov"]
    soft_acc, soft_steps = toy_training["softmax"]
    ok = (
        cov_acc >= 0.90
        and soft_acc >= 0.90
        and cov_steps <= 10000
        and soft_steps <= 10000
        and toy_training["elapsed"] < 900
    )
    report(
        8,
        "reverse task reaches 0.90 token accuracy for adaptive and softmax variants",
        ok,
        f"cov {cov_acc:.3f}@{cov_steps} steps, softmax {soft_acc:.3f}@{soft_steps} steps, "
        f"{toy_training['elapsed']:.0f}s",
    )


def test_criterion_09_inner_dimension_sweep(sweep_rows):
    rows, config = sweep_rows
    by_c = {r.c: r for r in rows}
    dh = config.d_model // config.heads
    assert dh == 16
    lat = {c: by_c[c].mean_latency_s for c in (4, 8, 16)}
    monotone = lat[4] <= 1.1 * lat[8] and lat[8] <= 1.1 * lat[16]
    strict_drop = lat[4] < 0.9 * lat[16]
    acc_gap = abs(by_c[8].accuracy - by_c[16].accuracy)
    ok = 16 in by_c and strict_drop and monotone and acc_gap <= 0.05
    report(
        9,
        "latency falls from c=head-width to c=width/4; accuracy holds at width/2",
        ok,
        f"latency 16->{lat[16]:.4f}s 8->{lat[8]:.4f}s 4->{lat[4]:.4f}s, "
        f"accuracy gap {acc_gap:.3f}",
    )


def test_criterion_10_determinism(tmp_path, capsys, toy_training):
    code1 = main(["verify", "--json", "--seed", "0"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--json", "--seed", "0"])
    out2 = capsys.readouterr().out
    json_ok = code1 == 0 and code2 == 0 and out1 == out2 and json.loads(out1)["passed"]

    model = toy_training["model"]
    path = tmp_path / "trained.ckpt"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    ckpt_ok = set(loaded.params) == set(model.params) and all(
        np.array_equal(loaded.params[k], model.params[k]) for k in model.params
    )
    report(
        10,
        "verification JSON is replay-identical and checkpoints round-trip bit-exactly",
        json_ok and ckpt_ok,
        f"json {'identical' if json_ok else 'differs'}, checkpoint {'bit-exact' if ckpt_ok else 'differs'}",
    )
