"""Fast self-check suite: the library's key identities, run in seconds.

Each property is seeded and pure, so two runs with the same seed print
byte-identical results.  Wired to the `verify` subcommand.

``verify --break-gradients`` is a negative control for the gradient
properties: each one checks its function with the tape-side output scaled by
1.01, so the analytic gradients are off by 1% and every ``gradient_*``
property must fail.  Nothing in the library is patched.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (
    AmlpCovParams,
    AmlpPQueryParams,
    AttentionInputs,
    MultiHeadParams,
    amlp_cov_forward,
    amlp_pquery_forward,
    causal_amlp_cov_init,
    causal_amlp_cov_step,
    distance_attention,
    low_rank_factor,
    mlp_forward,
    multi_head_forward,
    softmax_attention,
)
from .narmodel import NarConfig, NarModel, load_checkpoint, save_checkpoint
from .bench import iqr_filter
from .tensor import Tensor, finite_difference_check, matmul, softmax, sum_all

__all__ = ["PropertyResult", "run_verification"]

GRAD_TOL = 1e-4
GRAD_H = 1e-4


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape))


def _param(rng, rows, cols) -> Tensor:
    return Tensor(rng.standard_normal((rows, cols)) * cols**-0.5)


def _check_iqr(_seed: int):
    kept8, mean8 = iqr_filter(list(range(8, 0, -1)))
    kept100, mean100 = iqr_filter(list(range(1, 101)))
    ok = (
        kept8 == [3, 4, 5, 6]
        and mean8 == 4.5
        and len(kept100) == 50
        and kept100[0] == 26
        and kept100[-1] == 75
        and mean100 == 50.5
    )
    return ok, f"N=8 kept {kept8} mean {mean8}; N=100 kept {len(kept100)} mean {mean100}"


def _check_softmax_rows(seed: int):
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(20):
        x = _t(rng, 5, 7)
        y = softmax(x).data
        worst = max(worst, float(np.abs(y.sum(axis=1) - 1.0).max()))
        if y.min() < 0.0:
            return False, "negative probability"
        shifted = softmax(Tensor(x.data + 123.0)).data
        worst = max(worst, float(np.abs(shifted - y).max()))
    return worst <= 1e-12, f"max deviation {worst:.3e} (tol 1e-12)"


def _check_matmul_assoc(seed: int):
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(20):
        a, b, c = _t(rng, 4, 6), _t(rng, 6, 5), _t(rng, 5, 3)
        lhs = matmul(matmul(a, b), c).data
        rhs = matmul(a, matmul(b, c)).data
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst <= 1e-9, f"max abs err {worst:.3e} (tol 1e-9)"


def _grad_check(f, params, broken):
    """Finite-difference check of f at params.

    With `broken`, f's output is scaled by 1.01 on the tape (given Vars) but
    not when evaluated on Tensors, so the analytic gradient is 1% off.
    """

    def checked(*args):
        out = f(*args)
        return T.scale(out, 1.01) if broken and isinstance(out, T.Var) else out

    reports = finite_difference_check(checked, params, h=GRAD_H, tol=GRAD_TOL)
    worst = max(r.max_rel_err for r in reports)
    return all(r.passed for r in reports), f"max rel err {worst:.3e} (tol {GRAD_TOL:g})"


def _check_grad_softmax_attention(seed: int, broken: bool):
    rng = np.random.default_rng([seed, 3])
    q, k, v = _t(rng, 4, 4), _t(rng, 5, 4), _t(rng, 5, 4)
    probe = _t(rng, 4, 4)

    def f(qv, kv, vv):
        out = softmax_attention(AttentionInputs(qv, kv, vv))
        return sum_all(T.mul(out, probe))

    return _grad_check(f, [q, k, v], broken)


def _check_grad_mlp(seed: int, broken: bool):
    rng = np.random.default_rng([seed, 4])
    # redraw until no pre-activation sits within the finite-difference stencil
    # of the relu kink, where central differences are meaningless
    while True:
        x, w1 = _t(rng, 4, 5), _param(rng, 5, 8)
        if np.abs(x.data @ w1.data).min() > 5.0 * GRAD_H:
            break
    w2 = _param(rng, 8, 5)
    probe = _t(rng, 4, 5)

    def f(xv, a, b):
        return sum_all(T.mul(mlp_forward(xv, a, b), probe))

    return _grad_check(f, [x, w1, w2], broken)


def _check_grad_cov(seed: int, broken: bool):
    rng = np.random.default_rng([seed, 5])
    q, k, v = _t(rng, 4, 4), _t(rng, 5, 4), _t(rng, 5, 4)
    cq, ck = _param(rng, 2, 4), _param(rng, 2, 4)
    probe = _t(rng, 4, 4)

    def f(a, b, qv):
        out = amlp_cov_forward(AttentionInputs(qv, k, v), AmlpCovParams(a, b))
        return sum_all(T.mul(out, probe))

    return _grad_check(f, [cq, ck, q], broken)


def _check_grad_batched_cov(seed: int, broken: bool):
    # rank-3 activations with rank-2 projections shared across the batch
    rng = np.random.default_rng([seed, 11])
    q, k, v = _t(rng, 2, 4, 4), _t(rng, 2, 5, 4), _t(rng, 2, 5, 4)
    cq, ck = _param(rng, 2, 4), _param(rng, 2, 4)
    probe = _t(rng, 2, 4, 4)

    def f(a, b, qv):
        out = amlp_cov_forward(AttentionInputs(qv, k, v), AmlpCovParams(a, b))
        return sum_all(T.mul(out, probe))

    return _grad_check(f, [cq, ck, q], broken)


def _check_grad_multi_head_cov(seed: int, broken: bool):
    # 10 rows per input, over 2 x d_model = 8: the layer takes its Gram order,
    # with a rank-2 target shared by a rank-3 source.  Inputs at scale 0.5 keep
    # the summaries' softmaxes off saturation, where central differences drift.
    rng = np.random.default_rng([seed, 12])
    x_t, x_s = (Tensor(rng.standard_normal(shape) * 0.5) for shape in ((10, 4), (2, 10, 4)))
    projs = [_param(rng, 4, 4) for _ in range(4)]
    cq, ck = _param(rng, 1, 2), _param(rng, 1, 2)
    head = AmlpCovParams(_param(rng, 1, 2), _param(rng, 1, 2))
    probe = _t(rng, 2, 10, 4)

    def f(wq, wk, wv, wo, a, b, xv):
        heads = [AmlpCovParams(a, b), head]
        out = multi_head_forward(xv, x_s, MultiHeadParams("cov", 2, wq, wk, wv, wo, heads))
        return sum_all(T.mul(out, probe))

    return _grad_check(f, [*projs, cq, ck, x_t], broken)


def _check_grad_pquery(seed: int, broken: bool):
    rng = np.random.default_rng([seed, 6])
    q, k, v = _t(rng, 4, 4), _t(rng, 5, 4), _t(rng, 5, 4)
    cq, ck, w = _param(rng, 2, 4), _param(rng, 2, 4), _param(rng, 8, 4)
    probe = _t(rng, 4, 4)

    def f(a, b, wv, qv):
        params = AmlpPQueryParams(a, b, wv, beta=0.5)
        out = amlp_pquery_forward(AttentionInputs(qv, k, v), params)
        return sum_all(T.mul(out, probe))

    return _grad_check(f, [cq, ck, w, q], broken)


def _check_low_rank_exact(seed: int):
    rng = np.random.default_rng([seed, 7])
    worst = 0.0
    for _ in range(10):
        d, r = 8, 3
        b = rng.standard_normal((d, r))
        sigma = b @ b.T
        factor = low_rank_factor(Tensor(sigma), c=r)
        l = factor.l.data
        worst = max(worst, float(np.linalg.norm(sigma - l @ l.T)))
    return worst <= 1e-8, f"max Frobenius err {worst:.3e} (tol 1e-8)"


def _check_low_rank_dropped(seed: int):
    rng = np.random.default_rng([seed, 8])
    worst = 0.0
    for _ in range(10):
        d, c = 8, 3
        b = rng.standard_normal((d, d))
        sigma = b @ b.T
        factor = low_rank_factor(Tensor(sigma), c=c)
        l = factor.l.data
        err2 = float(np.linalg.norm(sigma - l @ l.T) ** 2)
        lam = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        expected = float((lam[c:] ** 2).sum())
        worst = max(worst, abs(err2 - expected))
    return worst <= 1e-8, f"max dropped-mass mismatch {worst:.3e} (tol 1e-8)"


def _check_distance_vs_factored(seed: int):
    rng = np.random.default_rng([seed, 9])
    worst = 0.0
    for _ in range(10):
        n, m, d, c = 5, 6, 6, 3
        b = rng.standard_normal((d, c))
        sigma = b @ b.T
        q, k, v = _t(rng, n, d), _t(rng, m, d), _t(rng, m, d)
        direct = distance_attention(AttentionInputs(q, k, v), Tensor(sigma)).data
        l = low_rank_factor(Tensor(sigma), c=c).l.data
        factored = q.data @ l @ l.T @ k.data.T @ v.data
        worst = max(worst, float(np.abs(direct - factored).max()))
    return worst <= 1e-8, f"max abs err {worst:.3e} (tol 1e-8)"


def _check_causal_prefix(seed: int):
    rng = np.random.default_rng([seed, 10])
    worst, band_steps = 0.0, 0
    for trial in range(15):
        # the last three trials scale q so that S_Q's row softmax reaches the
        # flush band: shifted logits below the flush threshold whose exp is
        # not 0, which the step sets to exactly 0
        long = trial >= 12
        n, d, c = (40 if long else 10), 4, 2
        sigma1 = ("softmax", "relu", "identity")[trial % 3]
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        if long:
            q = q * 6.0
        params = AmlpCovParams(_param(rng, c, d), _param(rng, c, d), sigma1=sigma1)
        state = causal_amlp_cov_init(d)
        for t in range(1, n + 1):
            out_t, state = causal_amlp_cov_step(
                state, Tensor(q[t - 1 : t]), Tensor(k[t - 1 : t]), Tensor(v[t - 1 : t]), params
            )
            full = amlp_cov_forward(
                AttentionInputs(Tensor(q[:t]), Tensor(k[:t]), Tensor(v[:t])), params
            )
            worst = max(worst, float(np.abs(out_t.data[0] - full.data[t - 1]).max()))
            s_q = state.s_q.data
            shifted = s_q - s_q.max(axis=-1, keepdims=True)
            band_steps += bool(((shifted < T._FLUSH_BELOW) & (np.exp(shifted) > 0)).any())
    detail = f"max abs err {worst:.3e} (tol 1e-10), {band_steps} steps in the flush band"
    return worst <= 1e-10 and band_steps > 0, detail


def _check_checkpoint_roundtrip(seed: int):
    model = NarModel(NarConfig(vocab_size=7, seq_len=4, source_len=4, d_model=8, heads=2, c=2, seed=seed))
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        same = all(
            np.array_equal(model.params[k], loaded.params[k]) for k in model.params
        ) and set(model.params) == set(loaded.params)
    finally:
        os.unlink(path)
    return same, "bit-exact" if same else "parameters differ after round-trip"


_PROPERTIES = [
    ("iqr_index_rule", _check_iqr),
    ("softmax_probability_rows", _check_softmax_rows),
    ("matmul_associativity", _check_matmul_assoc),
    ("gradient_softmax_attention", _check_grad_softmax_attention),
    ("gradient_mlp", _check_grad_mlp),
    ("gradient_amlp_cov", _check_grad_cov),
    ("gradient_batched_amlp_cov", _check_grad_batched_cov),
    ("gradient_amlp_pquery", _check_grad_pquery),
    ("gradient_multi_head_cov", _check_grad_multi_head_cov),
    ("low_rank_exact_recovery", _check_low_rank_exact),
    ("low_rank_dropped_mass", _check_low_rank_dropped),
    ("distance_vs_factored_attention", _check_distance_vs_factored),
    ("causal_prefix_equivalence", _check_causal_prefix),
    ("checkpoint_roundtrip", _check_checkpoint_roundtrip),
]


def run_verification(seed: int = 0, break_gradients: bool = False) -> list[PropertyResult]:
    """Run every property; break_gradients turns on the negative control."""
    results = []
    for name, fn in _PROPERTIES:
        args = (seed, break_gradients) if name.startswith("gradient_") else (seed,)
        try:
            passed, detail = fn(*args)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(PropertyResult(name=name, passed=passed, detail=detail))
    return results
