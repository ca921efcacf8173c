"""Attention mechanisms built on the tape ops.

Includes the quadratic softmax baseline, the position-wise MLP, the symmetric
distance-matrix form with its rank-c factorization, two adaptive-weight MLP
attention variants (covariance-based and pseudo-query-based), a step-wise
causal evaluation of the covariance variant, and a multi-head wrapper that
runs all heads of a layer as one call, with the heads as a tensor axis.  For
inputs longer than twice the model width, the multi-head covariance layer
runs in its Gram order: one X^T X per input replaces the Q/K/V/output
projections (see ``multi_head_forward``).

All forwards are pure functions; anything fed Vars is recorded on their tape
and differentiable, except the causal step, which is forward-only and raises
ContractError when fed a Var.  The non-causal forwards take rank-2
activations with up to two leading batch axes (a batch of sources, a head
axis, or both) that they pass through unchanged: each batch entry gets its
own second-moment summaries.  Batch axes broadcast as numpy's do, so an
operand with fewer of them (such as a query block shared by every source in
a batch, or one head's parameters) is shared by every batch entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import (
    ContractError,
    DimensionError,
    Tensor,
    Var,
    _batch_shape,
    _check_finite,
    _dispatch,
    _exp_flushed,
    _quiet,
    _softmax_grad,
    _softmax_last,
    _unbatch,
    _val,
    add,
    concat,
    ema,
    matmul,
    merge_heads,
    relu,
    scale,
    softmax,
    split_heads,
    stack,
    transpose,
)

__all__ = [
    "ConfigError",
    "NotPsdError",
    "AttentionInputs",
    "AmlpCovParams",
    "AmlpPQueryParams",
    "CausalCovState",
    "LowRankFactor",
    "MultiHeadParams",
    "mlp_forward",
    "softmax_attention",
    "low_rank_factor",
    "distance_attention",
    "amlp_cov_weights",
    "amlp_cov_forward",
    "ema",
    "amlp_pquery_weights",
    "amlp_pquery_forward",
    "causal_amlp_cov_init",
    "causal_amlp_cov_step",
    "multi_head_forward",
]

SIGMA1_CHOICES = ("softmax", "relu", "identity")


class ConfigError(ValueError):
    """A configuration value is outside its legal range."""


class NotPsdError(ContractError):
    """A matrix required to be positive semi-definite has negative spectrum."""


@dataclass(frozen=True)
class AttentionInputs:
    """Query/key/value bundle: q is n x d, k and v are m x d, each optionally batched.

    Any of the three may carry up to two leading batch axes; they broadcast
    as numpy's do, so a member with fewer of them, or with extent 1 on one,
    is shared by every batch entry.
    """

    q: object
    k: object
    v: object

    def __post_init__(self):
        shapes = qs, ks, vs = self.q.shape, self.k.shape, self.v.shape
        if any(len(s) < 2 for s in shapes):
            raise DimensionError(f"inputs must be rank 2 to 4, got {qs}, {ks}, {vs}")
        _batch_shape("attention inputs", (self.q, self.k, self.v))
        if ks[-2] != vs[-2]:
            raise DimensionError(f"k and v must share rows: {ks} vs {vs}")
        if qs[-1] != ks[-1]:
            raise DimensionError(f"q and k must share width: {qs} vs {ks}")

    @property
    def n(self) -> int:
        return self.q.shape[-2]

    @property
    def m(self) -> int:
        return self.k.shape[-2]

    @property
    def d(self) -> int:
        return self.q.shape[-1]


def _check_sigma1(name: str) -> None:
    if name not in SIGMA1_CHOICES:
        raise ConfigError(f"sigma1 must be one of {SIGMA1_CHOICES}, got {name!r}")


@dataclass(frozen=True)
class _ProjectionPair:
    """The c x d projection pair c_q, c_k of both adaptive variants; (h, c, d) holds h heads."""

    c_q: object
    c_k: object

    def __post_init__(self):
        cq, ck = self.c_q.shape, self.c_k.shape
        if len(cq) not in (2, 3) or cq != ck:
            raise DimensionError(f"c_q and c_k must both be ([h,]) c x d, got {cq} and {ck}")

    @property
    def c(self) -> int:
        return self.c_q.shape[-2]

    @property
    def d(self) -> int:
        return self.c_q.shape[-1]

    def _check_width(self, d: int) -> None:
        if d != self.d:
            raise DimensionError(f"params are for width {self.d}, inputs have width {d}")


@dataclass(frozen=True)
class AmlpCovParams(_ProjectionPair):
    """Down-projection pair for the covariance variant; both are ([h,]) c x d."""

    sigma1: str = "softmax"

    def __post_init__(self):
        super().__post_init__()
        if not (1 <= self.c <= self.d):
            raise ConfigError(f"need 1 <= c <= d, got c={self.c}, d={self.d}")
        _check_sigma1(self.sigma1)


@dataclass(frozen=True)
class AmlpPQueryParams(_ProjectionPair):
    """Pseudo-query parameters: projections c x d, mixing weight 2d x d, ema beta.

    With stacked (h, c, d) projections the mixing weight is (h, 2d, d).
    """

    w: object
    beta: float = 0.5
    sigma1: str = "softmax"

    def __post_init__(self):
        super().__post_init__()
        lead, d = self.c_q.shape[:-2], self.d
        if self.w.shape != (*lead, 2 * d, d):
            raise DimensionError(f"w must be {(*lead, 2 * d, d)}, got {self.w.shape}")
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        _check_sigma1(self.sigma1)


def _sigma1(kind: str, a: np.ndarray, heads: int = 1) -> np.ndarray:
    """sigma1 of the pre-activations ``a``, in place: the one statement of the rule.

    Its callers are the tail's hidden sigma1(X A) (``_sigma1_hidden``) and
    the causal step, each on a fresh, contiguous product.  softmax normalizes
    each of ``heads`` equal column blocks through a reshape view, relu zeroes
    negative entries; a finite ``a`` gives a finite result.
    """
    if kind == "softmax":
        blocks = a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads)
        _softmax_last(blocks, out=blocks)
    elif kind == "relu":
        np.maximum(a, 0.0, out=a)
    return a


def _sigma1_grad(kind: str, y: np.ndarray, g: np.ndarray, heads: int = 1) -> np.ndarray:
    """The gradient g of ``y = _sigma1(kind, a, heads=heads)``, carried back to a, from y alone."""
    if kind == "softmax":
        blocks = (*y.shape[:-1], heads, y.shape[-1] // heads)
        return _softmax_grad(y.reshape(blocks), g.reshape(blocks)).reshape(y.shape)
    if kind == "relu":
        return g * (y > 0.0)  # where a > 0
    return g


_TAIL_ROWS = 1024  # rows of x per block of ``_sigma1_tail``


def _sigma1_hidden(xv: np.ndarray, av: np.ndarray, kind: str, heads: int = 1) -> np.ndarray:
    """The tail's hidden sigma1(x A): x A checked finite, as a matmul checks it, then sigma1 in place.

    A is (..., d, h c); a softmax sigma1 normalizes each of its ``heads`` column blocks.
    """
    pre = xv @ av
    _check_finite(pre)
    return _sigma1(kind, pre, heads)


def _sigma1_tail_grads(xv, av, bv, y, g, kind: str, heads: int = 1):
    """(g_x, g_a, g_b) of y B, y = ``_sigma1_hidden(x, A)``, by the composed ops' backward rules.

    They run last op first, each gradient summed back over the batch axes its
    operand was broadcast along.
    """
    g_y = _unbatch(g @ bv.swapaxes(-1, -2), y.shape)
    g_b = _unbatch(y.swapaxes(-1, -2) @ g, bv.shape)
    g_pre = _sigma1_grad(kind, y, g_y, heads)
    g_x = _unbatch(g_pre @ av.swapaxes(-1, -2), xv.shape)
    return g_x, _unbatch(xv.swapaxes(-1, -2) @ g_pre, av.shape), g_b


@_quiet
def _sigma1_tail(x, a, b, kind: str, heads: int = 1):
    """sigma1(x A) B as one tape node over (x, A, B), for ``pquery`` and the Gram order.

    A is (..., d, h c) and B (..., h c, d').  The rows of x are walked in
    blocks of ``_TAIL_ROWS`` into one preallocated output, whose batch axes
    are the broadcast of the three operands'.  The node keeps the last
    block's hidden, and the backward recomputes every other block's (up to
    n d h c more MACs; none when one block holds every row), so beyond its
    operands, output and gradients the node holds at most two blocks of the
    hidden: the kept one and one recomputed.
    """
    operands = (x, a, b)
    xv, av, bv = (_val(t) for t in operands)
    n = xv.shape[-2]
    # numpy multiplies a batched row-block view by a transposed A about twice
    # as slowly as by a contiguous one (pquery's A = L^T: 0.72 against
    # 0.39 ms over eight (8, 1024, 16) blocks at c 4, 2-core Xeon)
    av = np.ascontiguousarray(av)
    blocks = [slice(r, r + _TAIL_ROWS) for r in range(0, n, _TAIL_ROWS)]
    last = blocks[-1]
    out = np.empty((*_batch_shape("sigma1 tail", (xv, av, bv)), n, bv.shape[-1]))

    def hidden(rows):
        return _sigma1_hidden(xv[..., rows, :], av, kind, heads)

    for rows in blocks[:-1]:
        np.matmul(hidden(rows), bv, out=out[..., rows, :])
    y = hidden(last)  # kept for the backward
    np.matmul(y, bv, out=out[..., last, :])

    def bw(g):
        g_x = np.empty(xv.shape)
        g_a = g_b = 0.0
        for rows in blocks:
            y_rows = y if rows is last else hidden(rows)
            g_x[..., rows, :], g_ab, g_bb = _sigma1_tail_grads(
                xv[..., rows, :], av, bv, y_rows, g[..., rows, :], kind, heads
            )
            g_a, g_b = g_a + g_ab, g_b + g_bb
        return g_x, g_a, g_b

    return _dispatch(out, operands, bw)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def mlp_forward(x, w1, w2):
    """Position-wise two-layer perceptron with ReLU: each row maps independently."""
    return matmul(relu(matmul(x, w1)), w2)


def softmax_attention(inputs: AttentionInputs):
    """softmax(Q K^T / sqrt(d)) V: the quadratic reference the efficient variants target."""
    logits = scale(matmul(inputs.q, transpose(inputs.k)), 1.0 / math.sqrt(inputs.d))
    return matmul(softmax(logits), inputs.v)


# ---------------------------------------------------------------------------
# distance-matrix form and its low-rank factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowRankFactor:
    """Factor L (d x c) with L L^T approximating a PSD matrix.

    dropped_mass is the sum of squares of the discarded eigenvalues, i.e. the
    squared Frobenius error of the approximation.
    """

    l: Tensor
    dropped_mass: float


def low_rank_factor(sigma: Tensor, c: int) -> LowRankFactor:
    """Keep the largest c eigenpairs of a symmetric PSD matrix as L = U_c sqrt(L_c).

    Eigenvalues in [-1e-9, 0) are clamped to zero; anything more negative is a
    hard failure.  ``numpy.linalg.eigh`` returns the eigenpairs in ascending
    order and a stable sort puts them in descending order, so equal
    eigenvalues keep eigh's column order.  When c splits a repeated eigenvalue, which of its
    eigenvectors are kept is therefore eigh's choice; the approximation error
    and ``dropped_mass`` do not depend on it.
    """
    sv = sigma.data
    if sv.ndim != 2 or sv.shape[0] != sv.shape[1]:
        raise DimensionError(f"need a square matrix, got shape {sv.shape}")
    d = sv.shape[0]
    if not (1 <= c <= d):
        raise ConfigError(f"need 1 <= c <= d, got c={c}, d={d}")
    if np.abs(sv - sv.T).max() > 1e-9:
        raise ContractError("matrix is not symmetric within 1e-9")
    lam, vecs = np.linalg.eigh(sv)
    if lam.min() < -1e-9:
        raise NotPsdError(f"negative eigenvalue {lam.min():.3e} below -1e-9")
    lam = np.maximum(lam, 0.0)
    # descending by eigenvalue; ties keep eigh's order
    order = np.argsort(-lam, kind="stable")
    kept = order[:c]
    dropped = order[c:]
    l = vecs[:, kept] * np.sqrt(lam[kept])[None, :]
    dropped_mass = float((lam[dropped] ** 2).sum())
    return LowRankFactor(l=Tensor._wrap(np.ascontiguousarray(l)), dropped_mass=dropped_mass)


def distance_attention(inputs: AttentionInputs, sigma):
    """Bilinear-form attention Q S K^T V, evaluated right-to-left.

    The association order Q (S (K^T V)) keeps every intermediate at d x d or
    rows x d; no n x m matrix is ever formed.
    """
    sv = sigma.data
    if sv.ndim != 2 or sv.shape != (inputs.d, inputs.d):
        raise DimensionError(f"distance matrix must be {inputs.d} square, got {sv.shape}")
    if np.abs(sv - sv.T).max() > 1e-9:
        raise ContractError("distance matrix is not symmetric within 1e-9")
    kv = matmul(transpose(inputs.k), inputs.v)
    return matmul(inputs.q, matmul(sigma, kv))


# ---------------------------------------------------------------------------
# covariance variant
# ---------------------------------------------------------------------------


def amlp_cov_weights(inputs: AttentionInputs, params: AmlpCovParams):
    """Adaptive weights from query/key covariances and the key-value cross term.

    Returns (w_qk, w_qkv) with shapes d x c and c x d, per batch entry when
    the inputs are batched.  Covariances are row-normalized with softmax before
    projection, so each row of the combined map is a convex mixture of
    projected covariance rows.
    """
    q, k, v = inputs.q, inputs.k, inputs.v
    lt, w_qkv = _cov_weight_map(
        matmul(transpose(q), q), matmul(transpose(k), k), matmul(transpose(k), v), params
    )
    return transpose(lt), w_qkv


def _cov_weight_map(s_q, s_k, z, params: AmlpCovParams):
    """From the summaries Q^T Q, K^T K and K^T V to (L, L softmax(z)).

    L = c_q softmax(s_q) + c_k softmax(s_k) is c x d, and w_qk is its transpose.
    This stays composed from tape ops, because the Gram order needs L and
    w_qkv as two tape values and a node has one output; ``amlp_cov_forward``
    restates it inside its one node, and tests hold the two equal.
    """
    params._check_width(s_q.shape[-1])
    lt = add(matmul(params.c_q, softmax(s_q)), matmul(params.c_k, softmax(s_k)))
    return lt, matmul(lt, softmax(z))


@_quiet
def amlp_cov_forward(inputs: AttentionInputs, params: AmlpCovParams):
    """sigma1(Q w_qk) w_qkv with covariance-derived weights; output is ([B x] n) x d.

    One tape node over (q, k, v, c_q, c_k) with a hand-written backward.  The
    forward computes what ``amlp_cov_weights`` and two matmuls compose, in
    the same order and bit for bit: the summaries Q^T Q, K^T K and K^T V,
    their row softmaxes, L = c_q softmax(Q^T Q) + c_k softmax(K^T K),
    w_qkv = L softmax(K^T V), and the tail sigma1(Q w_qk) w_qkv, whose
    hidden and backward are ``_sigma1_hidden`` and ``_sigma1_tail_grads``,
    as in every non-causal adaptive forward.  The backward runs the composed
    ops' backward rules in the order the tape would, summing each gradient
    back over the batch or head axes its operand was broadcast along.
    Raises ContractError when a summary, L, w_qkv, the pre-activation or
    the output is not finite: a later softmax or ReLU would zero a -inf in
    the first four.

    Every intermediate is at most max(n, m) x max(c, d) or d x d; cost and
    memory grow linearly in n + m for fixed c, d.  Unlike ``_sigma1_tail``,
    the tail here keeps the whole n x c hidden: row-blocked, c 4 timed
    0.90-0.94 of c 16 in the acceptance suite's inner-dimension sweep, which
    needs below 0.9 (4 sources x 2 heads, n 8192, d 16; 2-core Xeon).
    """
    params._check_width(inputs.d)
    operands = (inputs.q, inputs.k, inputs.v, params.c_q, params.c_k)
    qv, kv, vv, cq, ck = vals = [_val(x) for x in operands]
    _batch_shape("amlp_cov_forward", vals)
    qt, kt = qv.swapaxes(-1, -2), kv.swapaxes(-1, -2)
    # the summaries Q^T Q, K^T K and K^T V, each checked and then turned into
    # its row softmax in place: the fewer arrays live at once, the fewer
    # fresh pages the allocator has to map
    a_q, a_k, a_z = qt @ qv, kt @ kv, kt @ vv
    for s in (a_q, a_k, a_z):
        _check_finite(s)
        _softmax_last(s, out=s)
    m_q, m_k = cq @ a_q, ck @ a_k
    lt = m_q + m_k
    shape_mq, shape_mk = m_q.shape, m_k.shape
    del m_q, m_k
    w_qkv = lt @ a_z
    w_qk = lt.swapaxes(-1, -2)
    for a in (lt, w_qkv):
        _check_finite(a)
    sigma1 = params.sigma1  # the backward holds no Var, so no tape cycle
    hidden = _sigma1_hidden(qv, w_qk, sigma1)
    out = hidden @ w_qkv

    def bw(g):
        # the composed ops' backward rules, last op first, each gradient
        # summed in the order the tape would sum it
        g_q, g_wqk, g_wqkv = _sigma1_tail_grads(qv, w_qk, w_qkv, hidden, g, sigma1)
        g_lt = g_wqk.swapaxes(-1, -2)
        g_lt = g_lt + _unbatch(g_wqkv @ a_z.swapaxes(-1, -2), lt.shape)
        g_z = _softmax_grad(a_z, _unbatch(w_qk @ g_wqkv, a_z.shape))
        g_mk = _unbatch(g_lt, shape_mk)
        g_ck = _unbatch(g_mk @ a_k.swapaxes(-1, -2), ck.shape)
        g_sk = _softmax_grad(a_k, _unbatch(ck.swapaxes(-1, -2) @ g_mk, a_k.shape))
        g_mq = _unbatch(g_lt, shape_mq)
        g_cq = _unbatch(g_mq @ a_q.swapaxes(-1, -2), cq.shape)
        g_sq = _softmax_grad(a_q, _unbatch(cq.swapaxes(-1, -2) @ g_mq, a_q.shape))
        # k enters K^T V through a transpose, then K^T K as both operands
        g_k = _unbatch(g_z @ vv.swapaxes(-1, -2), kt.shape).swapaxes(-1, -2)
        g_v = _unbatch(kv @ g_z, vv.shape)
        g_k = g_k + _unbatch(kv @ g_sk, kv.shape)
        g_k = g_k + _unbatch(g_sk @ kv.swapaxes(-1, -2), kt.shape).swapaxes(-1, -2)
        g_q = g_q + _unbatch(qv @ g_sq, qv.shape)
        g_q = g_q + _unbatch(g_sq @ qt, qt.shape).swapaxes(-1, -2)
        return (g_q, g_k, g_v, g_cq, g_ck)

    return _dispatch(out, operands, bw)


# ---------------------------------------------------------------------------
# pseudo-query variant
# ---------------------------------------------------------------------------


def amlp_pquery_weights(inputs: AttentionInputs, params: AmlpPQueryParams):
    """Adaptive weights from learned pseudo-queries attending over positions.

    Queries are first smoothed with an exponential moving average; the two
    c x d summaries (one from smoothed queries, one from keys) are fused
    through the 2d x d mixing weight.  Softmaxes here normalize over token
    positions.  Returns (w_qk, w_qkv) with shapes d x c and c x d.
    """
    params._check_width(inputs.d)
    qhat = ema(inputs.q, params.beta)
    summary_q = matmul(softmax(matmul(params.c_q, transpose(qhat))), qhat)
    summary_k = matmul(softmax(matmul(params.c_k, transpose(inputs.k))), inputs.k)
    lt = matmul(concat(summary_q, summary_k), params.w)
    w_qk = transpose(lt)
    w_qkv = matmul(softmax(matmul(lt, transpose(inputs.k))), inputs.v)
    return w_qk, w_qkv


def amlp_pquery_forward(inputs: AttentionInputs, params: AmlpPQueryParams):
    """sigma1(Q w_qk) w_qkv with pseudo-query weights; output is ([B x] n) x d.

    The tail sigma1(Q w_qk) w_qkv is one ``_sigma1_tail`` node, as in the
    Gram order.
    """
    w_qk, w_qkv = amlp_pquery_weights(inputs, params)
    return _sigma1_tail(inputs.q, w_qk, w_qkv, params.sigma1)


# ---------------------------------------------------------------------------
# step-wise causal evaluation of the covariance variant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CausalCovState:
    """Running second-moment sums over the tokens consumed so far.

    ``sums`` is one d x 3d Tensor holding the transposes of s_q, s_k and z
    side by side, [s_q^T | s_k^T | z^T]: each row of a sum is a column of
    ``sums``, and row i of ``sums`` holds column i of all three in one
    contiguous stretch.  s_q and s_k accumulate outer products of the
    query/key rows (symmetric PSD by construction), z accumulates key-value
    outer products.  The properties
    s_q, s_k and z are read-only (d, d) views of it, transposed back.
    Updated functionally: each step returns a new state.  Raises
    DimensionError unless ``sums`` is d x 3d with d >= 1.
    """

    sums: Tensor

    def __post_init__(self):
        shape = self.sums.shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != 3 * shape[0]:
            raise DimensionError(f"causal state sums must be d x 3d with d >= 1, got {shape}")

    def _sum(self, i: int) -> Tensor:
        d = self.sums.shape[0]
        return Tensor._wrap(self.sums.data[:, i * d : (i + 1) * d].T, finite=True)

    @property
    def s_q(self) -> Tensor:
        return self._sum(0)

    @property
    def s_k(self) -> Tensor:
        return self._sum(1)

    @property
    def z(self) -> Tensor:
        return self._sum(2)


def causal_amlp_cov_init(d: int) -> CausalCovState:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ConfigError(f"width must be a positive int, got {d!r}")
    return CausalCovState(sums=Tensor._wrap(np.zeros((d, 3 * d))))


@_quiet
def causal_amlp_cov_step(
    state: CausalCovState, q_t, k_t, v_t, params: AmlpCovParams
) -> tuple[Tensor, CausalCovState]:
    """Consume one (q, k, v) token row and emit that step's output row.

    The accumulated sums make each output equal the corresponding row of the
    non-causal covariance forward applied to the prefix seen so far.  Per-step
    work is independent of how many tokens came before.  One product of the
    d x 3 columns (q, k, v)^T by a 3 x 3d block diagonal of (q, k, k) adds
    q^T q, k^T k and k^T v to the d x 3d sums (9d^2 MACs, 3d^2 of them
    useful).  The row softmaxes of all three sums are five to eight
    elementwise passes over the 3d^2 entries (add, max, shift, min and exp,
    plus the mask, clamp and zeroing of the flush once some entry is below
    it) and one product for the row sums r, ones(d) E (3d^2 MACs), where E
    are the flushed exps of the max-shifted sums.  Each 1/r is folded into a
    c x 2d or d-vector factor, never applied to the exps:
    L^T = E_QK ([c_q | c_k] / r_QK)^T is one product over the d x 2d view
    E_QK (2cd^2 MACs), the hidden row sigma1(q L^T) and the row hidden L
    take 2cd, and the output E_z (hidden L / r_z) d^2.

    Forward-only: raises ContractError when an operand is a Var, since the
    step records nothing on a tape.  Raises ContractError when the new sums,
    or the max-shift of one of their rows, are not finite.
    """
    if any(isinstance(x, Var) for x in (q_t, k_t, v_t, params.c_q, params.c_k, state.sums)):
        raise ContractError("causal_amlp_cov_step is forward-only: pass Tensors, not Vars")
    qv, kv, vv = q_t.data, k_t.data, v_t.data
    d = state.sums.shape[0]
    for name, a in (("q_t", qv), ("k_t", kv), ("v_t", vv)):
        if a.shape != (1, d):
            raise DimensionError(f"{name} must be 1 x {d}, got {a.shape}")
    params._check_width(d)

    # every cross-block term of the product is a product with an exact 0,
    # so this equals the running sums of q^T q, k^T k and k^T v (transposed)
    # bit for bit
    blocks = np.zeros((3, 3 * d))
    blocks[0, :d], blocks[1, d : 2 * d], blocks[2, 2 * d :] = qv, kv, kv
    sums = np.concatenate((qv, kv, vv)).T @ blocks
    sums += state.sums.data
    # a NaN or Inf in sums leaves a NaN or -Inf in its column's shifted
    # logits, so the finite minimum the flush takes proves the state finite
    e = sums - sums.max(axis=0)
    if not math.isfinite(_exp_flushed(e)):
        raise ContractError("causal state contains NaN or Inf")
    new_state = CausalCovState(sums=Tensor._wrap(sums, finite=True))

    r = np.ones(d) @ e
    c_qk = np.concatenate((params.c_q.data, params.c_k.data), axis=1)
    c_qk /= r[: 2 * d]
    l_t = e[:, : 2 * d] @ c_qk.T
    hidden = qv @ l_t
    _sigma1(params.sigma1, hidden)
    out = e[:, 2 * d :] @ ((hidden @ l_t.T)[0] / r[2 * d :])
    return Tensor._wrap(out.reshape(1, d)), new_state


# ---------------------------------------------------------------------------
# multi-head wrapper
# ---------------------------------------------------------------------------


@dataclass
class MultiHeadParams:
    """Projections plus per-head mechanism parameters.

    mechanism selects what each head runs: "softmax", "cov", or "pquery".
    head_params carries one AmlpCovParams/AmlpPQueryParams per head for the
    adaptive variants and stays empty for softmax.  All heads run as one
    call over a head axis, so they must share c, sigma1 and beta.
    """

    mechanism: str
    heads: int
    w_q: object
    w_k: object
    w_v: object
    w_o: object
    head_params: list = field(default_factory=list)

    def __post_init__(self):
        if self.mechanism not in ("softmax", "cov", "pquery"):
            raise ConfigError(f"unknown mechanism {self.mechanism!r}")
        d_model = self.w_q.shape[0]
        for name, w in (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v), ("w_o", self.w_o)):
            if w.shape != (d_model, d_model):
                raise DimensionError(f"{name} must be {d_model} square, got {w.shape}")
        if self.heads < 1 or d_model % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d_model={d_model}")
        if self.mechanism != "softmax" and len(self.head_params) != self.heads:
            raise ConfigError(
                f"{self.mechanism} needs {self.heads} per-head params, got {len(self.head_params)}"
            )
        shared = {(hp.c, hp.sigma1, getattr(hp, "beta", None)) for hp in self.head_params}
        if len(shared) > 1:
            raise ConfigError(f"heads must share c, sigma1 and beta, got {sorted(shared)}")

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]


def _stacked_heads(params: MultiHeadParams):
    """The heads' mechanism parameters as one set, each stacked to (h, ...) by one ``stack``."""
    names = ("c_q", "c_k", "w") if params.mechanism == "pquery" else ("c_q", "c_k")
    hps = params.head_params
    return replace(hps[0], **{f: stack(*(getattr(hp, f) for hp in hps)) for f in names})


def multi_head_forward(x_target, x_source, params: MultiHeadParams):
    """Project, split the feature axis into heads, run every head in one call, merge.

    Each head sees a contiguous d_model/heads block of the projected
    features and runs the configured mechanism with its own parameters.
    The heads are a tensor axis: ``split_heads`` views (..., n, d) as
    (..., h, n, d_h), one mechanism call runs all heads with their
    parameters stacked to (h, ...), and ``merge_heads`` joins them again for
    W_o.  Either input may carry a leading batch axis, which the output keeps.

    A ``cov`` layer runs in one of two orders that compute the same function.
    With n target rows, m source rows, d = d_model, h heads of width
    d_h = d/h and c per head, the multiply-accumulates (MACs) per batch entry
    are:

    * direct: project Q, K and V, run ``amlp_cov_forward`` once over the
      head axis, and merge through W_o.  2(n + m)d^2 for the four
      projections, (n + 2m)d d_h for the per-head summaries Q^T Q, K^T K and
      K^T V, 2ncd for the hidden and output products, and 3cd d_h for the
      weight maps.
    * Gram: Q, K and V are used only through Q^T Q, K^T K, K^T V and Q w_qk,
      and (XW)^T(XW') = W^T (X^T X) W', so one G = X^T X per input (one in
      all when ``x_source is x_target``) replaces the K and V projections
      and the summaries, and per head W_q L^T (d x c) and w_qkv W_o[head
      rows] (c x d) replace the Q and W_o projections.  (n + m)d^2 for the
      Gram matrices (nd^2 for self-attention), 2nhcd for the hidden and
      merged products, and 2d^3 + 3d^2 d_h + 2cd^2 + 3cd d_h of per-head
      weight work that does not grow with n or m.  The n-row tail, sigma1
      of the hidden product times the merged map, is the tail node
      ``_sigma1_tail`` that ``pquery`` runs too: past 1,024 target rows it
      walks them in blocks of 1,024, holds O(1,024 hc) beyond its input and
      output, and its backward recomputes the hidden of every block but the
      last, whose hidden the node keeps (at most nhcd more MACs), instead of
      keeping an n x hc array.

    The order is chosen from the input shapes alone, with no option: Gram
    when both inputs have more than 2d rows, direct otherwise.  That bound is
    hand-set, not derived from these counts, and measured forwards put the
    crossover nearer d rows (at d = 256, h = 4, c = 16 the Gram order is
    already faster at 512 rows).  Past the bound the Gram order does fewer
    MACs for self-attention at every c <= d_h, and for cross-attention
    whenever hc <= d/2.  Short inputs keep the direct order, where the Gram
    order's fixed weight work outweighs what it saves: at n = m = 12, d = 32,
    h = 2, c = 8 the direct order does 86k MACs and the Gram order would do
    168k.  At n = m = 8192, d = 256, h = 4, c = 16
    (self-attention) the direct order does 2.62 GMAC and the Gram order
    0.85 GMAC.
    """
    d_model = params.d_model
    if x_target.shape[-1] != d_model or x_source.shape[-1] != d_model:
        raise DimensionError(
            f"inputs must have width {d_model}, got {x_target.shape} and {x_source.shape}"
        )
    if params.mechanism == "cov" and min(x_target.shape[-2], x_source.shape[-2]) > 2 * d_model:
        return _multi_head_cov_gram(x_target, x_source, params)
    h = params.heads
    heads_in = AttentionInputs(
        split_heads(matmul(x_target, params.w_q), h),
        split_heads(matmul(x_source, params.w_k), h),
        split_heads(matmul(x_source, params.w_v), h),
    )
    if params.mechanism == "softmax":
        out = softmax_attention(heads_in)
    elif params.mechanism == "cov":
        out = amlp_cov_forward(heads_in, _stacked_heads(params))
    else:
        out = amlp_pquery_forward(heads_in, _stacked_heads(params))
    return matmul(merge_heads(out), params.w_o)


def _multi_head_cov_gram(x_target, x_source, params: MultiHeadParams):
    """The Gram order of a ``cov`` layer; see ``multi_head_forward``.

    W_q, W_k, W_v and W_o^T are split into (h, d, d_h) column blocks, and each
    G = X^T X gets an extent-1 head axis, (..., 1, d, d), so every per-head
    product is one batched matmul over (..., h) and batched inputs broadcast
    against the shared weights.
    """
    h = params.heads
    g_t = split_heads(matmul(transpose(x_target), x_target), 1)
    g_s = g_t if x_source is x_target else split_heads(matmul(transpose(x_source), x_source), 1)
    w_q, w_k, w_v, w_o_t = (
        split_heads(w, h) for w in (params.w_q, params.w_k, params.w_v, transpose(params.w_o))
    )
    hp = _stacked_heads(params)
    t = matmul(transpose(w_k), g_s)
    lt, w_qkv = _cov_weight_map(
        matmul(matmul(transpose(w_q), g_t), w_q), matmul(t, w_k), matmul(t, w_v), hp
    )
    # column block j of the (..., d, h c) merge is W_q,j L_j^T, and row block
    # j of the (..., h c, d) one is w_qkv_j W_o[head j rows].  All heads share
    # one n-row product: BLAS runs a c-column one far below peak (on 2 cores,
    # four 8192 x 256 by 256 x 16 products take 7.2 ms, one by 256 x 64 takes
    # 4.5 ms)
    a = merge_heads(matmul(w_q, transpose(lt)))
    b = transpose(merge_heads(matmul(w_o_t, transpose(w_qkv))))
    return _sigma1_tail(x_target, a, b, hp.sigma1, h)
