"""Dense float64 arrays, a reverse-mode tape, and a finite-difference gradient checker.

Everything downstream (attention mechanisms, the toy sequence model) is built
from the small op vocabulary in this module.  Ops accept plain Tensors (pure
evaluation) and Vars, the Tensors recorded on a Tape (differentiable); the
two modes share one code path, and an op with any Var operand returns a Var.

Tensors have rank 0 to 4.  The matrix ops act on the last two axes of
operands of rank 2 to 4; the axes before them are batch axes (a batch of
sources, a head axis, or both), and every batch entry is computed
independently.  Batch axes broadcast as numpy's do: an operand with fewer
batch axes, or with extent 1 on one, is shared by every entry along it (a
parameter applied to a batch of activations, one head's weights applied to
every source), and its gradient is summed over them.  Elementwise ops need
matching extents on the last two axes.  Extents that do not broadcast raise
DimensionError.

``transpose`` and ``split_heads`` return read-only views of their operand,
not copies: numpy hands transposed and strided operands straight to BLAS, so
nothing is copied until an op has to compute.  ``concat`` joins any number of
operands in one copy, ``merge_heads`` moves a head axis back into the feature
axis in at most one, and ``stack`` joins operands of one shape along a new
leading axis.

A Tape records, per node, its input ids and its backward rule.  Every leaf
(``Tape.leaf``) gets a gradient; a constant is passed to an op as a plain
Tensor, so it records no node.  Of the Vars the tape holds only its leaves,
and only until ``backward`` has assigned their gradients: ``.grad`` is set on
those leaves and nowhere else.  An op output is held by its caller alone, so
a dropped intermediate is freed during the forward pass, and a spent graph
is freed by reference counting as soon as the caller drops its Vars.

Every op output is checked to be finite by one sum over its elements, except
where finiteness follows from the operands': the layout ops only rearrange
checked elements, ``relu`` only zeroes some, and ``softmax`` is max-shifted,
so every exp is at most 1 and each row sums to at least 1.  An op built
outside this module from several of these steps, with one node and its own
backward, checks with ``_check_finite`` each intermediate a later softmax or
ReLU could hide (a -inf becomes a probability or activation of 0), as the
composed ops would have.  ``Tensor._wrap(arr, finite=True)`` adopts an array
already known to be finite, such as a model parameter checked when it was
stored, without a copy or a sum.  Softmax
probabilities below e^-700 (about 1e-304) are exactly 0, never subnormal:
numpy's vector ``exp`` leaves its fast loop for inputs from about -708 down,
so max-shifted logits below -700 are clamped before the exp and zeroed after
it (``_exp_flushed``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DimensionError",
    "ContractError",
    "Tensor",
    "Var",
    "Tape",
    "matmul",
    "transpose",
    "add",
    "mul",
    "scale",
    "add_bias",
    "relu",
    "softmax",
    "concat",
    "split_heads",
    "merge_heads",
    "stack",
    "sum_all",
    "ema",
    "layer_norm",
    "gather_rows",
    "cross_entropy",
    "backward",
    "finite_difference_check",
    "GradCheck",
]


class DimensionError(ValueError):
    """Operand shapes do not line up for the requested operation."""


class ContractError(ValueError):
    """An operation precondition was violated."""


# A non-finite result is reported once, as the ContractError of the finiteness
# check.  numpy's overflow/invalid warnings are silenced wherever that check
# follows: op arithmetic, backward, and the check's own sum, which can overflow
# on valid data such as [1.7e308, 1.7e308].
_quiet = np.errstate(over="ignore", invalid="ignore")


class Tensor:
    """Immutable dense array of 64-bit floats, rank 0 to 4.

    Rank 0 arises only from scalar reductions (``sum_all``, ``cross_entropy``);
    tensors built from data are rank 1-4 with positive extents.  Every element
    is finite.  Values are safe to share across threads.
    """

    __slots__ = ("data",)

    @_quiet
    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64)
        _check_array(arr)
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    @_quiet
    def _wrap(cls, arr: np.ndarray, finite: bool = False) -> "Tensor":
        """Adopt a freshly computed float64 array without copying.

        ``finite`` says the elements are already known to be finite, so only
        the dtype, rank and extents are checked.
        """
        return _adopt(arr, finite)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def tolist(self):
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"


def _adopt(arr: np.ndarray, finite: bool = False, cls: type = Tensor) -> Tensor:
    """``Tensor._wrap`` for ops, which hold ``_quiet`` already (entering it costs ~1 us)."""
    _check_array(arr, finite)
    arr.setflags(write=False)
    obj = object.__new__(cls)
    obj.data = arr
    return obj


def _check_array(arr: np.ndarray, finite: bool = False) -> None:
    if arr.dtype != np.float64:
        raise ContractError(f"expected float64 data, got {arr.dtype}")
    if arr.ndim > 4:
        raise DimensionError(f"rank {arr.ndim} exceeds 4 (shape {arr.shape})")
    if arr.ndim > 0 and min(arr.shape) < 1:
        raise DimensionError(f"extents must be positive, got shape {arr.shape}")
    # Ops whose output is finite whenever their operands are (the layout ops,
    # relu, softmax) pass finite=True: the sum would prove nothing, and over a
    # strided view it costs as much as the copy the view avoids.
    if not finite:
        _check_finite(arr)


def _check_finite(arr: np.ndarray) -> None:
    """Raise ContractError unless every element is finite; callers hold ``_quiet``."""
    # a single reduction: any NaN/Inf element makes the sum non-finite
    if not math.isfinite(float(arr.sum())):
        if not np.isfinite(arr).all():
            raise ContractError("tensor contains NaN or Inf")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Var(Tensor):
    """A Tensor recorded on a Tape: a leaf (made by ``Tape.leaf``) or an op output.

    ``grad`` is populated by ``backward`` for leaves and stays None on op
    outputs; it always matches the value's shape.  A Var is only meaningful
    on the Tape that created it.
    """

    __slots__ = ("node_id", "tape", "_grad")

    @property
    def grad(self) -> Tensor | None:
        return self._grad

    @property
    def tensor(self) -> "Var":
        # kept only because perfbench/tracing.py reads ``result.tensor.data``
        return self


class Tape:
    """Recorded computation graph in topological order.

    Build once, backward once.  A Tape and its Vars belong to one logical
    thread; distinct Tapes may be used concurrently.  Each node is a tuple
    (input node ids, backward rule); an operand that is not a Var is recorded
    as input id None and gets no node.  The tape holds no op outputs, and
    holds its leaves only until ``backward`` has assigned their gradients, so
    a spent tape is freed by reference counting as soon as the caller's Vars
    go; ``len`` still reports the node count.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple] = []
        self._leaves: list[Var] = []
        self._spent = False

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value) -> Var:
        """Enter a value onto the tape as an input node; ``backward`` gives it a gradient."""
        v = object.__new__(Var)
        v.data = _as_tensor(value).data
        self._leaves.append(self._record(v, (), None))
        return v

    def _record(self, v: Var, inputs: tuple, bw: Callable | None) -> Var:
        v.node_id = len(self._nodes)
        v.tape = self
        v._grad = None
        self._nodes.append((inputs, bw))
        return v


def _tape_of(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Var):
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise ContractError("operands come from different tapes")
    return tape


def _val(x) -> np.ndarray:
    return _as_tensor(x).data


def _dispatch(out: np.ndarray, operands: tuple, bw: Callable, finite: bool = False):
    """Return a Tensor, or record a Var if any operand is one.

    ``bw`` maps the output's gradient to one gradient per operand.
    ``finite`` marks an output that is finite because its (already checked)
    operands are, so it needs no finiteness check.
    """
    tape = _tape_of(*operands)
    if tape is None:
        return _adopt(out, finite)
    ids = tuple(x.node_id if isinstance(x, Var) else None for x in operands)
    return tape._record(_adopt(out, finite, Var), ids, bw)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _check_rank(op, *vals):
    """Operands of a matrix or row op need a matrix: rank 2 to 4."""
    if any(v.ndim < 2 for v in vals):
        raise DimensionError(f"{op} needs operands of rank 2 to 4, got {_shapes(vals)}")


def _shapes(vals) -> str:
    return " and ".join(str(v.shape) for v in vals)


def _no_broadcast(op, vals) -> DimensionError:
    return DimensionError(f"{op} batch extents do not broadcast: {_shapes(vals)}")


def _batch_shape(op, vals) -> tuple:
    """The broadcast of the operands' batch axes (all but their last two)."""
    try:
        return np.broadcast_shapes(*(v.shape[:-2] for v in vals))
    except ValueError:
        raise _no_broadcast(op, vals) from None


def _unbatch(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back to the shape of an operand that was broadcast along batch axes."""
    if g.shape == shape:
        return g
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    if g.shape != shape:  # extent-1 batch axes the operand was shared along
        g = g.sum(axis=tuple(i for i, e in enumerate(shape) if e != g.shape[i]), keepdims=True)
    return g


@_quiet
def matmul(a, b):
    """Matrix product over the last two axes; batch axes broadcast."""
    av, bv = _val(a), _val(b)
    _check_rank("matmul", av, bv)
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {av.shape} @ {bv.shape}")
    try:
        out = av @ bv
    except ValueError:
        raise _no_broadcast("matmul", (av, bv)) from None

    def bw(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        gb = np.swapaxes(av, -1, -2) @ g
        return (_unbatch(ga, av.shape), _unbatch(gb, bv.shape))

    return _dispatch(out, (a, b), bw)


def transpose(a):
    """Swap the last two axes; returns a read-only view."""
    av = _val(a)
    _check_rank("transpose", av)
    out = np.swapaxes(av, -1, -2)
    return _dispatch(out, (a,), lambda g: (np.swapaxes(g, -1, -2),), finite=True)


def _elementwise(op, fn, av, bv):
    """fn(av, bv) for operands that match on their last two axes and broadcast on the rest."""
    if av.shape[-2:] != bv.shape[-2:]:
        raise DimensionError(f"{op} needs matching shapes, got {av.shape} vs {bv.shape}")
    try:
        return fn(av, bv)
    except ValueError:
        raise _no_broadcast(op, (av, bv)) from None


@_quiet
def add(a, b):
    av, bv = _val(a), _val(b)
    out = _elementwise("add", np.add, av, bv)
    return _dispatch(out, (a, b), lambda g: (_unbatch(g, av.shape), _unbatch(g, bv.shape)))


@_quiet
def mul(a, b):
    """Elementwise product."""
    av, bv = _val(a), _val(b)
    out = _elementwise("mul", np.multiply, av, bv)
    return _dispatch(
        out, (a, b), lambda g: (_unbatch(g * bv, av.shape), _unbatch(g * av, bv.shape))
    )


@_quiet
def scale(a, s: float):
    """Multiply by a python scalar (not differentiated through s)."""
    av = _val(a)
    s = float(s)
    return _dispatch(av * s, (a,), lambda g: (g * s,))


@_quiet
def add_bias(x, b):
    """Add a rank-1 bias to every row of a rank-2 or rank-3 operand."""
    xv, bv = _val(x), _val(b)
    if xv.ndim not in (2, 3) or bv.ndim != 1 or xv.shape[-1] != bv.shape[0]:
        raise DimensionError(f"add_bias needs ([B,]n,k) plus (k,), got {xv.shape} and {bv.shape}")
    rows = tuple(range(xv.ndim - 1))
    return _dispatch(xv + bv, (x, b), lambda g: (g, g.sum(axis=rows)))


@_quiet
def relu(x):
    xv = _val(x)
    return _dispatch(np.maximum(xv, 0.0), (x,), lambda g: (g * (xv > 0.0),), finite=True)


# Shifted logits below this are flushed to probability exactly 0.  numpy's exp
# leaves its vector loop from about -708 down, where its result nears the
# smallest normal float64 (2.2e-308), and runs over 20x slower there; e^-700
# is about 1e-304, which cannot change a row sum of at least 1.
_FLUSH_BELOW = -700.0


def _exp_flushed(e: np.ndarray) -> float:
    """Exponentiate max-shifted logits in place; those below -700 become exactly 0.

    Returns the smallest shifted logit, which is finite exactly when every
    entry is.  The entries below the threshold are clamped to it before the
    exp, so every exp stays on numpy's vector path, and are zeroed through one
    boolean mask after it; a call with none of them skips both.
    """
    low = float(e.min())
    if low < _FLUSH_BELOW:
        flushed = e < _FLUSH_BELOW
        np.maximum(e, _FLUSH_BELOW, out=e)
        np.exp(e, out=e)
        np.copyto(e, 0.0, where=flushed)
    else:
        np.exp(e, out=e)
    return low


def _softmax_last(xv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # max-subtraction keeps exp in range for any finite input; every step
    # after it works in place, so the result is the only array allocated,
    # and none is when ``out`` is given (it may be xv itself)
    e = np.subtract(xv, xv.max(axis=-1, keepdims=True), out=out)
    _exp_flushed(e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient g of a last-axis softmax output y, carried back to its logits."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


@_quiet
def softmax(x):
    """Softmax over the last axis; each slice sums to 1."""
    xv = _val(x)
    if xv.ndim == 0:
        raise DimensionError("softmax needs at least rank 1")
    y = _softmax_last(xv)
    return _dispatch(y, (x,), lambda g: (_softmax_grad(y, g),), finite=True)


def concat(*parts, axis: int):
    """Concatenate any number of operands along axis 0 (rows) or 1 (columns) of their last two axes.

    Batch axes broadcast: an operand with fewer of them is repeated for every
    batch entry.
    """
    if not parts:
        raise DimensionError("concat needs at least one operand")
    vals = [_val(p) for p in parts]
    _check_rank("concat", *vals)
    if axis not in (0, 1):
        raise DimensionError(f"concat axis must be 0 or 1, got {axis}")
    ax, other = axis - 2, -1 - axis  # positions counted from the end
    if len({v.shape[other] for v in vals}) > 1:
        raise DimensionError(
            f"concat along axis {axis} needs matching extent on axis {1 - axis}: {_shapes(vals)}"
        )
    lead = _batch_shape("concat", vals)
    shapes = [v.shape for v in vals]
    out = np.concatenate([np.broadcast_to(v, lead + v.shape[-2:]) for v in vals], axis=ax)
    splits = list(itertools.accumulate(v.shape[ax] for v in vals[:-1]))

    def bw(g):
        return tuple(_unbatch(gp, shape) for gp, shape in zip(np.split(g, splits, axis=ax), shapes))

    return _dispatch(out, parts, bw, finite=True)


def split_heads(x, heads: int):
    """(..., n, heads*dh) -> (..., heads, n, dh): column block j becomes head j; a read-only view.

    The operand has rank 2 or 3.  ``split_heads(x, 1)`` adds an extent-1 head
    axis, which broadcasts against any number of heads.
    """
    xv = _val(x)
    if xv.ndim not in (2, 3) or heads < 1 or xv.shape[-1] % heads:
        raise DimensionError(f"cannot split shape {xv.shape} into {heads} heads")
    *lead, n, width = xv.shape
    out = np.swapaxes(xv.reshape(*lead, n, heads, width // heads), -3, -2)
    return _dispatch(out, (x,), lambda g: (np.swapaxes(g, -3, -2).reshape(xv.shape),), finite=True)


def merge_heads(x):
    """(..., heads, n, dh) -> (..., n, heads*dh), inverting ``split_heads``; at most one copy."""
    xv = _val(x)
    if xv.ndim < 3:
        raise DimensionError(f"merge_heads needs a head axis: rank 3 or 4, got shape {xv.shape}")
    *lead, heads, n, dh = xv.shape
    out = np.swapaxes(xv, -3, -2).reshape(*lead, n, heads * dh)
    return _dispatch(
        out, (x,), lambda g: (np.swapaxes(g.reshape(*lead, n, heads, dh), -3, -2),), finite=True
    )


def stack(*parts):
    """Operands of one shape, rank 1 to 3, stacked along a new leading axis."""
    vals = [_val(p) for p in parts]
    if not vals or len({v.shape for v in vals}) > 1 or not 1 <= vals[0].ndim <= 3:
        raise DimensionError(f"stack needs operands of one shape, rank 1 to 3, got {_shapes(vals)}")
    return _dispatch(np.array(vals), parts, tuple, finite=True)


@_quiet
def sum_all(x):
    """Sum of all elements, as a rank-0 scalar."""
    xv = _val(x)
    return _dispatch(np.asarray(xv.sum()), (x,), lambda g: (np.broadcast_to(g, xv.shape).copy(),))


@_quiet
def ema(x, beta: float):
    """Exponential moving average over rows: out_i = b*out_{i-1} + (1-b)*x_i.

    Rows are the second-to-last axis, so each batch entry is smoothed on its
    own.  The running state starts at the first row, so out_1 == x_1 exactly
    and beta == 1 holds the first row forever.
    """
    beta = float(beta)
    if not (0.0 <= beta <= 1.0):
        raise ContractError(f"ema beta must be in [0, 1], got {beta}")
    xv = _val(x)
    _check_rank("ema", xv)
    n = xv.shape[-2]
    out = np.empty_like(xv)
    out[..., 0, :] = xv[..., 0, :]
    for i in range(1, n):
        out[..., i, :] = beta * out[..., i - 1, :] + (1.0 - beta) * xv[..., i, :]

    def bw(g):
        gx = np.empty_like(g)
        carry = g[..., n - 1, :].copy()
        for i in range(n - 1, 0, -1):
            gx[..., i, :] = (1.0 - beta) * carry
            carry = g[..., i - 1, :] + beta * carry
        gx[..., 0, :] = carry
        return (gx,)

    return _dispatch(out, (x,), bw)


@_quiet
def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Row-wise normalization of a rank-2 or rank-3 operand with learned gain and bias."""
    xv, gv, bv = _val(x), _val(gain), _val(bias)
    if xv.ndim not in (2, 3) or gv.shape != (xv.shape[-1],) or bv.shape != (xv.shape[-1],):
        raise DimensionError(
            f"layer_norm needs ([B,]n,d) with (d,) gain/bias, got {xv.shape}, {gv.shape}, {bv.shape}"
        )
    # centred once; the variance is what np.var computes after centring
    # again, and the row means are np.mean's sum-then-divide, bit for bit
    d = xv.shape[-1]
    xhat = xv - xv.mean(axis=-1, keepdims=True)
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gv
    out += bv

    def bw(g):
        rows = tuple(range(xv.ndim - 1))
        dgain = (g * xhat).sum(axis=rows)
        dbias = g.sum(axis=rows)
        dxhat = g * gv
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        return (dx, dgain, dbias)

    return _dispatch(out, (x, gain, bias), bw)


def _indices(op: str, indices) -> np.ndarray:
    """Integer indices as int64; nonempty indices of another dtype (float, bool, str) raise ContractError.

    numpy reads an empty list as float64, so empty indices are left to the
    caller's own check.
    """
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ContractError(f"{op} needs integer indices, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


@_quiet
def gather_rows(table, indices):
    """Select rows of a rank-2 table by rank-1 or rank-2 indices; backward scatter-adds."""
    tv = _val(table)
    idx = _indices("gather_rows", indices)
    if tv.ndim != 2 or idx.ndim not in (1, 2):
        raise DimensionError("gather_rows needs a rank-2 table and rank-1 or rank-2 indices")
    if idx.size == 0 or idx.min() < 0 or idx.max() >= tv.shape[0]:
        raise ContractError(f"indices out of range for table with {tv.shape[0]} rows")

    def bw(g):
        full = np.zeros_like(tv)
        np.add.at(full, idx, g)
        return (full,)

    return _dispatch(tv[idx].copy(), (table,), bw)


@_quiet
def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets under row softmax.

    Logits (n, v) take n targets; a batch (B, n, v) takes (B, n) targets, and
    the mean runs over all B*n positions.
    """
    full = _val(logits)
    idx = _indices("cross_entropy", targets)
    if full.ndim not in (2, 3) or idx.shape != full.shape[:-1]:
        raise DimensionError(
            f"cross_entropy needs ([B,]n,v) logits with ([B,]n) targets, got {full.shape} and {idx.shape}"
        )
    if idx.min() < 0 or idx.max() >= full.shape[-1]:
        raise ContractError(f"target out of range for {full.shape[-1]} classes")
    lv = full.reshape(-1, full.shape[-1])
    idx = idx.reshape(-1)
    n = lv.shape[0]
    # one softmax serves both passes: the forward's log-sum-exp and the
    # backward's probabilities share the row max, the flushed exps and their sums
    top = lv.max(axis=1, keepdims=True)
    e = lv - top
    _exp_flushed(e)
    total = e.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + top[:, 0]
    out = np.asarray((lse - lv[np.arange(n), idx]).mean())

    def bw(g):
        dl = e / total
        dl[np.arange(n), idx] -= 1.0
        return ((dl * (float(g) / n)).reshape(full.shape),)

    return _dispatch(out, (logits,), bw)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


@_quiet
def backward(tape: Tape, loss: Var) -> None:
    """Populate .grad on every leaf of the tape from the scalar loss.

    A leaf the loss does not reach gets a zero gradient.  Every leaf gradient
    is checked to be finite; op outputs get no ``.grad``.
    """
    if not isinstance(loss, Var) or loss.tape is not tape:
        raise ContractError("loss was not produced on this tape")
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if tape._spent:
        raise ContractError("backward already ran on this tape")
    tape._spent = True

    grads: list[np.ndarray | None] = [None] * len(tape._nodes)
    grads[loss.node_id] = np.ones_like(loss.data)

    nodes = tape._nodes
    for nid in range(loss.node_id, -1, -1):
        inputs, bw = nodes[nid]
        g = grads[nid]
        if g is None or bw is None:
            continue
        for iid, contrib in zip(inputs, bw(g)):
            if iid is None:
                continue
            # contributions are never mutated, so aliasing g is fine
            if grads[iid] is None:
                grads[iid] = contrib
            else:
                grads[iid] = grads[iid] + contrib

    for v in tape._leaves:
        g = grads[v.node_id]
        if g is None:
            g = np.zeros_like(v.data)
        v._grad = _adopt(np.asarray(g, dtype=np.float64))
    # the leaves hold the tape, and this list was the tape's only hold on them:
    # dropping it lets reference counting free the graph without the cyclic gc
    tape._leaves = []


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheck:
    """Outcome of one parameter's finite-difference comparison."""

    index: int
    max_rel_err: float
    passed: bool


def finite_difference_check(f, params, h: float = 1e-4, tol: float = 1e-4) -> list[GradCheck]:
    """Compare tape gradients of f against central finite differences.

    f must be pure and accept one positional argument per parameter; given
    Vars it must return a scalar Var, given Tensors a scalar Tensor.  The
    relative error per element is |fd - an| / max(|fd|, |an|, 1e-8).
    """
    if not (1e-6 <= h <= 1e-3):
        raise ContractError(f"h must lie in [1e-6, 1e-3], got {h}")
    base = [_as_tensor(p) for p in params]

    tape = Tape()
    vs = [tape.leaf(p) for p in base]
    out = f(*vs)
    backward(tape, out)
    analytic = [v.grad.data for v in vs]

    def eval_at(tensors) -> float:
        r = f(*tensors)
        return _as_tensor(r).item()

    reports = []
    for i, p in enumerate(base):
        fd = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for j in range(flat.size):
            plus = p.data.copy().reshape(-1)
            plus[j] += h
            minus = p.data.copy().reshape(-1)
            minus[j] -= h
            args_p = list(base)
            args_p[i] = Tensor._wrap(plus.reshape(p.shape))
            args_m = list(base)
            args_m[i] = Tensor._wrap(minus.reshape(p.shape))
            fd.reshape(-1)[j] = (eval_at(args_p) - eval_at(args_m)) / (2.0 * h)
        an = analytic[i]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-8)
        rel = float(np.max(np.abs(fd - an) / denom)) if fd.size else 0.0
        reports.append(GradCheck(index=i, max_rel_err=rel, passed=rel <= tol))
    return reports
