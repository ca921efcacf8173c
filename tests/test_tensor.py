"""Core array type, tape, and gradient checker."""

import ast
import gc
import math
import pathlib
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attentive_mlp import tensor as T
from attentive_mlp.tensor import (
    ContractError,
    DimensionError,
    Tape,
    Tensor,
    add,
    add_bias,
    backward,
    concat,
    cross_entropy,
    ema,
    finite_difference_check,
    gather_rows,
    layer_norm,
    matmul,
    merge_heads,
    mul,
    relu,
    scale,
    softmax,
    split_heads,
    stack,
    sum_all,
    transpose,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def matmul_oracle(a, b):
    """Naive triple-loop product, independent of the library path."""
    n, k = a.shape
    k2, p = b.shape
    assert k == k2
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_oracle(row):
    """Scalar math.exp evaluation of one softmax row."""
    m = max(row)
    es = [math.exp(x - m) for x in row]
    z = sum(es)
    return [e / z for e in es]


class TestTensor:
    def test_rejects_rank_over_4(self):
        assert Tensor(np.zeros((2, 2, 2, 2))).shape == (2, 2, 2, 2)
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 2, 2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            Tensor([1.0, float("nan")])
        with pytest.raises(ContractError):
            Tensor([1.0, float("inf")])
        with pytest.raises(ContractError):
            Tensor(np.nan)
        big = Tensor(np.full((2, 2), 1e200))
        with pytest.raises(ContractError):
            matmul(big, big)  # computed outputs are checked too

    def test_numeric_fault_is_one_contract_error(self):
        # with warnings as errors, numpy's overflow/invalid warnings would
        # surface as RuntimeWarning ahead of the ContractError
        huge, largest = Tensor(np.full((2, 2), 1e300)), Tensor(np.full((2, 2), 1.7e308))
        faults = [
            lambda: matmul(huge, huge),
            lambda: scale(huge, 1e300),
            lambda: add(largest, largest),
            lambda: Tensor([np.inf, -np.inf]),
        ]

        def overflowing_backward():
            tape = Tape()
            x = tape.leaf(Tensor(np.full((2, 2), 1e-300)))
            # the forward is finite; the gradient of x, ones @ w.T, overflows
            backward(tape, sum_all(matmul(x, largest)))

        def overflow_through_an_intermediate():
            tape = Tape()
            x = tape.leaf(Tensor(np.full((2, 2), 1e-300)))
            h = relu(matmul(x, Tensor(np.ones((2, 2)))))
            # only leaf gradients are checked: the first non-finite one is the
            # intermediate d loss / d h = ones @ largest.T, and it flows on into x's
            backward(tape, sum_all(matmul(h, largest)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fault in faults + [overflowing_backward, overflow_through_an_intermediate]:
                with pytest.raises(ContractError):
                    fault()
            # a valid tensor whose sum overflows constructs
            assert Tensor([1.7e308, 1.7e308]).shape == (2,)

    def test_single_element_matmul_overflow_raises(self):
        # only C[n-1, n-1] overflows; at this size a BLAS worker thread may
        # compute it, and FPU flags are per thread, so np.errstate(over="raise")
        # misses it under a threaded BLAS: the output's finiteness check must not
        n = 256
        a, b = np.ones((n, n)), np.ones((n, n))
        a[-1, :] = 1e200
        b[:, -1] = 1e200
        with pytest.raises(ContractError):
            matmul(Tensor(a), Tensor(b))

    def test_relu_and_softmax_of_extreme_rows_are_finite(self):
        # these outputs skip the finiteness sum: it must not be what kept them finite
        x = Tensor([[1.7e308, -1.7e308, 0.0], [-1.7e308, -1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, p = relu(x), softmax(x)
        np.testing.assert_array_equal(r.data, [[1.7e308, 0.0, 0.0], [0.0, 0.0, 1.7e308]])
        np.testing.assert_array_equal(p.data, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_rejects_empty_extent(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((3, 0)))

    def test_immutable(self):
        t = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).item()


class TestMatmul:
    def test_identity(self):
        m = np.array([[3.0, -1.0], [2.0, 7.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_column_selection(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [4.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 5))
            c = rng.standard_normal((5, 3))
            lhs = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            rhs = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def _softmax_three_arrays(x):
    """Reference softmax with a fresh array per step: shifted, exp, then the division."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmax:
    @pytest.mark.parametrize("shape", [(7,), (5, 9), (3, 4, 6)])
    def test_in_place_matches_three_array_formula(self, shape):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(shape) * 30
        x[..., 0] += 1e6  # a row offset far from zero
        for xv in (x, x + 1e12, -x):
            np.testing.assert_array_equal(T._softmax_last(xv), _softmax_three_arrays(xv))

    def test_peak_holds_one_output_array(self):
        x = Tensor(np.random.default_rng(23).standard_normal((512, 512)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = softmax(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes, peak / out.data.nbytes

    def test_flushes_probabilities_below_smallest_normal(self):
        # shifted logits in [-745.2, -708.4), where exp is subnormal, and
        # below -745.2, where it underflows to 0
        log_tiny = math.log(np.finfo(np.float64).tiny)
        rng = np.random.default_rng(37)
        x = rng.uniform(-5.0, 0.0, (6, 40))
        x[:, 0] = 0.0  # the row max
        x[:, 1::4] = rng.uniform(-745.2, log_tiny, (6, 10))
        x[:, 2::4] = rng.uniform(-3000.0, -745.2, (6, 10))
        for xv in (x, x + 300.0, (x + 1e3)[None]):
            shifted = xv - xv.max(axis=-1, keepdims=True)
            flushed = shifted < log_tiny
            ref = _softmax_three_arrays(xv)
            assert (ref[flushed] > 0).any()  # the reference does go subnormal
            out = T._softmax_last(xv)
            assert (out[flushed] == 0.0).all()
            np.testing.assert_array_equal(out[~flushed], ref[~flushed])
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-15)

    def test_flushes_shifted_logits_below_minus_700(self):
        # shifted logits in [-708.4, -700): exp is still normal there, but
        # the flush keeps a margin below the -708 where numpy's exp leaves its
        # vector loop, so they too become exactly 0
        rng = np.random.default_rng(43)
        x = rng.uniform(-5.0, 0.0, (6, 40))
        x[:, 0] = 0.0  # the row max
        x[:, 1::4] = rng.uniform(math.log(np.finfo(np.float64).tiny), -700.0, (6, 10))
        for xv in (x, x + 300.0, (x - 1e3)[None]):
            shifted = xv - xv.max(axis=-1, keepdims=True)
            flushed = shifted < -700.0
            ref = _softmax_three_arrays(xv)
            assert flushed.sum() >= 50 and (ref[flushed] > 0).all()
            out = T._softmax_last(xv)
            assert (out[flushed] == 0.0).all()
            assert np.array_equal(out[~flushed], ref[~flushed])

    def test_flush_peak_holds_one_output_array_and_a_mask(self):
        xv = np.random.default_rng(41).standard_normal((512, 512)) * 400
        assert (xv - xv.max(axis=-1, keepdims=True)).min() < math.log(np.finfo(np.float64).tiny)
        x = Tensor(xv)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = softmax(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.data.nbytes, peak / out.data.nbytes

    def test_uniform_on_equal_logits(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_matches_scalar_oracle(self):
        out = softmax(Tensor([1.0, 0.0]))
        np.testing.assert_allclose(out.data, softmax_oracle([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(out.data, [0.73106, 0.26894], atol=1e-5)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            softmax(Tensor(x + 37.5)).data, softmax(Tensor(x)).data, atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
    def test_rows_are_probability_vectors(self, rows, cols, seed):
        x = np.random.default_rng(seed).standard_normal((rows, cols)) * 10
        y = softmax(Tensor(x)).data
        assert y.min() >= 0
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


class TestElementwiseAndShape:
    def test_relu(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_transpose_involution(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(transpose(transpose(Tensor(m))).data, m)

    def test_concat_columns(self):
        out = concat(Tensor([[1.0]]), Tensor([[2.0]]), axis=1)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_concat_extent_mismatch(self):
        with pytest.raises(DimensionError):
            concat(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))), axis=1)

    def test_add_shape_check(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize(
        "indices, dtype",
        [([0.9, 2.7], "float64"), ([True, False], "bool"), (["0", "2"], "<U1")],
        ids=["float", "bool", "str"],
    )
    def test_index_ops_reject_non_integer_indices(self, indices, dtype):
        # a float index was truncated: gather_rows(table, [0.9, 2.7]) gave rows 0 and 2
        table = Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ContractError, match=f"^gather_rows needs integer indices, got dtype {dtype}$"):
            gather_rows(table, indices)
        with pytest.raises(ContractError, match=f"^cross_entropy needs integer indices, got dtype {dtype}$"):
            cross_entropy(Tensor(np.zeros((2, 3))), indices)

    def test_empty_indices_keep_their_own_message(self):
        # numpy reads [] as float64; the dtype check leaves it to each op's own check
        with pytest.raises(ContractError, match="^indices out of range for table with 4 rows$"):
            gather_rows(Tensor(np.arange(12.0).reshape(4, 3)), [])
        with pytest.raises(DimensionError, match="targets, got \\(2, 3\\) and \\(0,\\)$"):
            cross_entropy(Tensor(np.zeros((2, 3))), [])

    def test_index_ops_take_any_integer_dtype(self):
        table = np.arange(12.0).reshape(4, 3)
        for dtype in (np.int32, np.uint8, np.int64):
            idx = np.array([3, 0], dtype=dtype)
            assert np.array_equal(gather_rows(Tensor(table), idx).data, table[[3, 0]])
            assert cross_entropy(Tensor(np.zeros((2, 4))), idx).item() == pytest.approx(np.log(4))


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        tape = Tape()
        m = tape.leaf(Tensor(np.random.default_rng(0).standard_normal((3, 4))))
        backward(tape, sum_all(m))
        np.testing.assert_array_equal(m.grad.data, np.ones((3, 4)))

    def test_bilinear_rule(self):
        rng = np.random.default_rng(1)
        tape = Tape()
        a = tape.leaf(Tensor(rng.standard_normal((3, 4))))
        b_val = rng.standard_normal((4, 2))
        backward(tape, sum_all(matmul(a, Tensor(b_val))))
        np.testing.assert_allclose(a.grad.data, np.ones((3, 2)) @ b_val.T, atol=1e-12)

    def test_softmax_sum_grad_is_zero(self):
        tape = Tape()
        x = tape.leaf(Tensor(np.random.default_rng(2).standard_normal((4, 5))))
        backward(tape, sum_all(softmax(x)))
        assert np.abs(x.grad.data).max() < 1e-12

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(Tensor(np.ones((2, 2))))
        with pytest.raises(ContractError):
            backward(tape, relu(x))

    def test_backward_runs_once(self):
        tape = Tape()
        x = tape.leaf(Tensor(np.ones(3)))
        loss = sum_all(x)
        assert len(tape) == 2
        backward(tape, loss)
        assert len(tape) == 2  # the node count outlives the released Vars
        with pytest.raises(ContractError):
            backward(tape, loss)

    def test_vars_from_different_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(Tensor(np.ones(2)))
        b = t2.leaf(Tensor(np.ones(2)))
        with pytest.raises(ContractError):
            add(a, b)
        with pytest.raises(ContractError):
            backward(t1, sum_all(b))

    def test_grad_lands_on_leaves_only(self):
        tape = Tape()
        x = tape.leaf(Tensor(np.ones((2, 3))))
        h = relu(x)
        backward(tape, sum_all(h))
        assert h.grad is None
        np.testing.assert_array_equal(x.grad.data, np.ones((2, 3)))

    def test_no_grad_without_requires(self):
        # an operand that needs no gradient is a plain Tensor: it gets none,
        # while every leaf gets one, a zero one if the loss does not reach it
        tape = Tape()
        x = tape.leaf(Tensor(np.ones(3)))
        unused = tape.leaf(Tensor(np.ones(2)))
        const = Tensor(np.ones(3))
        backward(tape, sum_all(add(x, const)))
        np.testing.assert_array_equal(x.grad.data, np.ones(3))
        np.testing.assert_array_equal(unused.grad.data, np.zeros(2))
        assert not isinstance(const, T.Var) and not hasattr(const, "grad")

    def test_constant_operand_records_no_node(self):
        tape = Tape()
        x = tape.leaf(Tensor(np.ones(3)))
        loss = sum_all(add(x, Tensor(np.ones(3))))
        assert len(tape) == 3  # the leaf, add and sum_all
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad.data, np.ones(3))

    def test_var_is_a_tensor(self):
        tape = Tape()
        x = tape.leaf(Tensor(np.arange(6.0).reshape(2, 3)))
        h = relu(x)
        for v in (x, h):
            assert isinstance(v, Tensor) and isinstance(v, T.Var)
            assert v.tensor is v
        assert h.shape == (2, 3) and h.size == 6
        assert sum_all(h).item() == 15.0
        assert repr(h) == "Var(shape=(2, 3))"

    def test_dropped_intermediate_is_freed_during_forward(self):
        # the tape holds no op output, so reference counting alone frees one
        # the caller drops, before backward runs
        gc.disable()
        try:
            tape = Tape()
            x = tape.leaf(Tensor(np.ones((3, 4))))
            t = matmul(x, Tensor(np.ones((4, 2))))
            u = scale(t, 2.0)
            data = weakref.ref(t.data)
            del t
            assert data() is None
            backward(tape, sum_all(u))
        finally:
            gc.enable()
        np.testing.assert_array_equal(x.grad.data, np.full((3, 4), 4.0))

    def test_deterministic_across_fresh_tapes(self):
        def grads():
            rng = np.random.default_rng(5)
            tape = Tape()
            a = tape.leaf(Tensor(rng.standard_normal((4, 4))))
            b = tape.leaf(Tensor(rng.standard_normal((4, 4))))
            out = sum_all(softmax(matmul(relu(a), b)))
            backward(tape, out)
            return a.grad.data, b.grad.data

        ga1, gb1 = grads()
        ga2, gb2 = grads()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def _probed(rng, op, *shapes, probe_shape):
    """Scalarize op with a fixed random linear functional to get nonzero grads."""
    probe = Tensor(rng.standard_normal(probe_shape))
    params = [rng.standard_normal(s) for s in shapes]

    def f(*args):
        return sum_all(mul(op(*args), probe))

    return f, params


def _grad_case(name, rng):
    if name == "matmul":
        return _probed(rng, matmul, (5, 4), (4, 3), probe_shape=(5, 3))
    if name == "add":
        return _probed(rng, add, (4, 4), (4, 4), probe_shape=(4, 4))
    if name == "mul":
        return _probed(rng, mul, (4, 4), (4, 4), probe_shape=(4, 4))
    if name == "scale":
        return _probed(rng, lambda a: scale(a, 2.5), (4, 4), probe_shape=(4, 4))
    if name == "add_bias":
        return _probed(rng, add_bias, (4, 3), (3,), probe_shape=(4, 3))
    if name == "relu":
        return _probed(rng, relu, (6, 6), probe_shape=(6, 6))
    if name == "softmax":
        return _probed(rng, softmax, (5, 7), probe_shape=(5, 7))
    if name == "transpose":
        return _probed(rng, transpose, (4, 5), probe_shape=(5, 4))
    if name == "concat":
        return _probed(rng, lambda a, b: concat(a, b, axis=1), (3, 4), (3, 3), probe_shape=(3, 7))
    if name == "split_heads":
        return _probed(rng, lambda a: split_heads(a, 2), (4, 6), probe_shape=(2, 4, 3))
    if name == "merge_heads":
        return _probed(rng, merge_heads, (2, 4, 3), probe_shape=(4, 6))
    if name == "stack":
        return _probed(rng, stack, (3, 4), (3, 4), probe_shape=(2, 3, 4))
    if name == "ema":
        return _probed(rng, lambda a: ema(a, 0.6), (6, 3), probe_shape=(6, 3))
    if name == "layer_norm":
        return _probed(rng, layer_norm, (4, 5), (5,), (5,), probe_shape=(4, 5))
    if name == "gather_rows":
        return _probed(rng, lambda t: gather_rows(t, [0, 2, 2, 1]), (5, 3), probe_shape=(4, 3))
    if name == "cross_entropy":
        return (lambda l: cross_entropy(l, [1, 0, 3])), [rng.standard_normal((3, 4))]
    if name == "sum_all":
        return (lambda a: sum_all(mul(a, a))), [rng.standard_normal((16, 16))]
    raise AssertionError(name)


class TestOpGradients:
    """Every differentiable op against central finite differences."""

    OPS = (
        "matmul",
        "add",
        "mul",
        "scale",
        "add_bias",
        "relu",
        "softmax",
        "transpose",
        "concat",
        "split_heads",
        "merge_heads",
        "stack",
        "ema",
        "layer_norm",
        "gather_rows",
        "cross_entropy",
        "sum_all",
    )

    @pytest.mark.parametrize("name", OPS)
    def test_matches_finite_differences(self, name):
        rng = np.random.default_rng(sum(name.encode()))
        f, params = _grad_case(name, rng)
        reports = finite_difference_check(f, [Tensor(p) for p in params], h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports), [(r.index, r.max_rel_err) for r in reports]


# Batched cases: (op, operand shapes, probe shape).  "param" cases pair a
# rank-2 operand with a rank-3 one, so the rank-2 gradient sums over the batch.
# Rank-4 cases put a head axis after the batch axis: "heads_shared" ones share
# an (h, ...) operand across (B, h, ...), and "extent_one" ones broadcast a
# (B, 1, ...) operand against an (h, ...) one, so both gradients sum.
BATCHED_CASES = {
    "matmul": (matmul, [(2, 5, 4), (2, 4, 3)], (2, 5, 3)),
    "matmul_param_right": (matmul, [(2, 5, 4), (4, 3)], (2, 5, 3)),
    "matmul_param_left": (matmul, [(3, 4), (2, 4, 5)], (2, 3, 5)),
    "transpose": (transpose, [(2, 4, 5)], (2, 5, 4)),
    "add": (add, [(2, 4, 4), (2, 4, 4)], (2, 4, 4)),
    "add_param": (add, [(4, 3), (2, 4, 3)], (2, 4, 3)),
    "add_param_right": (add, [(2, 4, 3), (4, 3)], (2, 4, 3)),
    "mul_param": (mul, [(2, 4, 3), (4, 3)], (2, 4, 3)),
    "add_bias": (add_bias, [(2, 4, 3), (3,)], (2, 4, 3)),
    "softmax": (softmax, [(2, 5, 7)], (2, 5, 7)),
    "concat_cols": (lambda a, b: concat(a, b, axis=1), [(2, 3, 4), (2, 3, 2)], (2, 3, 6)),
    "concat_rows": (lambda a, b: concat(a, b, axis=0), [(2, 3, 4), (2, 2, 4)], (2, 5, 4)),
    "concat_param": (lambda a, b: concat(a, b, axis=1), [(3, 4), (2, 3, 2)], (2, 3, 6)),
    "concat_three": (
        lambda a, b, c: concat(a, b, c, axis=1),
        [(2, 3, 4), (3, 2), (2, 3, 5)],
        (2, 3, 11),
    ),
    "ema": (lambda a: ema(a, 0.6), [(2, 6, 3)], (2, 6, 3)),
    "layer_norm": (layer_norm, [(2, 4, 5), (5,), (5,)], (2, 4, 5)),
    "gather_rows": (lambda t: gather_rows(t, [[0, 2, 2, 1], [4, 3, 0, 0]]), [(5, 3)], (2, 4, 3)),
    "split_heads": (lambda a: split_heads(a, 2), [(2, 4, 6)], (2, 2, 4, 3)),
    "split_heads_one": (lambda a: split_heads(a, 1), [(2, 4, 6)], (2, 1, 4, 6)),
    "merge_heads": (merge_heads, [(2, 3, 4, 2)], (2, 4, 6)),
    "stack": (stack, [(2, 3, 4), (2, 3, 4)], (2, 2, 3, 4)),
    "matmul_heads_shared": (matmul, [(2, 3, 4, 5), (3, 5, 2)], (2, 3, 4, 2)),
    "matmul_extent_one": (matmul, [(2, 1, 4, 5), (3, 5, 2)], (2, 3, 4, 2)),
    "add_heads_shared": (add, [(3, 4, 2), (2, 3, 4, 2)], (2, 3, 4, 2)),
    "add_extent_one": (add, [(2, 1, 4, 2), (3, 4, 2)], (2, 3, 4, 2)),
    "mul_extent_one": (mul, [(3, 4, 2), (2, 1, 4, 2)], (2, 3, 4, 2)),
    "scale_rank4": (lambda a: scale(a, -1.5), [(2, 3, 2, 2)], (2, 3, 2, 2)),
    "transpose_rank4": (transpose, [(2, 3, 4, 5)], (2, 3, 5, 4)),
    "softmax_rank4": (softmax, [(2, 3, 2, 5)], (2, 3, 2, 5)),
    "ema_rank4": (lambda a: ema(a, 0.6), [(2, 2, 5, 3)], (2, 2, 5, 3)),
    "concat_extent_one": (
        lambda a, b: concat(a, b, axis=1),
        [(2, 1, 3, 4), (3, 3, 2)],
        (2, 3, 3, 6),
    ),
}


class TestBatchedOpGradients:
    """Batched operands of rank 3 and 4, and operands shared across batch axes, against finite differences."""

    @pytest.mark.parametrize("name", sorted(BATCHED_CASES))
    def test_matches_finite_differences(self, name):
        rng = np.random.default_rng(sum(name.encode()))
        op, shapes, probe_shape = BATCHED_CASES[name]
        f, params = _probed(rng, op, *shapes, probe_shape=probe_shape)
        reports = finite_difference_check(f, [Tensor(p) for p in params], h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports), [(r.index, r.max_rel_err) for r in reports]

    def test_cross_entropy_means_over_every_position(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((2, 3, 4))
        targets = [[1, 0, 3], [2, 2, 0]]
        reports = finite_difference_check(
            lambda l: cross_entropy(l, targets), [Tensor(logits)], h=1e-4, tol=1e-4
        )
        assert reports[0].passed, reports[0].max_rel_err
        per_sample = [cross_entropy(Tensor(logits[b]), targets[b]).item() for b in range(2)]
        batched = cross_entropy(Tensor(logits), targets).item()
        assert abs(batched - np.mean(per_sample)) <= 1e-15 * abs(batched)

    def test_cross_entropy_shares_the_flushed_softmax(self):
        # spreads past -700: the shifted logits at -720 and -760 have a
        # subnormal or zero exp, which the forward and the backward both flush
        rng = np.random.default_rng(31)
        logits = rng.standard_normal((2, 3, 5))
        logits[0, 0, 1] -= 720.0
        logits[0, 2, :3] -= 760.0
        logits[1, 1, 4] += 1e6
        targets = np.array([[0, 0, 4], [2, 4, 3]])
        tape = Tape()
        x = tape.leaf(Tensor(logits))
        loss = cross_entropy(x, targets)
        backward(tape, loss)
        rows, idx = logits.reshape(-1, 5), targets.reshape(-1)
        top = rows.max(axis=1)
        lse = np.log(np.exp(rows - top[:, None]).sum(axis=1)) + top
        np.testing.assert_allclose(loss.item(), np.mean(lse - rows[np.arange(6), idx]), rtol=1e-15)
        expected = softmax(Tensor(rows)).data.copy()
        expected[np.arange(6), idx] -= 1.0
        np.testing.assert_array_equal(x.grad.data, (expected * (1.0 / 6)).reshape(logits.shape))
        assert x.grad.data[0, 0, 1] == 0.0 and not x.grad.data[0, 2, :3].any()

    def test_batch_entries_computed_independently(self):
        rng = np.random.default_rng(23)
        a, w = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 2))
        out = layer_norm(softmax(matmul(Tensor(a), Tensor(w))), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        for b in range(3):
            alone = layer_norm(softmax(matmul(Tensor(a[b]), Tensor(w))), Tensor(np.ones(2)), Tensor(np.zeros(2)))
            np.testing.assert_allclose(out.data[b], alone.data, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "op",
        [
            matmul,
            add,
            mul,
            lambda a, b: concat(a, b, axis=1),
        ],
        ids=["matmul", "add", "mul", "concat"],
    )
    def test_mismatched_batch_extents_rejected(self, op):
        with pytest.raises(DimensionError):
            op(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((3, 3, 3))))

    @pytest.mark.parametrize(
        "op",
        [
            matmul,
            add,
            mul,
            lambda a, b: concat(a, b, axis=1),
        ],
        ids=["matmul", "add", "mul", "concat"],
    )
    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((2, 3, 4, 4), (2, 4, 4)), ((2, 3, 4, 4), (2, 2, 4, 4)), ((2, 1, 4, 4), (3, 2, 4, 4))],
        ids=["heads-vs-batch", "heads-differ", "batch-differs"],
    )
    def test_rank4_extents_that_do_not_broadcast_rejected(self, op, a_shape, b_shape):
        with pytest.raises(DimensionError):
            op(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    def test_rank4_broadcast_matches_per_entry_products(self):
        rng = np.random.default_rng(29)
        x, w = rng.standard_normal((2, 1, 4, 5)), rng.standard_normal((3, 5, 2))
        out = matmul(Tensor(x), Tensor(w)).data
        assert out.shape == (2, 3, 4, 2)
        for b in range(2):
            for j in range(3):
                np.testing.assert_allclose(out[b, j], x[b, 0] @ w[j], rtol=0, atol=1e-15)

    def test_broadcast_needs_matching_trailing_shape(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 3))))


class TestLayoutViews:
    """transpose and split_heads hand back read-only views; concat copies."""

    @pytest.mark.parametrize(
        "op", [transpose, lambda a: split_heads(a, 2)], ids=["transpose", "split_heads"]
    )
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)], ids=["rank2", "rank3"])
    @pytest.mark.parametrize("on_tape", [False, True], ids=["tensor", "var"])
    def test_view_shares_memory_and_rejects_writes(self, op, shape, on_tape):
        x = Tensor(np.arange(np.prod(shape), dtype=np.float64).reshape(shape))
        data = op(Tape().leaf(x) if on_tape else x).data
        assert np.shares_memory(data, x.data)
        with pytest.raises(ValueError):
            data[(0,) * data.ndim] = 1.0

    def test_concat_of_three_joins_in_order(self):
        parts = [np.full((2, k), float(k)) for k in (1, 2, 3)]
        out = concat(*(Tensor(p) for p in parts), axis=1)
        np.testing.assert_array_equal(out.data, np.concatenate(parts, axis=1))
        assert not any(np.shares_memory(out.data, p) for p in parts)

    def test_heads_split_column_blocks_and_merge_back(self):
        x = np.arange(2 * 3 * 6, dtype=np.float64).reshape(2, 3, 6)
        heads = split_heads(Tensor(x), 3)
        assert heads.shape == (2, 3, 3, 2)
        for j in range(3):
            np.testing.assert_array_equal(heads.data[:, j], x[..., 2 * j : 2 * j + 2])
        np.testing.assert_array_equal(merge_heads(heads).data, x)
        stacked = stack(*(Tensor(x[b]) for b in range(2)))
        np.testing.assert_array_equal(stacked.data, x)

    @pytest.mark.parametrize(
        "op, shape",
        [
            (lambda a: split_heads(a, 4), (3, 6)),
            (lambda a: split_heads(a, 2), (2, 2, 3, 4)),
            (merge_heads, (3, 4)),
            (lambda a: stack(a, Tensor(np.zeros((3, 5)))), (3, 4)),
            (lambda a: stack(a), (2, 2, 3, 4)),
        ],
        ids=["split-indivisible", "split-rank4", "merge-no-head-axis", "stack-shapes-differ", "stack-rank4"],
    )
    def test_head_layout_shape_errors(self, op, shape):
        with pytest.raises(DimensionError):
            op(Tensor(np.zeros(shape)))

    def test_concat_of_three_extent_mismatch(self):
        with pytest.raises(DimensionError):
            concat(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))), axis=1)


def _matmul_wrong_grad(a, b):
    """matmul whose backward rule for `a` is 1% too large, built like the library's ops."""
    av, bv = T._val(a), T._val(b)

    def bw(g):
        ga = 1.01 * (g @ np.swapaxes(bv, -1, -2))
        gb = np.swapaxes(av, -1, -2) @ g
        return (T._unbatch(ga, av.shape), T._unbatch(gb, bv.shape))

    return T._dispatch(av @ bv, (a, b), bw)


class TestFiniteDifferenceCheck:
    def test_square_at_three(self):
        def f(x):
            return sum_all(mul(x, x))

        reports = finite_difference_check(f, [Tensor([3.0])], h=1e-4, tol=1e-7)
        assert reports[0].passed
        # analytic derivative of x^2 at 3 is 6; fd must agree to 1e-7
        tape = Tape()
        v = tape.leaf(Tensor([3.0]))
        backward(tape, f(v))
        assert abs(v.grad.data[0] - 6.0) < 1e-12

    def test_h_out_of_range(self):
        with pytest.raises(ContractError):
            finite_difference_check(lambda x: sum_all(x), [Tensor([1.0])], h=1e-2)

    def test_flags_wrong_gradient(self):
        def f(a):
            return sum_all(mul(_matmul_wrong_grad(a, Tensor(np.eye(3))), Tensor(np.ones((3, 3)))))

        reports = finite_difference_check(
            f, [Tensor(np.random.default_rng(0).standard_normal((3, 3)))]
        )
        assert not reports[0].passed

    @pytest.mark.parametrize(
        "a_shape, b",
        [((2, 3, 3), np.eye(3)), ((3, 3), np.stack([np.eye(3)] * 2))],
        ids=["batched", "shared"],
    )
    def test_flags_wrong_batched_gradient(self, a_shape, b):
        # a wrong rule is caught for rank-3 and batch-shared operands too
        def f(a):
            out = _matmul_wrong_grad(a, Tensor(b))
            return sum_all(mul(out, Tensor(np.ones(out.shape))))

        reports = finite_difference_check(
            f, [Tensor(np.random.default_rng(0).standard_normal(a_shape))]
        )
        assert not reports[0].passed


class TestModuleSurface:
    def test_every_export_has_a_caller(self):
        # each name tensor exports is imported by another module of the
        # package (``from .tensor import name`` or ``T.name``) or re-exported
        # by its __init__
        package = pathlib.Path(T.__file__).parent
        used = set()
        for path in package.glob("*.py"):
            if path.name == "tensor.py":
                continue
            tree = ast.parse(path.read_text())
            aliases = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    if node.module == "tensor":
                        used.update(a.name for a in node.names)
                    elif node.module is None:
                        aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
            used.update(
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            )
        assert sorted(set(T.__all__) - used) == []
