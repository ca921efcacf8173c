"""Attention mechanisms against scalar-loop and dense-eigendecomposition oracles."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from attentive_mlp import attention
from attentive_mlp.attention import (
    AmlpCovParams,
    AmlpPQueryParams,
    AttentionInputs,
    ConfigError,
    MultiHeadParams,
    NotPsdError,
    amlp_cov_forward,
    amlp_cov_weights,
    amlp_pquery_forward,
    amlp_pquery_weights,
    causal_amlp_cov_init,
    causal_amlp_cov_step,
    distance_attention,
    ema,
    low_rank_factor,
    mlp_forward,
    multi_head_forward,
    softmax_attention,
)
from attentive_mlp.tensor import (
    ContractError,
    DimensionError,
    Tape,
    Tensor,
    backward,
    finite_difference_check,
    matmul,
    merge_heads,
    mul,
    relu,
    softmax,
    split_heads,
    sum_all,
)

# ---------------------------------------------------------------------------
# scalar-loop oracles
# ---------------------------------------------------------------------------


def softmax_rows_oracle(a):
    """Row-wise softmax via scalar math.exp loops."""
    out = [[0.0] * len(row) for row in a]
    for i, row in enumerate(a):
        m = max(row)
        es = [math.exp(x - m) for x in row]
        z = sum(es)
        out[i] = [e / z for e in es]
    return np.array(out)


def mm(a, b):
    """Triple-loop matrix product."""
    out = [[0.0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            out[i][j] = sum(a[i][t] * b[t][j] for t in range(len(b)))
    return np.array(out)


def tr(a):
    return np.array([[a[i][j] for i in range(len(a))] for j in range(len(a[0]))])


def sigma1_oracle(h, kind):
    if kind == "softmax":
        return softmax_rows_oracle(h)
    if kind == "relu":
        return np.array([[max(x, 0.0) for x in row] for row in h])
    return np.asarray(h)


def softmax_attention_oracle(q, k, v, scaled):
    logits = mm(q, tr(k))
    if scaled:
        logits = logits / math.sqrt(len(q[0]))
    return mm(softmax_rows_oracle(logits.tolist()), v)


def mlp_oracle(x, w1, w2):
    hidden = mm(x, w1)
    hidden = np.array([[max(e, 0.0) for e in row] for row in hidden])
    return mm(hidden, w2)


def amlp_cov_oracle(q, k, v, cq, ck, sigma1):
    """Straight-line evaluation of the covariance parameterization."""
    kappa = mm(cq, softmax_rows_oracle(mm(tr(q), q).tolist())) + mm(
        ck, softmax_rows_oracle(mm(tr(k), k).tolist())
    )
    w_qkv = mm(kappa, softmax_rows_oracle(mm(tr(k), v).tolist()))
    hidden = sigma1_oracle(mm(q, tr(kappa)).tolist(), sigma1)
    return tr(kappa), w_qkv, mm(hidden, w_qkv)


def ema_oracle(q, beta):
    out = [list(q[0])]
    for i in range(1, len(q)):
        out.append([beta * o + (1 - beta) * x for o, x in zip(out[-1], q[i])])
    return np.array(out)


def amlp_pquery_oracle(q, k, v, cq, ck, w, beta, sigma1):
    """Straight-line evaluation of the pseudo-query parameterization."""
    qhat = ema_oracle(q, beta)
    a = mm(softmax_rows_oracle(mm(cq, tr(qhat)).tolist()), qhat)
    b = mm(softmax_rows_oracle(mm(ck, tr(k)).tolist()), k)
    ab = np.concatenate([a, b], axis=1)
    lt = mm(ab, w)
    w_qkv = mm(softmax_rows_oracle(mm(lt, tr(k)).tolist()), v)
    hidden = sigma1_oracle(mm(q, tr(lt)).tolist(), sigma1)
    return tr(lt), w_qkv, mm(hidden, w_qkv)


def rand_inputs(rng, n, m, d):
    return AttentionInputs(
        Tensor(rng.standard_normal((n, d))),
        Tensor(rng.standard_normal((m, d))),
        Tensor(rng.standard_normal((m, d))),
    )


def cov_params(rng, c, d, sigma1="softmax"):
    return AmlpCovParams(
        Tensor(rng.standard_normal((c, d)) * d**-0.5),
        Tensor(rng.standard_normal((c, d)) * d**-0.5),
        sigma1=sigma1,
    )


def pquery_params(rng, c, d, beta=0.5, sigma1="softmax"):
    return AmlpPQueryParams(
        Tensor(rng.standard_normal((c, d)) * d**-0.5),
        Tensor(rng.standard_normal((c, d)) * d**-0.5),
        Tensor(rng.standard_normal((2 * d, d)) * (2 * d) ** -0.5),
        beta=beta,
        sigma1=sigma1,
    )


def composed_tail(x, a, b, kind, heads=1):
    """sigma1(x A) B from public tape ops over all rows at once: the unblocked reference."""
    pre = matmul(x, a)
    if kind == "softmax":
        hidden = softmax(pre) if heads == 1 else merge_heads(softmax(split_heads(pre, heads)))
    else:
        hidden = relu(pre) if kind == "relu" else pre
    return matmul(hidden, b)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestMlpForward:
    def test_identity_on_nonnegative_input(self):
        x = np.abs(np.random.default_rng(0).standard_normal((3, 4)))
        out = mlp_forward(Tensor(x), Tensor(np.eye(4)), Tensor(np.eye(4)))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_position_wise(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        w1, w2 = rng.standard_normal((4, 8)), rng.standard_normal((8, 4))
        perm = [3, 0, 4, 1, 2]
        direct = mlp_forward(Tensor(x[perm]), Tensor(w1), Tensor(w2)).data
        permuted = mlp_forward(Tensor(x), Tensor(w1), Tensor(w2)).data[perm]
        np.testing.assert_array_equal(direct, permuted)

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        x, w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((4, 8)), rng.standard_normal((8, 4))
        out = mlp_forward(Tensor(x), Tensor(w1), Tensor(w2))
        np.testing.assert_allclose(out.data, mlp_oracle(x, w1, w2), atol=1e-12)


class TestSoftmaxAttention:
    def test_single_token_returns_value_row(self):
        rng = np.random.default_rng(3)
        q, k, v = rng.standard_normal((1, 4)), rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        out = softmax_attention(AttentionInputs(Tensor(q), Tensor(k), Tensor(v)))
        np.testing.assert_array_equal(out.data, v)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, 4))
        k = np.tile(rng.standard_normal((1, 4)), (5, 1))
        v = rng.standard_normal((5, 4))
        out = softmax_attention(AttentionInputs(Tensor(q), Tensor(k), Tensor(v)))
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (3, 1)), atol=1e-12)

    def test_two_key_example(self):
        q = [[1.0, 0.0]]
        k = [[1.0, 0.0], [0.0, 1.0]]
        v = [[1.0, 0.0], [0.0, 1.0]]
        out = softmax_attention(AttentionInputs(Tensor(q), Tensor(k), Tensor(v)), scaled=False)
        e = math.exp(1.0)
        np.testing.assert_allclose(out.data, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)
        np.testing.assert_allclose(out.data, [[0.73106, 0.26894]], atol=1e-5)

    def test_matches_oracle_scaled_and_unscaled(self):
        rng = np.random.default_rng(5)
        q, k, v = rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        for scaled in (True, False):
            out = softmax_attention(AttentionInputs(Tensor(q), Tensor(k), Tensor(v)), scaled=scaled)
            np.testing.assert_allclose(out.data, softmax_attention_oracle(q, k, v, scaled), atol=1e-12)

    def test_mismatched_widths_rejected(self):
        with pytest.raises(DimensionError):
            AttentionInputs(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))


class TestLowRankFactor:
    def test_identity_full_rank(self):
        f = low_rank_factor(Tensor(np.eye(5)), 5)
        np.testing.assert_allclose(f.l.data @ f.l.data.T, np.eye(5), atol=1e-10)
        assert f.dropped_mass <= 1e-18

    def test_rank_one_exact(self):
        u = np.random.default_rng(6).standard_normal((5, 1))
        sigma = u @ u.T
        f = low_rank_factor(Tensor(sigma), 1)
        np.testing.assert_allclose(f.l.data @ f.l.data.T, sigma, atol=1e-10)
        assert f.dropped_mass <= 1e-18

    def test_exact_when_rank_at_most_c(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d + 1))
            b = rng.standard_normal((d, r))
            sigma = b @ b.T
            f = low_rank_factor(Tensor(sigma), r)
            assert np.linalg.norm(sigma - f.l.data @ f.l.data.T) <= 1e-8

    def test_dropped_mass_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(3, 12))
            c = int(rng.integers(1, d))
            b = rng.standard_normal((d, d))
            sigma = b @ b.T
            f = low_rank_factor(Tensor(sigma), c)
            err2 = np.linalg.norm(sigma - f.l.data @ f.l.data.T) ** 2
            lam = np.sort(np.linalg.eigvalsh(sigma))[::-1]  # dense oracle
            expected = float((lam[c:] ** 2).sum())
            assert abs(err2 - expected) <= 1e-8
            assert abs(f.dropped_mass - expected) <= 1e-8

    def test_descending_eigenvalue_columns(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((6, 6))
        sigma = b @ b.T
        f = low_rank_factor(Tensor(sigma), 6)
        norms = (f.l.data**2).sum(axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_c_boundary_inside_repeated_eigenvalue(self):
        # c = 2 keeps 3 and one of the two 2s; the other 2 and the 1 are dropped
        q, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((4, 4)))
        sigma = q @ np.diag([3.0, 2.0, 2.0, 1.0]) @ q.T
        f = low_rank_factor(Tensor(sigma), 2)
        err2 = np.linalg.norm(sigma - f.l.data @ f.l.data.T) ** 2
        assert abs(err2 - 5.0) <= 1e-8
        assert abs(f.dropped_mass - 5.0) <= 1e-8
        norms = (f.l.data**2).sum(axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ContractError):
            low_rank_factor(Tensor(m), 1)

    def test_negative_spectrum_rejected(self):
        with pytest.raises(NotPsdError):
            low_rank_factor(Tensor(np.diag([1.0, -0.5])), 1)

    def test_tiny_negative_clamped(self):
        f = low_rank_factor(Tensor(np.diag([1.0, -5e-10])), 2)
        assert np.all((f.l.data**2).sum(axis=0) >= 0)


class TestDistanceAttention:
    def test_zero_matrix_gives_zero(self):
        rng = np.random.default_rng(10)
        inputs = rand_inputs(rng, 3, 4, 5)
        out = distance_attention(inputs, Tensor(np.zeros((5, 5))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 5)))

    def test_identity_matches_unnormalized_linear_oracle(self):
        rng = np.random.default_rng(11)
        q, k, v = rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        out = distance_attention(
            AttentionInputs(Tensor(q), Tensor(k), Tensor(v)), Tensor(np.eye(4))
        )
        oracle = mm(mm(q, tr(k)), v)  # quadratic-order association
        np.testing.assert_allclose(out.data, oracle, atol=1e-10)

    def test_full_rank_factor_reproduces_direct_form(self):
        rng = np.random.default_rng(12)
        d = 5
        b = rng.standard_normal((d, d))
        sigma = b @ b.T
        inputs = rand_inputs(rng, 4, 6, d)
        l = low_rank_factor(Tensor(sigma), d).l.data
        direct = distance_attention(inputs, Tensor(sigma)).data
        factored = inputs.q.data @ l @ l.T @ inputs.k.data.T @ inputs.v.data
        np.testing.assert_allclose(direct, factored, atol=1e-8)


class TestAmlpCov:
    def test_weight_shapes(self):
        rng = np.random.default_rng(13)
        w_qk, w_qkv = amlp_cov_weights(rand_inputs(rng, 4, 5, 6), cov_params(rng, 2, 6))
        assert w_qk.shape == (6, 2)
        assert w_qkv.shape == (2, 6)

    def test_zero_projections_zero_output(self):
        rng = np.random.default_rng(14)
        inputs = rand_inputs(rng, 4, 5, 6)
        params = AmlpCovParams(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))), sigma1="identity")
        w_qk, w_qkv = amlp_cov_weights(inputs, params)
        assert np.abs(w_qk.data).max() == 0 and np.abs(w_qkv.data).max() == 0
        assert np.abs(amlp_cov_forward(inputs, params).data).max() == 0

    def test_weights_match_scalar_oracle(self):
        rng = np.random.default_rng(15)
        inputs = rand_inputs(rng, 4, 5, 6)
        params = cov_params(rng, 2, 6)
        w_qk, w_qkv = amlp_cov_weights(inputs, params)
        o_qk, o_qkv, _ = amlp_cov_oracle(
            inputs.q.data, inputs.k.data, inputs.v.data, params.c_q.data, params.c_k.data, "softmax"
        )
        np.testing.assert_allclose(w_qk.data, o_qk, atol=1e-12)
        np.testing.assert_allclose(w_qkv.data, o_qkv, atol=1e-12)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_forward_matches_scalar_oracle(self, sigma1):
        rng = np.random.default_rng(16)
        inputs = rand_inputs(rng, 4, 5, 6)
        params = cov_params(rng, 2, 6, sigma1=sigma1)
        out = amlp_cov_forward(inputs, params)
        assert out.shape == (4, 6)
        _, _, oracle = amlp_cov_oracle(
            inputs.q.data, inputs.k.data, inputs.v.data, params.c_q.data, params.c_k.data, sigma1
        )
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_source_permutation_invariance(self):
        rng = np.random.default_rng(17)
        inputs = rand_inputs(rng, 4, 6, 5)
        params = cov_params(rng, 3, 5)
        perm = rng.permutation(6)
        permuted = AttentionInputs(inputs.q, Tensor(inputs.k.data[perm]), Tensor(inputs.v.data[perm]))
        np.testing.assert_allclose(
            amlp_cov_forward(inputs, params).data,
            amlp_cov_forward(permuted, params).data,
            atol=1e-12,
        )

    def test_deterministic(self):
        rng1, rng2 = np.random.default_rng(18), np.random.default_rng(18)
        a = amlp_cov_forward(rand_inputs(rng1, 4, 5, 6), cov_params(rng1, 2, 6))
        b = amlp_cov_forward(rand_inputs(rng2, 4, 5, 6), cov_params(rng2, 2, 6))
        assert np.array_equal(a.data, b.data)

    # (q, k, v, c) shapes: rank 2; a batch axis; batch and head axes; a
    # rank-2 target shared by a batch of sources; k and v with different
    # batch extents (v shared by every k)
    OP_SHAPES = {
        "rank2": ((4, 6), (5, 6), (5, 6), (2, 6)),
        "batch": ((3, 4, 6), (3, 5, 6), (3, 5, 6), (2, 6)),
        "batch-heads": ((3, 2, 4, 6), (3, 2, 5, 6), (3, 2, 5, 6), (2, 2, 6)),
        "shared-target": ((4, 6), (3, 5, 6), (3, 5, 6), (2, 6)),
        "kv-extents": ((3, 4, 6), (3, 5, 6), (1, 5, 6), (2, 6)),
    }

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    @pytest.mark.parametrize("layout", sorted(OP_SHAPES))
    def test_one_node_matches_composed_weights(self, layout, sigma1):
        # the fused op against sigma1(q @ w_qk) @ w_qkv composed from
        # amlp_cov_weights and public ops: the same forward bit for bit, and
        # the same gradients
        rng = np.random.default_rng(19)
        q_s, k_s, v_s, c_s = self.OP_SHAPES[layout]
        arrays = [rng.standard_normal(s) * 0.7 for s in (q_s, k_s, v_s, c_s, c_s)]
        probe = None

        def run(fn):
            nonlocal probe
            tape = Tape()
            q, k, v, cq, ck = leaves = [tape.leaf(Tensor(a)) for a in arrays]
            out = fn(AttentionInputs(q, k, v), AmlpCovParams(cq, ck, sigma1=sigma1))
            if probe is None:
                probe = Tensor(rng.standard_normal(out.shape))
            before = len(tape)
            backward(tape, sum_all(mul(out, probe)))
            return out.data, [leaf.grad.data for leaf in leaves], before - len(leaves)

        def composed(inputs, params):
            w_qk, w_qkv = amlp_cov_weights(inputs, params)
            return composed_tail(inputs.q, w_qk, w_qkv, sigma1)

        out, grads, nodes = run(amlp_cov_forward)
        ref_out, ref_grads, _ = run(composed)
        assert nodes == 1
        assert np.array_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("masked_by", ["softmax", "relu"])
    def test_overflow_hidden_downstream_raises_without_warning(self, masked_by):
        # only an intermediate overflows, to -inf, and a later op would zero
        # it, so the output alone is finite: the op must check the intermediate
        q = np.array([[0.1, 0.2]])
        if masked_by == "softmax":
            # K^T V[0, 1] = 1e150 * -1e200 is -inf beside a finite row maximum,
            # whose row softmax maps it to 0.  (K^T K cannot do this: by
            # Cauchy-Schwarz its diagonal overflows first, and its row
            # softmax then turns NaN.)
            k = np.array([[1e150, 1e-160]])
            v = np.array([[1.0, -1e200]])
            c_q = c_k = np.array([[0.5, 0.5]])
        else:
            # Q L^T is -1e310 everywhere, and ReLU maps it to 0
            q = np.array([[1e10, 1e10]])
            k = v = np.array([[0.1, 0.2]])
            c_q, c_k = np.array([[-1e300, -1e300]]), np.array([[0.0, 0.0]])
        inputs = AttentionInputs(Tensor(q), Tensor(k), Tensor(v))
        params = AmlpCovParams(Tensor(c_q), Tensor(c_k), sigma1="relu")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="NaN or Inf"):
                amlp_cov_forward(inputs, params)


class TestEma:
    def test_beta_zero_is_identity(self):
        q = np.random.default_rng(19).standard_normal((5, 3))
        np.testing.assert_array_equal(ema(Tensor(q), 0.0).data, q)

    def test_beta_one_holds_first_row(self):
        q = np.random.default_rng(20).standard_normal((5, 3))
        np.testing.assert_array_equal(ema(Tensor(q), 1.0).data, np.tile(q[0], (5, 1)))

    def test_half_beta_scalar_sequence(self):
        out = ema(Tensor([[0.0], [1.0]]), 0.5)
        np.testing.assert_allclose(out.data, [[0.0], [0.5]], atol=1e-15)

    def test_matches_recurrence_oracle(self):
        q = np.random.default_rng(21).standard_normal((7, 4))
        np.testing.assert_allclose(ema(Tensor(q), 0.3).data, ema_oracle(q, 0.3), atol=1e-14)

    def test_beta_out_of_range(self):
        with pytest.raises(ContractError):
            ema(Tensor(np.ones((2, 2))), 1.5)


class TestAmlpPQuery:
    def test_weight_shapes(self):
        rng = np.random.default_rng(22)
        w_qk, w_qkv = amlp_pquery_weights(rand_inputs(rng, 5, 3, 4), pquery_params(rng, 2, 4))
        assert w_qk.shape == (4, 2)
        assert w_qkv.shape == (2, 4)

    def test_single_source_token_repeats_value_row(self):
        rng = np.random.default_rng(23)
        inputs = rand_inputs(rng, 5, 1, 4)
        _, w_qkv = amlp_pquery_weights(inputs, pquery_params(rng, 2, 4))
        np.testing.assert_allclose(w_qkv.data, np.tile(inputs.v.data[0], (2, 1)), atol=1e-14)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_matches_scalar_oracle(self, sigma1):
        rng = np.random.default_rng(24)
        inputs = rand_inputs(rng, 5, 3, 4)
        params = pquery_params(rng, 2, 4, beta=0.5, sigma1=sigma1)
        w_qk, w_qkv = amlp_pquery_weights(inputs, params)
        o_qk, o_qkv, o_out = amlp_pquery_oracle(
            inputs.q.data,
            inputs.k.data,
            inputs.v.data,
            params.c_q.data,
            params.c_k.data,
            params.w.data,
            0.5,
            sigma1,
        )
        np.testing.assert_allclose(w_qk.data, o_qk, atol=1e-12)
        np.testing.assert_allclose(w_qkv.data, o_qkv, atol=1e-12)
        np.testing.assert_allclose(amlp_pquery_forward(inputs, params).data, o_out, atol=1e-12)

    def test_duplicated_queries_duplicate_outputs(self):
        rng = np.random.default_rng(25)
        row = rng.standard_normal((1, 4))
        q = np.concatenate([row, row, rng.standard_normal((2, 4))])
        inputs = AttentionInputs(Tensor(q), Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4))))
        out = amlp_pquery_forward(inputs, pquery_params(rng, 2, 4, beta=0.0))
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-14)

    def test_target_order_sensitivity(self):
        # the query smoothing is a left-to-right scan, so reordering targets
        # must change the adaptive weights (this is sensitivity, not a bug)
        rng = np.random.default_rng(26)
        q = rng.standard_normal((6, 4))
        k, v = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        params = pquery_params(rng, 2, 4, beta=0.7)
        out = amlp_pquery_forward(AttentionInputs(Tensor(q), Tensor(k), Tensor(v)), params)
        flipped = amlp_pquery_forward(
            AttentionInputs(Tensor(q[::-1].copy()), Tensor(k), Tensor(v)), params
        )
        assert np.abs(out.data[::-1] - flipped.data).max() > 1e-6

    def test_beta_out_of_range_is_config_error(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ConfigError, match="beta must be in"):
            pquery_params(rng, 2, 4, beta=1.5)

    def test_gradients_through_all_parameters(self):
        rng = np.random.default_rng(27)
        inputs = rand_inputs(rng, 5, 4, 4)
        p = pquery_params(rng, 2, 4, beta=0.5)
        probe = Tensor(rng.standard_normal((5, 4)))

        def f(cq, ck, w, q):
            out = amlp_pquery_forward(
                AttentionInputs(q, inputs.k, inputs.v), AmlpPQueryParams(cq, ck, w, beta=0.5)
            )
            return sum_all(mul(out, probe))

        reports = finite_difference_check(f, [p.c_q, p.c_k, p.w, inputs.q], h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports), [(r.index, r.max_rel_err) for r in reports]

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_tail_is_one_node(self, sigma1):
        # sigma1(Q w_qk) w_qkv adds one node to the weights' nodes, whatever sigma1
        rng = np.random.default_rng(29)
        arrays = [rng.standard_normal(s) for s in ((5, 4), (3, 4), (3, 4), (2, 4), (2, 4), (8, 4))]

        def nodes(fn):
            tape = Tape()
            q, k, v, cq, ck, w = (tape.leaf(a) for a in arrays)
            fn(AttentionInputs(q, k, v), AmlpPQueryParams(cq, ck, w, sigma1=sigma1))
            return len(tape)

        assert nodes(amlp_pquery_forward) == nodes(amlp_pquery_weights) + 1


class TestCausalCov:
    def test_init_state_is_zero(self):
        s = causal_amlp_cov_init(4)
        assert s.t == 0
        for field in (s.s_q, s.s_k, s.z):
            np.testing.assert_array_equal(field.data, np.zeros((4, 4)))

    def test_single_basis_step(self):
        d = 3
        e1 = np.zeros((1, d))
        e1[0, 0] = 1.0
        params = cov_params(np.random.default_rng(28), 2, d)
        _, s = causal_amlp_cov_step(causal_amlp_cov_init(d), Tensor(e1), Tensor(e1), Tensor(e1), params)
        expected = np.zeros((d, d))
        expected[0, 0] = 1.0
        assert s.t == 1
        for field in (s.s_q, s.s_k, s.z):
            np.testing.assert_array_equal(field.data, expected)

    def test_state_symmetric_psd(self):
        rng = np.random.default_rng(29)
        d = 5
        params = cov_params(rng, 2, d)
        state = causal_amlp_cov_init(d)
        for _ in range(8):
            _, state = causal_amlp_cov_step(
                state,
                Tensor(rng.standard_normal((1, d))),
                Tensor(rng.standard_normal((1, d))),
                Tensor(rng.standard_normal((1, d))),
                params,
            )
        for field in (state.s_q, state.s_k):
            a = field.data
            assert np.abs(a - a.T).max() <= 1e-12
            for _ in range(10):
                x = rng.standard_normal(d)
                assert x @ a @ x >= -1e-10 * (x @ x)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_prefix_equivalence(self, sigma1):
        rng = np.random.default_rng(30)
        for _ in range(6):
            n = int(rng.integers(1, 33))
            d = int(rng.integers(1, 9))
            c = int(rng.integers(1, min(4, d) + 1))
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            params = cov_params(rng, c, d, sigma1=sigma1)
            state = causal_amlp_cov_init(d)
            for t in range(1, n + 1):
                out_t, state = causal_amlp_cov_step(
                    state, Tensor(q[t - 1 : t]), Tensor(k[t - 1 : t]), Tensor(v[t - 1 : t]), params
                )
                prefix = amlp_cov_forward(
                    AttentionInputs(Tensor(q[:t]), Tensor(k[:t]), Tensor(v[:t])), params
                )
                np.testing.assert_allclose(out_t.data[0], prefix.data[t - 1], atol=1e-10)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_prefix_equivalence_through_underflow_band(self, sigma1):
        # scaled q rows make S_Q's diagonal outgrow its off-diagonal entries by
        # more than 708 within a few dozen steps, so its row softmax reaches
        # the band where exp is subnormal and the step flushes it to 0
        rng = np.random.default_rng(34)
        n, d, c = 48, 6, 3
        q = rng.standard_normal((n, d)) * 6.0
        k, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        params = cov_params(rng, c, d, sigma1=sigma1)
        state = causal_amlp_cov_init(d)
        band_steps = 0
        for t in range(1, n + 1):
            out_t, state = causal_amlp_cov_step(
                state, Tensor(q[t - 1 : t]), Tensor(k[t - 1 : t]), Tensor(v[t - 1 : t]), params
            )
            s_q = state.s_q.data
            p = np.exp(s_q - s_q.max(axis=-1, keepdims=True))
            band_steps += bool(((p > 0) & (p < np.finfo(np.float64).tiny)).any())
            prefix = amlp_cov_forward(
                AttentionInputs(Tensor(q[:t]), Tensor(k[:t]), Tensor(v[:t])), params
            )
            np.testing.assert_allclose(out_t.data[0], prefix.data[t - 1], atol=1e-10)
        assert band_steps > 0

    def test_overflowing_step_raises_contract_error_without_warning(self):
        params = cov_params(np.random.default_rng(35), 2, 3)
        big = Tensor(np.full((1, 3), 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError):
                causal_amlp_cov_step(causal_amlp_cov_init(3), big, big, big, params)

    def test_overflow_in_key_value_sums_raises_contract_error_without_warning(self):
        # q of order 1 and k near 1e100 keep S_Q and S_K finite, and only
        # z = k^T v overflows: the shifted logits of z's slice must catch it
        params = cov_params(np.random.default_rng(36), 2, 3)
        q = Tensor(np.random.default_rng(37).standard_normal((1, 3)))
        k = Tensor(np.full((1, 3), 1e100))
        v = Tensor(np.array([[1e250, -1e250, 1e250]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="causal state"):
                causal_amlp_cov_step(causal_amlp_cov_init(3), q, k, v, params)

    def test_state_equals_running_sums_bit_for_bit(self):
        rng = np.random.default_rng(38)
        d = 5
        params = cov_params(rng, 2, d)
        state = causal_amlp_cov_init(d)
        s_q = s_k = z = np.zeros((d, d))
        for _ in range(30):
            q, k, v = (rng.standard_normal((1, d)) for _ in range(3))
            _, state = causal_amlp_cov_step(state, Tensor(q), Tensor(k), Tensor(v), params)
            s_q, s_k, z = s_q + q.T @ q, s_k + k.T @ k, z + k.T @ v
        for got, want in ((state.s_q, s_q), (state.s_k, s_k), (state.z, z)):
            assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_step_bit_identical_to_row_softmax_restatement(self, sigma1):
        # the step's arithmetic, restated in its order of operations: the row
        # softmaxes of S_Q, S_K and z reduce along the columns of their stacked
        # transposes, shifted logits below -700 are flushed to 0, and each
        # 1/rowsum is folded into c_q, c_k or the hidden row
        def softmax_rows(a):
            e = np.exp(a - a.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        rng = np.random.default_rng(33)
        d, c, n = 6, 3, 24
        params = cov_params(rng, c, d, sigma1=sigma1)
        cq, ck = params.c_q.data, params.c_k.data
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        state = causal_amlp_cov_init(d)
        s_q = s_k = z = np.zeros((d, d))
        for t in range(n):
            qt, kt, vt = q[t : t + 1], k[t : t + 1], v[t : t + 1]
            out_t, state = causal_amlp_cov_step(state, Tensor(qt), Tensor(kt), Tensor(vt), params)
            s_q, s_k, z = s_q + qt.T @ qt, s_k + kt.T @ kt, z + kt.T @ vt
            stacked = np.array((s_q.T, s_k.T, z.T))  # C-ordered, as the state
            shifted = stacked - stacked.max(axis=-2, keepdims=True)
            e = np.exp(np.maximum(shifted, -700.0))
            e[shifted < -700.0] = 0.0
            r_q, r_k, r_z = e.sum(axis=-2)
            lt = (cq / r_q) @ e[0].T + (ck / r_k) @ e[1].T
            hidden = qt @ lt.T
            if sigma1 == "softmax":
                hidden = softmax_rows(hidden)
            elif sigma1 == "relu":
                hidden = np.maximum(hidden, 0.0)
            assert np.array_equal(out_t.data, ((hidden @ lt) / r_z) @ e[2].T), t

    @pytest.mark.parametrize(
        "call",
        [
            lambda inp, rng: amlp_cov_forward(inp, cov_params(rng, 2, 4)),
            lambda inp, rng: amlp_cov_weights(inp, cov_params(rng, 2, 4)),
            lambda inp, rng: amlp_pquery_forward(inp, pquery_params(rng, 2, 4)),
            lambda inp, rng: causal_amlp_cov_step(
                causal_amlp_cov_init(5), inp.q, inp.k, inp.v, cov_params(rng, 2, 4)
            ),
        ],
        ids=["cov-forward", "cov-weights", "pquery", "causal"],
    )
    def test_every_mechanism_states_the_width_check_alike(self, call):
        rng = np.random.default_rng(32)
        with pytest.raises(DimensionError, match=r"^params are for width 4, inputs have width 5$"):
            call(rand_inputs(rng, 1, 1, 5), rng)

    def test_width_mismatch(self):
        params = cov_params(np.random.default_rng(31), 2, 4)
        with pytest.raises(DimensionError):
            causal_amlp_cov_step(
                causal_amlp_cov_init(5),
                Tensor(np.zeros((1, 5))),
                Tensor(np.zeros((1, 5))),
                Tensor(np.zeros((1, 5))),
                params,
            )


class TestMultiHead:
    def test_single_head_identity_collapse(self):
        rng = np.random.default_rng(32)
        x_t, x_s = rng.standard_normal((4, 6)), rng.standard_normal((5, 6))
        eye = Tensor(np.eye(6))
        out = multi_head_forward(
            Tensor(x_t), Tensor(x_s), MultiHeadParams("softmax", 1, eye, eye, eye, eye)
        )
        single = softmax_attention(AttentionInputs(Tensor(x_t), Tensor(x_s), Tensor(x_s)))
        np.testing.assert_array_equal(out.data, single.data)

    @pytest.mark.parametrize("mechanism", ["softmax", "cov", "pquery"])
    def test_output_shape(self, mechanism):
        rng = np.random.default_rng(33)
        d_model, h = 8, 2
        head_params = []
        if mechanism == "cov":
            head_params = [cov_params(rng, 2, 4) for _ in range(h)]
        elif mechanism == "pquery":
            head_params = [pquery_params(rng, 2, 4) for _ in range(h)]
        params = MultiHeadParams(
            mechanism,
            h,
            *(Tensor(rng.standard_normal((d_model, d_model)) * d_model**-0.5) for _ in range(4)),
            head_params=head_params,
        )
        out = multi_head_forward(
            Tensor(rng.standard_normal((5, d_model))), Tensor(rng.standard_normal((6, d_model))), params
        )
        assert out.shape == (5, d_model)

    def test_two_softmax_heads_match_manual_slices(self):
        rng = np.random.default_rng(34)
        d_model, h = 8, 2
        ws = [rng.standard_normal((d_model, d_model)) for _ in range(4)]
        x_t, x_s = rng.standard_normal((4, d_model)), rng.standard_normal((5, d_model))
        params = MultiHeadParams("softmax", h, *(Tensor(w) for w in ws))
        out = multi_head_forward(Tensor(x_t), Tensor(x_s), params)

        q, k, v = x_t @ ws[0], x_s @ ws[1], x_s @ ws[2]
        heads = []
        for i in range(h):
            sl = slice(i * 4, (i + 1) * 4)
            heads.append(
                softmax_attention(
                    AttentionInputs(Tensor(q[:, sl]), Tensor(k[:, sl]), Tensor(v[:, sl]))
                ).data
            )
        manual = np.concatenate(heads, axis=1) @ ws[3]
        np.testing.assert_allclose(out.data, manual, atol=1e-12)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    @pytest.mark.parametrize("layout", ["rank2-self", "rank3-self", "shared-target"])
    @pytest.mark.parametrize("rows", [6, 20], ids=["direct", "gram"])
    def test_cov_heads_match_manual_slices(self, sigma1, layout, rows):
        # 6 rows sit below 2 x d_model = 16 and 20 above, so both orders run
        rng = np.random.default_rng(34)
        d_model, h, dh = 8, 2, 4
        ws = [rng.standard_normal((d_model, d_model)) * d_model**-0.5 for _ in range(4)]
        head_params = [cov_params(rng, 3, dh, sigma1) for _ in range(h)]
        params = MultiHeadParams("cov", h, *(Tensor(w) for w in ws), head_params=head_params)
        if layout == "shared-target":
            x_t, x_s = rng.standard_normal((rows, d_model)), rng.standard_normal((3, rows + 1, d_model))
            out = multi_head_forward(Tensor(x_t), Tensor(x_s), params)
        else:
            x_t = x_s = rng.standard_normal((rows, d_model) if layout == "rank2-self" else (3, rows, d_model))
            x = Tensor(x_t)
            out = multi_head_forward(x, x, params)

        q, k, v = x_t @ ws[0], x_s @ ws[1], x_s @ ws[2]
        heads = []
        for i in range(h):
            sl = slice(i * dh, (i + 1) * dh)
            head_in = AttentionInputs(Tensor(q[..., sl]), Tensor(k[..., sl]), Tensor(v[..., sl]))
            heads.append(amlp_cov_forward(head_in, head_params[i]).data)
        manual = np.concatenate(heads, axis=-1) @ ws[3]
        np.testing.assert_allclose(out.data, manual, rtol=0, atol=1e-12 * np.abs(manual).max())

    @pytest.mark.parametrize(
        "d_model, rows_t, rows_s, order",
        [
            (32, 12, 12, "direct"),  # the toy model's shapes
            (8, 16, 16, "direct"),  # at the bound
            (8, 40, 16, "direct"),  # only one input past it
            (8, 17, 40, "gram"),
        ],
    )
    def test_cov_order_follows_input_rows(self, monkeypatch, d_model, rows_t, rows_s, order):
        calls = []
        per_head = attention.amlp_cov_forward
        monkeypatch.setattr(attention, "amlp_cov_forward", lambda *a: calls.append(1) or per_head(*a))
        rng = np.random.default_rng(36)
        h = 2
        params = MultiHeadParams(
            "cov",
            h,
            *(Tensor(rng.standard_normal((d_model, d_model)) * d_model**-0.5) for _ in range(4)),
            head_params=[cov_params(rng, 2, d_model // h) for _ in range(h)],
        )
        x_t, x_s = (Tensor(rng.standard_normal((r, d_model))) for r in (rows_t, rows_s))
        assert multi_head_forward(x_t, x_s, params).shape == (rows_t, d_model)
        # the direct order runs every head in one call over the head axis
        assert len(calls) == (1 if order == "direct" else 0)

    def test_gram_softmax_sigma1_normalizes_each_head(self):
        # 20 rows, over 2 x d_model = 16, take the Gram order, where one
        # (n, h c) product holds every head's pre-activation: the softmax must
        # run over each head's c columns, not over the whole row
        rng = np.random.default_rng(38)
        d_model, h, dh, c, rows = 8, 4, 2, 2, 20
        ws = [rng.standard_normal((d_model, d_model)) * d_model**-0.5 for _ in range(4)]
        head_params = [cov_params(rng, c, dh) for _ in range(h)]
        params = MultiHeadParams("cov", h, *(Tensor(w) for w in ws), head_params=head_params)
        x = rng.standard_normal((rows, d_model))
        out = multi_head_forward(Tensor(x), Tensor(x), params).data

        q, k, v = x @ ws[0], x @ ws[1], x @ ws[2]
        pre, merge = [], np.zeros((h * c, d_model))
        for j, hp in enumerate(head_params):
            sl = slice(j * dh, (j + 1) * dh)
            w_qk, w_qkv = amlp_cov_weights(
                AttentionInputs(Tensor(q[:, sl]), Tensor(k[:, sl]), Tensor(v[:, sl])), hp
            )
            pre.append(q[:, sl] @ w_qk.data)
            merge[j * c : (j + 1) * c, sl] = w_qkv.data
        per_head = np.concatenate([softmax_rows_oracle(p) for p in pre], axis=1) @ merge @ ws[3]
        whole_row = softmax_rows_oracle(np.concatenate(pre, axis=1)) @ merge @ ws[3]
        scale = np.abs(per_head).max()
        np.testing.assert_allclose(out, per_head, rtol=0, atol=1e-12 * scale)
        assert np.abs(out - whole_row).max() > 1e-3 * scale  # the check can tell them apart

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "batched"])
    def test_sigma1_softmax_over_heads_is_split_softmax_merge(self, lead):
        # _sigma1 and _sigma1_grad with heads=h, through a reshape view, against
        # split_heads, softmax and merge_heads on the tape: bit for bit
        rng = np.random.default_rng(41)
        h, c = 4, 3
        pre_val, probe = (rng.standard_normal((*lead, 7, h * c)) * 3.0 for _ in range(2))
        tape = Tape()
        pre = tape.leaf(pre_val)
        ref = merge_heads(softmax(split_heads(pre, h)))
        backward(tape, sum_all(mul(ref, Tensor(probe))))
        y = attention._sigma1("softmax", pre_val.copy(), heads=h)
        assert np.array_equal(y, ref.data)
        assert np.array_equal(attention._sigma1_grad("softmax", y, probe, heads=h), pre.grad.data)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_gram_layer_node_count(self, sigma1):
        # 9 leaves (x, W_q, W_k, W_v, W_o and two heads' c_q, c_k) and 32
        # ops, whatever sigma1: the tail sigma1(x A) B is one node
        rng = np.random.default_rng(42)
        d_model, h, rows = 4, 2, 10
        tape = Tape()
        x = tape.leaf(rng.standard_normal((rows, d_model)))
        ws = [tape.leaf(rng.standard_normal((d_model, d_model))) for _ in range(4)]
        heads = [
            AmlpCovParams(tape.leaf(np.eye(2)), tape.leaf(np.eye(2)), sigma1) for _ in range(h)
        ]
        multi_head_forward(x, x, MultiHeadParams("cov", h, *ws, head_params=heads))
        assert len(tape) == 41

    @pytest.mark.parametrize(
        "mechanism, make_heads",
        [
            ("cov", lambda rng: [cov_params(rng, 2, 4), cov_params(rng, 3, 4)]),
            ("cov", lambda rng: [cov_params(rng, 2, 4), cov_params(rng, 2, 4, "relu")]),
            ("pquery", lambda rng: [pquery_params(rng, 2, 4), pquery_params(rng, 2, 4, beta=0.25)]),
        ],
        ids=["c", "sigma1", "beta"],
    )
    def test_heads_must_share_c_sigma1_and_beta(self, mechanism, make_heads):
        eye = Tensor(np.eye(8))
        heads = make_heads(np.random.default_rng(39))
        with pytest.raises(ConfigError, match="share c, sigma1 and beta"):
            MultiHeadParams(mechanism, 2, eye, eye, eye, eye, head_params=heads)

    def test_indivisible_heads_rejected(self):
        eye = Tensor(np.eye(6))
        with pytest.raises(ConfigError):
            MultiHeadParams("softmax", 4, eye, eye, eye, eye)


class TestGramTail:
    """The sigma1 tail sigma1(x A) B: one node over row blocks, recomputed in its backward."""

    ROWS = 2 * attention._TAIL_ROWS + 7  # two full blocks and a short one

    @staticmethod
    def layer(rng, sigma1, d_model=4, h=2):
        ws = [Tensor(rng.standard_normal((d_model, d_model)) * d_model**-0.5) for _ in range(4)]
        heads = [cov_params(rng, 2, d_model // h, sigma1) for _ in range(h)]
        return MultiHeadParams("cov", h, *ws, head_params=heads)

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    @pytest.mark.parametrize("layout", ["rank2-self", "rank3-self", "shared-target"])
    def test_blocked_matches_composed_tail(self, monkeypatch, sigma1, layout):
        rng = np.random.default_rng(45)
        d_model, h, n = 4, 2, self.ROWS
        x_t = rng.standard_normal((2, n, d_model) if layout == "rank3-self" else (n, d_model))
        x_s = rng.standard_normal((3, n + 1, d_model)) if layout == "shared-target" else None
        arrays = [rng.standard_normal((d_model, d_model)) * d_model**-0.5 for _ in range(4)]
        arrays += [rng.standard_normal((2, d_model // h)) for _ in range(2 * h)]
        lead = x_t.shape[:-2] if x_s is None else x_s.shape[:-2]
        probe = Tensor(rng.standard_normal((*lead, n, d_model)))

        def run():
            tape = Tape()
            x = tape.leaf(x_t)
            src = x if x_s is None else tape.leaf(x_s)
            leaves = [x] + ([src] if x_s is not None else []) + [tape.leaf(a) for a in arrays]
            ws, cqk = leaves[-8:-4], leaves[-4:]
            hps = [AmlpCovParams(cq, ck, sigma1) for cq, ck in zip(cqk[::2], cqk[1::2])]
            out = multi_head_forward(x, src, MultiHeadParams("cov", h, *ws, head_params=hps))
            backward(tape, sum_all(mul(out, probe)))
            return out.data, [leaf.grad.data for leaf in leaves]

        out, grads = run()
        monkeypatch.setattr(attention, "_sigma1_tail", composed_tail)
        ref_out, ref_grads = run()
        assert out.shape == ref_out.shape
        assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
        for g, ref in zip(grads, ref_grads):
            assert g.shape == ref.shape
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("sigma1", ["softmax", "relu", "identity"])
    def test_pquery_blocked_matches_composed_tail(self, monkeypatch, sigma1):
        # pquery's one-head tail over a rank-3 query of two full blocks and a
        # short one, against the composed tail over all rows at once
        rng = np.random.default_rng(47)
        arrays = [rng.standard_normal(s) for s in ((2, self.ROWS, 4), (2, 5, 4), (2, 5, 4))]
        arrays += [rng.standard_normal(s) * 0.5 for s in ((2, 4), (2, 4), (8, 4))]
        probe = Tensor(rng.standard_normal((2, self.ROWS, 4)))

        def run():
            tape = Tape()
            q, k, v, cq, ck, w = leaves = [tape.leaf(a) for a in arrays]
            out = amlp_pquery_forward(AttentionInputs(q, k, v), AmlpPQueryParams(cq, ck, w, sigma1=sigma1))
            backward(tape, sum_all(mul(out, probe)))
            return out.data, [leaf.grad.data for leaf in leaves]

        out, grads = run()
        monkeypatch.setattr(attention, "_sigma1_tail", composed_tail)
        ref_out, ref_grads = run()
        assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_finite_differences_across_blocks(self):
        # x = z P, so P's gradient carries x's from every block; the layer's
        # weights carry A's and B's, which the backward sums over the blocks
        rng = np.random.default_rng(46)
        d_model, h = 4, 2
        z = Tensor(rng.standard_normal((self.ROWS, d_model)))
        probe = Tensor(rng.standard_normal((self.ROWS, d_model)))
        params = self.layer(rng, "softmax")
        proj = Tensor(np.eye(d_model) + 0.1 * rng.standard_normal((d_model, d_model)))
        cqk = [t for hp in params.head_params for t in (hp.c_q, hp.c_k)]

        def f(p, wq, wk, wv, wo, *cqk):
            hps = [AmlpCovParams(cq, ck, "softmax") for cq, ck in zip(cqk[::2], cqk[1::2])]
            x = matmul(z, p)
            out = multi_head_forward(x, x, MultiHeadParams("cov", h, wq, wk, wv, wo, head_params=hps))
            return sum_all(mul(out, probe))

        leaves = [proj, params.w_q, params.w_k, params.w_v, params.w_o, *cqk]
        reports = finite_difference_check(f, leaves, h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports), [(r.index, r.max_rel_err) for r in reports]

    def long_forward(self, forward, sigma1, rng):
        """A forward over rows of query at d 4 whose every other input is short."""
        if forward == "gram":
            params = self.layer(rng, sigma1)
            return lambda x: multi_head_forward(x, x, params)
        # the query is the only long input, and v is 32 wide, so the output
        # outweighs the weights' n x 4 smoothed queries and their 2 x n
        # position softmaxes, and the peak beyond the output is the tail's
        k = Tensor(rng.standard_normal((2, 9, 4)))
        params = pquery_params(rng, 2, 4, sigma1=sigma1)
        v = Tensor(rng.standard_normal((2, 9, 32)))
        return lambda q: amlp_pquery_forward(AttentionInputs(q, k, v), params)

    CASES = [(f, s) for f in ("gram", "pquery") for s in ("identity", "relu", "softmax")]

    @pytest.mark.parametrize(
        "forward, sigma1", CASES, ids=[s if f == "gram" else f"{f}-{s}" for f, s in CASES]
    )
    def test_forward_peak_beyond_output_does_not_grow_with_rows(self, forward, sigma1):
        # a slope, free of the hardware: the forward's traced peak less its
        # output, at 4 and at 16 blocks of rows, for the Gram order's layer
        # and for pquery over a long rank-3 query.  4 KiB of slack is under a
        # twentieth of one float64 column over the 12 added blocks
        rng = np.random.default_rng(44)
        run = self.long_forward(forward, sigma1, rng)
        extra = []
        for blocks in (4, 16):
            rows = blocks * attention._TAIL_ROWS
            x = Tensor(rng.standard_normal((rows, 4) if forward == "gram" else (2, rows, 4)))
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                out = run(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - out.data.nbytes)
        assert extra[1] <= extra[0] + 4096, extra


class TestBatchAxis:
    """A leading batch axis passes through: each entry equals its own unbatched forward."""

    @pytest.mark.parametrize("mechanism", ["softmax", "cov", "pquery"])
    @pytest.mark.parametrize("shared_target", [False, True], ids=["batched", "shared"])
    def test_multi_head_matches_per_sample(self, mechanism, shared_target):
        rng = np.random.default_rng(35)
        d_model, h, batch = 8, 2, 3
        head_params = []
        if mechanism == "cov":
            head_params = [cov_params(rng, 2, 4) for _ in range(h)]
        elif mechanism == "pquery":
            head_params = [pquery_params(rng, 2, 4) for _ in range(h)]
        params = MultiHeadParams(
            mechanism,
            h,
            *(Tensor(rng.standard_normal((d_model, d_model)) * d_model**-0.5) for _ in range(4)),
            head_params=head_params,
        )
        # 5 and 6 rows run cov's direct order, 20 and 21 (over 2 x d_model) its Gram order
        for rows in (5, 20):
            x_t = rng.standard_normal((rows, d_model) if shared_target else (batch, rows, d_model))
            x_s = rng.standard_normal((batch, rows + 1, d_model))
            out = multi_head_forward(Tensor(x_t), Tensor(x_s), params)
            assert out.shape == (batch, rows, d_model)
            for b in range(batch):
                alone = multi_head_forward(Tensor(x_t if shared_target else x_t[b]), Tensor(x_s[b]), params)
                np.testing.assert_allclose(out.data[b], alone.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mechanism", ["softmax", "cov", "pquery"])
    def test_head_axis_matches_per_head_calls(self, mechanism):
        # (B, h, m, d) keys and values, an (h, n, d) query block shared by the
        # batch, parameters stacked to (h, ...): entry (b, j) is head j's own
        # call on source b
        rng = np.random.default_rng(40)
        batch, h, n, m, d = 2, 3, 4, 5, 4
        q = rng.standard_normal((h, n, d))
        k, v = (rng.standard_normal((batch, h, m, d)) for _ in range(2))
        heads = []
        if mechanism == "cov":
            heads = [cov_params(rng, 2, d) for _ in range(h)]
        elif mechanism == "pquery":
            heads = [pquery_params(rng, 2, d) for _ in range(h)]

        def run(inputs, params):
            if mechanism == "softmax":
                return softmax_attention(inputs)
            fwd = amlp_cov_forward if mechanism == "cov" else amlp_pquery_forward
            return fwd(inputs, params)

        names = ("c_q", "c_k", "w") if mechanism == "pquery" else ("c_q", "c_k")
        stacked = heads and dataclasses.replace(
            heads[0], **{f: Tensor(np.stack([getattr(hp, f).data for hp in heads])) for f in names}
        )
        out = run(AttentionInputs(Tensor(q), Tensor(k), Tensor(v)), stacked).data
        assert out.shape == (batch, h, n, d)
        for b in range(batch):
            for j in range(h):
                inputs = AttentionInputs(Tensor(q[j]), Tensor(k[b, j]), Tensor(v[b, j]))
                alone = run(inputs, heads[j] if heads else None).data
                np.testing.assert_allclose(out[b, j], alone, rtol=0, atol=1e-12)

    def test_mismatched_batch_extents_rejected(self):
        with pytest.raises(DimensionError):
            AttentionInputs(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 5, 4))), Tensor(np.zeros((3, 5, 4))))

    def test_mismatched_head_extents_rejected(self):
        with pytest.raises(DimensionError):
            AttentionInputs(*(Tensor(np.zeros(s)) for s in ((2, 3, 3, 4), (2, 2, 5, 4), (2, 2, 5, 4))))


class TestModuleGradients:
    """Finite-difference checks for the remaining differentiable forwards."""

    def test_softmax_attention(self):
        rng = np.random.default_rng(35)
        q, k, v = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        probe = Tensor(rng.standard_normal((4, 4)))

        def f(qv, kv, vv):
            return sum_all(mul(softmax_attention(AttentionInputs(qv, kv, vv)), probe))

        reports = finite_difference_check(f, [q, k, v], h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports)
        assert max(r.max_rel_err for r in reports) < 1e-5

    def test_sum_of_softmax_attention(self):
        rng = np.random.default_rng(36)
        q, k, v = (Tensor(rng.standard_normal((4, 8))) for _ in range(3))

        def f(qv, kv, vv):
            return sum_all(softmax_attention(AttentionInputs(qv, kv, vv)))

        reports = finite_difference_check(f, [q, k, v], h=1e-4, tol=1e-5)
        assert all(r.passed for r in reports)

    def test_sum_of_cov_forward(self):
        rng = np.random.default_rng(37)
        d = 6
        q, k, v = (Tensor(rng.standard_normal((s, d)) * d**-0.5) for s in (4, 5, 5))
        params = cov_params(rng, 2, d)

        def f(cq, ck, qv, kv):
            return sum_all(amlp_cov_forward(AttentionInputs(qv, kv, v), AmlpCovParams(cq, ck)))

        reports = finite_difference_check(
            f, [params.c_q, params.c_k, q, k], h=1e-4, tol=1e-5
        )
        assert all(r.passed for r in reports), [(r.index, r.max_rel_err) for r in reports]

    def test_cov_value_gradient(self):
        # summing all outputs feeds a row-constant gradient into the
        # row-normalized cross term, whose softmax backward is then exactly
        # zero: d(sum)/dV vanishes identically.  A probing functional breaks
        # that row constancy and must agree with finite differences.
        rng = np.random.default_rng(37)
        d = 6
        q, k, v = (Tensor(rng.standard_normal((s, d)) * d**-0.5) for s in (4, 5, 5))
        params = cov_params(rng, 2, d)
        probe = Tensor(rng.standard_normal((4, d)))

        tape = Tape()
        vv = tape.leaf(v)
        out = amlp_cov_forward(AttentionInputs(q, k, vv), params)
        backward(tape, sum_all(out))
        assert np.abs(vv.grad.data).max() < 1e-15

        def f(cq, ck, value):
            out = amlp_cov_forward(AttentionInputs(q, k, value), AmlpCovParams(cq, ck))
            return sum_all(mul(out, probe))

        reports = finite_difference_check(f, [params.c_q, params.c_k, v], h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports), [(r.index, r.max_rel_err) for r in reports]

    def test_mlp(self):
        rng = np.random.default_rng(38)
        x = Tensor(rng.standard_normal((4, 5)))
        w1 = Tensor(rng.standard_normal((5, 6)))
        w2 = Tensor(rng.standard_normal((6, 5)))
        probe = Tensor(rng.standard_normal((4, 5)))

        def f(xv, a, b):
            return sum_all(mul(mlp_forward(xv, a, b), probe))

        reports = finite_difference_check(f, [x, w1, w2], h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports)

    def test_distance_attention(self):
        rng = np.random.default_rng(39)
        d = 4
        b = rng.standard_normal((d, d))
        sigma = Tensor(b @ b.T)
        q, k, v = (Tensor(rng.standard_normal((s, d)) * d**-0.5) for s in (4, 5, 5))
        probe = Tensor(rng.standard_normal((4, d)))

        def f(qv, kv, vv):
            return sum_all(mul(distance_attention(AttentionInputs(qv, kv, vv), sigma), probe))

        reports = finite_difference_check(f, [q, k, v], h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "mechanism, rows, sigma1",
        [
            ("softmax", 3, "softmax"),
            ("cov", 3, "softmax"),
            ("pquery", 3, "softmax"),
            ("cov", 10, "softmax"),
            ("cov", 10, "relu"),
            ("cov", 10, "identity"),
        ],
        ids=["softmax", "cov", "pquery", "cov-gram", "cov-gram-relu", "cov-gram-identity"],
    )
    def test_multi_head(self, mechanism, rows, sigma1):
        # 10 rows are over 2 x d_model = 8, where cov takes its Gram order
        rng = np.random.default_rng(40)
        d_model, h, dh = 4, 2, 2
        x_t = Tensor(rng.standard_normal((rows, d_model)) * d_model**-0.5)
        x_s = Tensor(rng.standard_normal((rows + 1, d_model)) * d_model**-0.5)
        probe = Tensor(rng.standard_normal((rows, d_model)))
        projs = [Tensor(rng.standard_normal((d_model, d_model)) * d_model**-0.5) for _ in range(4)]
        heads = []
        if mechanism == "cov":
            heads = [cov_params(rng, 2, dh) for _ in range(h)]
        elif mechanism == "pquery":
            heads = [pquery_params(rng, 2, dh) for _ in range(h)]
        # cov heads' projections are differentiated too
        head_leaves = [t for hp in heads if mechanism == "cov" for t in (hp.c_q, hp.c_k)]

        def f(wq, wk, wv, wo, *cqk):
            hps = [AmlpCovParams(cq, ck, sigma1) for cq, ck in zip(cqk[::2], cqk[1::2])] or heads
            params = MultiHeadParams(mechanism, h, wq, wk, wv, wo, head_params=hps)
            return sum_all(mul(multi_head_forward(x_t, x_s, params), probe))

        reports = finite_difference_check(f, projs + head_leaves, h=1e-4, tol=1e-4)
        assert all(r.passed for r in reports), [(r.index, r.max_rel_err) for r in reports]
