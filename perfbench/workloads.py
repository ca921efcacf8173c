"""The benchmark's workloads: seeded inputs, the timed op and the check of its output.

Each workload is a closed loop with one client.  The constructor is the
set-up (build the model or operands from the seed); ``next_input`` prepares
the next op's input outside the timed region; ``op`` is the timed call into
the library; ``check`` raises ``CheckFailed`` when the output is wrong.
``expect`` computes the reference values ``check`` compares against, once,
outside both set-up and the timed region.

The library is reached only through module attributes looked up at call time
(``narmodel.evaluate``, ``attention.multi_head_forward``, ...), so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from attentive_mlp import attention, narmodel, tensor

import reference

SPEC = json.loads(pathlib.Path(__file__).with_name("workloads.json").read_text())

# Tolerances, each stated against the value it bounds.
TRAIN_LOSS_RTOL = 1e-10  # |loss - numpy loss| <= rtol * max(1, |numpy loss|)
LONG_ATTN_RTOL = 1e-9  # max |out - numpy out| <= rtol * max |numpy out|
CAUSAL_ATOL = 1e-10  # max |step row - prefix forward row|, as causal_prefix_equivalence


class CheckFailed(Exception):
    """An op returned an output that disagrees with its reference."""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _toy_config(seed: int, sizes: dict):
    return narmodel.NarConfig(
        vocab_size=sizes["vocab"],
        seq_len=sizes["seq_len"],
        source_len=sizes["seq_len"],
        d_model=sizes["d_model"],
        heads=sizes["heads"],
        c=sizes["c"],
        variant=sizes["variant"],
        seed=seed,
    )


class Workload:
    """Interface of a workload; the defaults serve workloads whose op takes no input."""

    tokens_per_op: int

    def next_input(self):
        return None

    def expect(self) -> None:
        pass

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError

    def digest(self, out) -> str:
        """Short fingerprint of an output, to compare traced and untraced runs."""
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """Short fingerprint of the inputs the seed generates."""
        raise NotImplementedError


class ToyTrain(Workload):
    """Repeated SGD steps on batches of reverse pairs drawn from the benchmark's own stream."""

    def __init__(self, seed: int, sizes: dict):
        self.config = _toy_config(seed, sizes)
        self.model = narmodel.NarModel(self.config)
        self.batch = sizes["batch"]
        self.tokens_per_op = self.batch * self.config.seq_len
        self._seed = seed
        self._rng = np.random.default_rng([seed, 0])

    def next_input(self):
        sources = self._rng.integers(0, self.config.vocab_size, (self.batch, self.config.seq_len))
        pairs = [(s, s[::-1].copy()) for s in sources]
        # train_step rebinds every entry rather than writing in place, so a
        # shallow copy keeps the pre-update parameters
        return pairs, dict(self.model.params)

    def op(self, inp):
        return self.model.train_step(inp[0])

    def check(self, inp, out):
        pairs, params = inp
        ref = reference.batch_loss(params, self.config.heads, self.config.sigma1, pairs)
        if not abs(out - ref) <= TRAIN_LOSS_RTOL * max(1.0, abs(ref)):
            raise CheckFailed(f"train loss {out!r} != numpy reference {ref!r}")

    def digest(self, out) -> str:
        return repr(out)

    def inputs_digest(self) -> str:
        first = np.random.default_rng([self._seed, 0]).integers(
            0, self.config.vocab_size, (self.batch, self.config.seq_len)
        )
        return _digest(first, *narmodel.NarModel(self.config).params.values())


class ToyDecode(Workload):
    """Repeated accuracy evaluation of an untrained model on the seeded eval split."""

    def __init__(self, seed: int, sizes: dict):
        self.config = _toy_config(seed, sizes)
        self.model = narmodel.NarModel(self.config)
        self.task = narmodel.SyntheticTask("reverse", self.config.vocab_size, self.config.seq_len, seed=seed)
        self.samples = sizes["eval_samples"]
        self.tokens_per_op = self.samples * self.config.seq_len
        self.expected = None

    def op(self, inp):
        return narmodel.evaluate(self.model, self.task, self.samples)

    def eval_pairs(self):
        # the eval split restated: one rng seeded [task seed, 1], reverse targets
        rng = np.random.default_rng([self.task.seed, 1])
        sources = rng.integers(0, self.config.vocab_size, size=(self.samples, self.config.seq_len))
        return [(s, s[::-1]) for s in sources]

    def expect(self):
        hits = 0
        for source, target in self.eval_pairs():
            logits = reference.nar_logits(self.model.params, self.config.heads, self.config.sigma1, source)
            hits += int((np.argmax(logits, axis=1) == target).sum())
        self.expected = hits / (self.samples * self.config.seq_len)

    def check(self, inp, out):
        if out != self.expected:
            raise CheckFailed(f"accuracy {out!r} != numpy reference {self.expected!r}")

    def digest(self, out) -> str:
        return repr(out)

    def inputs_digest(self) -> str:
        return _digest(*(s for s, _ in self.eval_pairs()), *self.model.params.values())


class LongAttn(Workload):
    """Repeated multi-head covariance self-attention over one long sequence."""

    def __init__(self, seed: int, sizes: dict):
        n, dm, heads, c = sizes["n"], sizes["d_model"], sizes["heads"], sizes["c"]
        dh = dm // heads
        rng = np.random.default_rng([seed, 2])
        self.x = tensor.Tensor(rng.standard_normal((n, dm)))
        self._w = [rng.standard_normal((dm, dm)) * dm**-0.5 for _ in range(4)]
        self._cq = [rng.standard_normal((c, dh)) * dh**-0.5 for _ in range(heads)]
        self._ck = [rng.standard_normal((c, dh)) * dh**-0.5 for _ in range(heads)]
        self.sigma1 = sizes["sigma1"]
        self._scale = None
        self.params = attention.MultiHeadParams(
            mechanism="cov",
            heads=heads,
            w_q=tensor.Tensor(self._w[0]),
            w_k=tensor.Tensor(self._w[1]),
            w_v=tensor.Tensor(self._w[2]),
            w_o=tensor.Tensor(self._w[3]),
            head_params=[
                attention.AmlpCovParams(tensor.Tensor(cq), tensor.Tensor(ck), sigma1=self.sigma1)
                for cq, ck in zip(self._cq, self._ck)
            ],
        )
        self.tokens_per_op = n
        self.expected = None

    def op(self, inp):
        return attention.multi_head_forward(self.x, self.x, self.params)

    def expect(self):
        self.expected = reference.multi_head_cov(self.x.data, self.x.data, *self._w, self._cq, self._ck, self.sigma1)
        self._scale = float(np.abs(self.expected).max())

    def check(self, inp, out):
        err = float(np.abs(out.data - self.expected).max())
        if not err <= LONG_ATTN_RTOL * self._scale:
            raise CheckFailed(f"long-attn max abs err {err:.3e} > {LONG_ATTN_RTOL:g} x {self._scale:.3e}")

    def digest(self, out) -> str:
        return _digest(out.data)

    def inputs_digest(self) -> str:
        return _digest(self.x.data, *self._w, *self._cq, *self._ck)


class CausalDecode(Workload):
    """One whole sequence streamed token by token through the causal covariance step."""

    CHECKED_POSITIONS = 8

    def __init__(self, seed: int, sizes: dict):
        t, d, c = sizes["tokens"], sizes["d"], sizes["c"]
        rng = np.random.default_rng([seed, 3])
        self._qkv = [rng.standard_normal((t, d)) for _ in range(3)]
        self.params = attention.AmlpCovParams(
            tensor.Tensor(rng.standard_normal((c, d)) * d**-0.5),
            tensor.Tensor(rng.standard_normal((c, d)) * d**-0.5),
            sigma1=sizes["sigma1"],
        )
        q, k, v = self._qkv
        self.rows = [
            (tensor.Tensor(q[i : i + 1]), tensor.Tensor(k[i : i + 1]), tensor.Tensor(v[i : i + 1]))
            for i in range(t)
        ]
        self.d = d
        self.tokens_per_op = t
        # the last position always, the rest drawn from the seed
        picks = rng.choice(np.arange(1, t), size=min(self.CHECKED_POSITIONS, t) - 1, replace=False)
        self.positions = sorted({t, *(int(p) for p in picks)})
        self.expected = None

    def op(self, inp):
        state = attention.causal_amlp_cov_init(self.d)
        outs = []
        for q_t, k_t, v_t in self.rows:
            out, state = attention.causal_amlp_cov_step(state, q_t, k_t, v_t, self.params)
            outs.append(out)
        return outs

    def expect(self):
        q, k, v = self._qkv
        self.expected = {
            t: attention.amlp_cov_forward(
                attention.AttentionInputs(tensor.Tensor(q[:t]), tensor.Tensor(k[:t]), tensor.Tensor(v[:t])),
                self.params,
            ).data[t - 1]
            for t in self.positions
        }

    def check(self, inp, out):
        if len(out) != self.tokens_per_op:
            raise CheckFailed(f"{len(out)} output rows for {self.tokens_per_op} tokens")
        for t, ref in self.expected.items():
            err = float(np.abs(out[t - 1].data[0] - ref).max())
            if not err <= CAUSAL_ATOL:
                raise CheckFailed(f"causal row {t}: max abs err {err:.3e} > {CAUSAL_ATOL:g}")

    def digest(self, out) -> str:
        return _digest(*(o.data for o in out))

    def inputs_digest(self) -> str:
        return _digest(*self._qkv, self.params.c_q.data, self.params.c_k.data)


WORKLOADS = {
    "toy-train": ToyTrain,
    "toy-decode": ToyDecode,
    "long-attn": LongAttn,
    "causal-decode": CausalDecode,
}


def build(name: str, seed: int, sizes: dict | None = None):
    """Set up one workload from its seed; ``sizes`` defaults to the recorded ones."""
    return WORKLOADS[name](seed, SPEC[name]["sizes"] if sizes is None else sizes)
