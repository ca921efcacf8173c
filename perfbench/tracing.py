"""Span tracing of the library's layers from outside its source.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
references each layer holds to the layer below with timing wrappers:

* every function ``narmodel`` imported from ``attention`` and ``tensor``;
* every function ``attention`` imported from ``tensor``;
* the entry points the benchmark calls (``NarModel.train_step``,
  ``narmodel.evaluate``, ``attention.multi_head_forward``,
  ``attention.causal_amlp_cov_step``) and the covariance forward and weight
  map that ``multi_head_forward`` reaches through ``attention``'s own globals;
* ``gc.callbacks``, which turns each collection into a ``gc`` span.

Each span records its name, start, end, parent span and op id; spans stay in
memory until ``write_spans`` (those of the first ``Tracer.SPANS_KEPT_OPS`` ops,
which bounds the memory a long traced run takes).  Self time is a span's duration minus the time
its direct children cover.  Leaving the block restores every attribute it
replaced and removes the gc callback.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import inspect
import time
from collections import defaultdict

from attentive_mlp import attention, narmodel, tensor

_LAYER_OF_MODULE = {tensor.__name__: "tensor", attention.__name__: "attention", narmodel.__name__: "narmodel"}

# Entry points and intra-layer references traced besides the cross-layer imports.
_OWN_REFERENCES = [
    (narmodel.NarModel, "train_step", "narmodel.train_step"),
    (narmodel, "evaluate", "narmodel.evaluate"),
    (attention, "multi_head_forward", "attention.multi_head_forward"),
    (attention, "amlp_cov_forward", "attention.amlp_cov_forward"),
    (attention, "amlp_cov_weights", "attention.amlp_cov_weights"),
    (attention, "causal_amlp_cov_step", "attention.causal_amlp_cov_step"),
]


def _imported_references(owner, lower_modules):
    """(owner, name, span) for each plain function ``owner`` imported from ``lower_modules``."""
    lower = {m.__name__ for m in lower_modules}
    return [
        (owner, name, f"{_LAYER_OF_MODULE[fn.__module__]}.{fn.__name__}")
        for name, fn in sorted(vars(owner).items())
        if inspect.isfunction(fn) and fn.__module__ in lower
    ]


def traced_references():
    """Every (owner, attribute, span name) the tracer wraps."""
    return (
        _imported_references(narmodel, [attention, tensor])
        + _imported_references(attention, [tensor])
        + _OWN_REFERENCES
    )


# Multiply-accumulates of the attention-layer calls, from the matmul terms of
# the covariance variant's cost: (n + 2m) d^2 for the three second-moment
# summaries, 3 c d^2 for the two projections and the weight map, 2 n c d for
# the hidden and output products.  Projections and the MLP count their own
# products; the causal step pays the summaries' 3 d^2 outer products plus
# the full weight-map cost every token.
def _macs_multi_head(args):
    x_target, x_source, params = args[:3]
    n, m, dm = x_target.shape[0], x_source.shape[0], params.d_model
    return 2 * n * dm * dm + 2 * m * dm * dm


def _macs_cov_forward(args):
    inputs, params = args[:2]
    n, m, d, c = inputs.n, inputs.m, inputs.d, params.c
    return (n + 2 * m) * d * d + 3 * c * d * d + 2 * n * c * d


def _macs_mlp(args):
    x, w1 = args[:2]
    return 2 * x.shape[0] * w1.shape[0] * w1.shape[1]


def _macs_causal_step(args):
    params = args[4]
    d, c = params.d, params.c
    return 3 * d * d + 3 * c * d * d + 2 * c * d


_MACS = {
    "attention.multi_head_forward": _macs_multi_head,
    "attention.amlp_cov_forward": _macs_cov_forward,
    "attention.mlp_forward": _macs_mlp,
    "attention.causal_amlp_cov_step": _macs_causal_step,
}


COUNTERS = ("tensor.calls", "tensor.nodes", "tensor.bytes", "attention.macs", "attention.outer_ns", "gc.gen2")


class Tracer:
    """Span recorder with per-name self-time totals and per-layer counters.

    Spans of the first ``SPANS_KEPT_OPS`` ops are kept for ``write_spans``;
    self times and counters cover every op.
    """

    SPANS_KEPT_OPS = 20

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1, op id)
        self._stack: list = []  # open spans, each [span index or -1, name, start_ns, child_ns]
        self.self_ns: defaultdict = defaultdict(int)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1
        self.ops = 0
        self._keep = False

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        index = -1
        if self._keep:
            index = len(self.spans)
            self.spans.append((name, 0, 0, self._stack[-1][0] if self._stack else -1, self.op_id))
        frame = [index, name, 0, 0]
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        index, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3], self.op_id)
        if self._stack:
            self._stack[-1][3] += duration

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; everything the op calls nests under it."""
        self.op_id = op_id
        self._keep = op_id < self.SPANS_KEPT_OPS
        self._enter("op")
        try:
            yield
        finally:
            self._exit()
            self.ops += 1

    def _wrap(self, fn, name: str):
        # _enter/_exit inlined: the tensor wrappers run thousands of times per op
        tracer, spans, stack, self_ns, counters = self, self.spans, self._stack, self.self_ns, self.counters
        clock = time.perf_counter_ns
        layer = name.split(".", 1)[0]
        is_backward = name == "tensor.backward"
        macs = _MACS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if tracer._keep:
                index = len(spans)
                spans.append(None)
            frame = [index, name, 0, 0]
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[3]
                if index >= 0:
                    spans[index] = (name, start, end, parent[0] if parent else -1, tracer.op_id)
                if parent is not None:
                    parent[3] += duration
            if layer == "tensor":
                counters["tensor.calls"] += 1
                if is_backward:
                    counters["tensor.nodes"] += len(args[0])
                elif type(result) is tensor.Var:
                    counters["tensor.bytes"] += result.tensor.data.nbytes
                elif type(result) is tensor.Tensor:
                    counters["tensor.bytes"] += result.data.nbytes
            elif layer == "attention":
                if macs is not None:
                    counters["attention.macs"] += macs(args)
                if parent is None or not parent[1].startswith("attention."):
                    counters["attention.outer_ns"] += duration
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.counters["gc.gen2"] += info["generation"] == 2
            self._enter("gc")
        else:
            self._exit()

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced reference and the gc callback; restore all on exit."""
        saved = []
        try:
            for owner, attr, span in traced_references():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_ns", "end_ns", "parent", "op_id"])
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                out.writerow([i, name, start, end, parent, op_id])
