"""Toy parallel-decoding encoder-decoder on synthetic copy/reverse tasks.

One encoder block and one decoder block around the configurable attention
mechanism.  The decoder is driven purely by learned position embeddings, so
every target position is produced in a single forward pass and ground-truth
targets only ever enter through the loss.

``train`` is the one training loop: it draws batches from the task's training
stream and takes SGD steps, and a per-step ``on_step(step, loss)`` hook does
any logging, probing or early stopping a caller needs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .attention import (
    AmlpCovParams,
    AmlpPQueryParams,
    ConfigError,
    MultiHeadParams,
    _check_sigma1,
    mlp_forward,
    multi_head_forward,
)
from .tensor import (
    ContractError,
    Tape,
    Tensor,
    add,
    add_bias,
    backward,
    cross_entropy,
    gather_rows,
    layer_norm,
    matmul,
)

__all__ = [
    "InputError",
    "NarConfig",
    "NarModel",
    "SyntheticTask",
    "evaluate",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

VARIANTS = ("cov", "pquery", "softmax")
TASK_KINDS = ("copy", "reverse")
SPLITS = ("train", "eval")  # the seeded streams of a SyntheticTask
# the toy task and evaluation size the CLI and the inner-dimension sweep default to
DEFAULT_TASK = "reverse"
DEFAULT_EVAL_SAMPLES = 256

# sources decoded per forward by `evaluate`; bounds its activation memory
EVAL_BATCH = 1024

CHECKPOINT_MAGIC = "attentive-mlp-checkpoint"
CHECKPOINT_VERSION = 1


class InputError(ValueError):
    """Model input (token ids, sequence length) is malformed."""


def _ragged_row(rows, length: int) -> str:
    """Name the first of ``rows`` that is not ``length`` tokens long."""
    for i, row in enumerate(rows):
        try:
            shape = np.shape(row)
        except ValueError:  # the row is ragged itself
            return f"row {i} is ragged"
        if shape != (length,):
            return f"row {i} has shape {shape}"
    return "the rows do not stack"


def _check_seed(seed: int) -> None:
    # numpy's generators take only non-negative seeds
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class NarConfig:
    vocab_size: int = 16
    seq_len: int = 12
    source_len: int = 12
    d_model: int = 32
    heads: int = 2
    c: int = 8
    variant: str = "cov"
    sigma1: str = "softmax"
    beta: float = 0.5
    learning_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(f"heads={self.heads} must divide d_model={self.d_model}")
        if not (1 <= self.c <= self.d_model // self.heads):
            raise ConfigError(f"need 1 <= c <= d_model/heads, got c={self.c}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        _check_sigma1(self.sigma1)
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        for name in ("vocab_size", "seq_len", "source_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SyntheticTask:
    """Deterministic source-to-target mapping with a seeded sampler.

    kind "copy" maps a sequence to itself, "reverse" to its mirror image.
    Sampling is reproducible per (seed, split): the same call returns the
    same pairs, and train/eval splits never overlap streams.
    """

    kind: str
    vocab: int
    length: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"task kind must be one of {TASK_KINDS}, got {self.kind!r}")
        for name in ("vocab", "length"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        _check_seed(self.seed)

    def _rng(self, split: str, count: int, *stream) -> np.random.Generator:
        """The rng of one split's draws of ``count`` pairs; bad arguments raise here, at the call."""
        if count < 1:
            raise ContractError(f"count must be >= 1, got {count}")
        if split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")
        return np.random.default_rng([self.seed, SPLITS.index(split), *stream])

    def _pairs(self, rng: np.random.Generator, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
        sources = rng.integers(0, self.vocab, size=(count, self.length))
        return [(s.copy(), s.copy() if self.kind == "copy" else s[::-1].copy()) for s in sources]

    def sample(self, count: int, split: str = "eval") -> list[tuple[np.ndarray, np.ndarray]]:
        """A fixed, reproducible set of (source, target) pairs."""
        return self._pairs(self._rng(split, count), count)

    def stream(self, batch_size: int, split: str = "train"):
        """Endless fresh batches from a persistent rng; a bad split or size raises at the call."""
        rng = self._rng(split, batch_size, 1)
        return (self._pairs(rng, batch_size) for _ in itertools.count())


class NarModel:
    """Encoder-decoder with token/position embeddings and one block each side.

    Parameters live in a flat name -> ndarray dict so training, checkpointing
    and gradient checking can treat them uniformly.  Every array in it is
    finite: drawn so at init, checked by ``load_checkpoint`` and by the SGD
    update in ``train_step``.  So ``forward`` and ``loss_and_grads`` adopt
    the arrays with ``Tensor._wrap(finite=True)``, without a copy or a sum,
    which also marks them read-only; replace an entry, do not write into it.
    """

    def __init__(self, config: NarConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        dh = d // config.heads
        p: dict[str, np.ndarray] = {}

        def init(name, shape, scale):
            p[name] = rng.standard_normal(shape) * scale

        init("embed", (config.vocab_size, d), d**-0.5)
        init("src_pos", (config.source_len, d), d**-0.5)
        init("tgt_pos", (config.seq_len, d), d**-0.5)
        for block in ("enc_self", "dec_self", "dec_cross"):
            for w in ("wq", "wk", "wv", "wo"):
                init(f"{block}.{w}", (d, d), d**-0.5)
            if config.variant in ("cov", "pquery"):
                for j in range(config.heads):
                    init(f"{block}.h{j}.cq", (config.c, dh), dh**-0.5)
                    init(f"{block}.h{j}.ck", (config.c, dh), dh**-0.5)
                    if config.variant == "pquery":
                        init(f"{block}.h{j}.w", (2 * dh, dh), (2 * dh) ** -0.5)
        for block in ("enc", "dec"):
            init(f"{block}_mlp.w1", (d, 2 * d), d**-0.5)
            init(f"{block}_mlp.w2", (2 * d, d), (2 * d) ** -0.5)
        for ln in ("enc_ln1", "enc_ln2", "dec_ln1", "dec_ln2", "dec_ln3"):
            p[f"{ln}.g"] = np.ones(d)
            p[f"{ln}.b"] = np.zeros(d)
        # small output head keeps the untrained prediction near uniform
        init("out_w", (d, config.vocab_size), 1.0 / d)
        p["out_b"] = np.zeros(config.vocab_size)
        self.params = p

    # -- forward ----------------------------------------------------------

    def _check_tokens(self, tokens, what: str, length: int) -> np.ndarray:
        """One row (length,) or a nonempty batch (B, length) of integer token ids, as int64.

        Ids of another dtype (float, bool, str) are refused, never converted.
        """
        try:
            ids = np.asarray(tokens)
        except ValueError:  # numpy refuses a ragged batch
            detail = _ragged_row(tokens, length)
            raise InputError(f"{what} must all have {length} tokens: {detail}") from None
        if ids.ndim not in (1, 2) or ids.shape[-1] != length or ids.size == 0:
            raise InputError(f"{what} must have {length} tokens, got shape {ids.shape}")
        if not np.issubdtype(ids.dtype, np.integer):  # bool is not an integer dtype
            raise InputError(f"{what} must be integer token ids, got dtype {ids.dtype}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise InputError(f"token out of range for vocab {self.config.vocab_size}")
        return ids.astype(np.int64, copy=False)

    def _attention(self, block: str, x_target, x_source, p):
        cfg = self.config
        head_params = []
        for j in range(cfg.heads if cfg.variant != "softmax" else 0):
            cq, ck = p[f"{block}.h{j}.cq"], p[f"{block}.h{j}.ck"]
            if cfg.variant == "cov":
                head_params.append(AmlpCovParams(cq, ck, cfg.sigma1))
            else:
                head_params.append(AmlpPQueryParams(cq, ck, p[f"{block}.h{j}.w"], cfg.beta, cfg.sigma1))
        projections = (p[f"{block}.{w}"] for w in ("wq", "wk", "wv", "wo"))
        mh = MultiHeadParams(cfg.variant, cfg.heads, *projections, head_params=head_params)
        return multi_head_forward(x_target, x_source, mh)

    def _forward(self, source_tokens, p):
        """Logits (seq_len, vocab) for one source, or (B, seq_len, vocab) for a batch (B, source_len).

        The decoder's self-attention block sees only position embeddings and
        parameters, so it runs once at rank 2 and is shared by every source.
        """
        src = self._check_tokens(source_tokens, "sources", self.config.source_len)
        x = add(gather_rows(p["embed"], src), p["src_pos"])
        x = layer_norm(add(x, self._attention("enc_self", x, x, p)), p["enc_ln1.g"], p["enc_ln1.b"])
        ff = mlp_forward(x, p["enc_mlp.w1"], p["enc_mlp.w2"])
        memory = layer_norm(add(x, ff), p["enc_ln2.g"], p["enc_ln2.b"])

        y = p["tgt_pos"]
        y = layer_norm(add(y, self._attention("dec_self", y, y, p)), p["dec_ln1.g"], p["dec_ln1.b"])
        y = layer_norm(
            add(y, self._attention("dec_cross", y, memory, p)), p["dec_ln2.g"], p["dec_ln2.b"]
        )
        ff = mlp_forward(y, p["dec_mlp.w1"], p["dec_mlp.w2"])
        y = layer_norm(add(y, ff), p["dec_ln3.g"], p["dec_ln3.b"])
        return add_bias(matmul(y, p["out_w"]), p["out_b"])

    def forward(self, source_tokens) -> Tensor:
        """Logits for all target positions in one pass: seq_len x vocab, or B x seq_len x vocab."""
        p = {k: Tensor._wrap(v, finite=True) for k, v in self.params.items()}
        return self._forward(source_tokens, p)

    # -- training ---------------------------------------------------------

    def loss_and_grads(self, batch) -> tuple[float, dict[str, np.ndarray]]:
        """Mean cross-entropy over a batch of (source, target) pairs and its parameter gradients.

        The whole batch runs as one forward and one backward over (B, n) sources.
        """
        if not batch:
            raise ContractError("batch must be nonempty")
        sources = self._check_tokens([s for s, _ in batch], "sources", self.config.source_len)
        targets = self._check_tokens([t for _, t in batch], "targets", self.config.seq_len)
        tape = Tape()
        p = {k: tape.leaf(Tensor._wrap(v, finite=True)) for k, v in self.params.items()}
        loss = cross_entropy(self._forward(sources, p), targets)
        backward(tape, loss)
        return loss.item(), {name: var.grad.data for name, var in p.items()}

    def train_step(self, batch) -> float:
        """One SGD step on a batch of (source, target) pairs; returns the pre-update loss.

        Each updated parameter is checked here, once, by one dot product.
        Its squared norm is finite exactly when every entry is finite and
        the norm is below about 1.3e154.  A larger norm counts as divergence
        too, since the covariance summaries square the projected
        activations; at a huge learning rate a parameter gets there in one
        step with every entry still finite.  Either case raises
        ContractError naming the first such parameter, and the parameters
        keep their values from before the step.
        """
        loss, grads = self.loss_and_grads(batch)
        lr = self.config.learning_rate
        if lr != 0.0:
            updated = {}
            with np.errstate(over="ignore", invalid="ignore"):
                for name, grad in grads.items():
                    new = self.params[name] - lr * grad
                    if not math.isfinite(float(np.vdot(new, new))):
                        raise ContractError(
                            f"parameter {name!r} diverged: its squared norm is not finite after the update"
                        )
                    updated[name] = new
            self.params.update(updated)
        return loss

    # -- inference --------------------------------------------------------

    def generate(self, source_tokens) -> np.ndarray:
        """Argmax decode of every position of one source or a batch; ties pick the lower token id."""
        return np.argmax(self.forward(source_tokens).data, axis=-1)


def evaluate(model, task: SyntheticTask, num_samples: int, split: str = "eval") -> float:
    """Fraction of positions where the model's decode matches the ground truth.

    The split is decoded in batches of at most EVAL_BATCH sources, one
    ``generate`` call each, so memory stays bounded for any sample count.
    """
    if num_samples < 1:
        raise ContractError(f"num_samples must be >= 1, got {num_samples}")
    pairs = task.sample(num_samples, split=split)
    correct = 0
    for lo in range(0, num_samples, EVAL_BATCH):
        chunk = pairs[lo : lo + EVAL_BATCH]
        pred = np.asarray(model.generate(np.stack([source for source, _ in chunk])))
        correct += int((pred == np.stack([target for _, target in chunk])).sum())
    return correct / (num_samples * task.length)


def train(
    model: NarModel,
    task: SyntheticTask,
    steps: int,
    batch_size: int = 8,
    on_step=None,
) -> list[float]:
    """Run up to `steps` SGD steps against the task's training stream; returns the losses.

    After each step, ``on_step(step, loss)`` gets the number of steps taken so
    far (1 for the first) and that step's loss; a truthy return stops training
    there.  Zero steps leave the model as it is.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    losses: list[float] = []
    batches = task.stream(batch_size, split="train")
    for step in range(1, steps + 1):
        try:
            losses.append(model.train_step(next(batches)))
        except ContractError as exc:
            raise ContractError(f"step {step}: {exc}") from None
        if on_step is not None and on_step(step, losses[-1]):
            break
    return losses


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: NarModel, path: str) -> None:
    """Write a versioned textual dump; float64 payloads are hex, so round-trips
    are bit-exact."""
    lines = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"]
    lines.append("config " + json.dumps(asdict(model.config), sort_keys=True))
    for name in sorted(model.params):
        arr = np.ascontiguousarray(model.params[name], dtype="<f8")
        dims = ",".join(str(s) for s in arr.shape)
        lines.append(f"param {name} {dims} {arr.tobytes().hex()}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path: str) -> NarModel:
    """Rebuild a model from a file written by ``save_checkpoint``.

    Malformed content (a truncated file, a short ``param`` line, bad hex, a
    shape or config that does not fit, non-finite values) raises
    ContractError; a file that cannot be opened raises OSError.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ContractError(f"checkpoint is not ascii text: {path}") from None
    if not lines or lines[0] != f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}":
        raise ContractError(f"not a v{CHECKPOINT_VERSION} checkpoint: {path}")
    if len(lines) < 2 or not lines[1].startswith("config "):
        raise ContractError(f"missing config line in {path}")
    try:
        model = NarModel(NarConfig(**json.loads(lines[1][len("config ") :])))
    except (TypeError, ValueError) as exc:
        raise ContractError(f"bad config in {path}: {exc}") from None
    seen = set()
    for lineno, line in enumerate(lines[2:], 3):
        if not line:
            continue
        fields = line.split(" ", 3)
        if len(fields) != 4 or fields[0] != "param":
            raise ContractError(f"{path}:{lineno}: expected 'param <name> <dims> <hex>'")
        _, name, dims, payload = fields
        try:
            shape = tuple(int(s) for s in dims.split(",")) if dims else ()
            arr = np.frombuffer(bytes.fromhex(payload), dtype="<f8").reshape(shape).copy()
        except ValueError as exc:
            raise ContractError(f"{path}:{lineno}: bad payload for {name!r}: {exc}") from None
        if name not in model.params or model.params[name].shape != arr.shape:
            raise ContractError(f"checkpoint param {name!r} does not fit the config")
        if not np.isfinite(arr).all():
            raise ContractError(f"checkpoint param {name!r} holds NaN or Inf")
        model.params[name] = arr
        seen.add(name)
    if seen != set(model.params):
        raise ContractError(f"checkpoint is missing parameters: {sorted(set(model.params) - seen)}")
    return model
