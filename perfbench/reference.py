"""Plain-numpy restatements of the library forwards that the benchmark checks against.

Nothing here imports the library: these are independent re-derivations of the
covariance-variant attention and of the toy encoder-decoder, written for
clarity, not speed.  Only the settings the workloads use are restated
(mechanism ``cov``; sigma1 ``softmax``, ``relu`` or ``identity``).
"""

from __future__ import annotations

import numpy as np


def softmax_rows(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigma1(h: np.ndarray, kind: str) -> np.ndarray:
    if kind == "softmax":
        return softmax_rows(h)
    if kind == "relu":
        return np.maximum(h, 0.0)
    if kind == "identity":
        return h
    raise ValueError(f"unknown sigma1 {kind!r}")


# rows of q, k or v held at once: keeps the long-attn check's memory well
# below the library forward's, so the check does not set the peak RSS
ROW_BLOCK = 1024


def multi_head_cov(x_target, x_source, w_q, w_k, w_v, w_o, c_qs, c_ks, sigma1: str):
    """Multi-head covariance attention, evaluated over row blocks.

    Per head with feature slice h: L = C_q softmax(QhᵀQh) + C_k softmax(KhᵀKh),
    out_h = sigma1(Qh Lᵀ) (L softmax(Khᵀ Vh)); the heads are concatenated and
    projected by w_o.  The second-moment sums accumulate block by block.
    """
    heads, width = len(c_qs), w_q.shape[1]
    cols = [slice(i * width // heads, (i + 1) * width // heads) for i in range(heads)]
    qq, kk, kv = (np.zeros((heads, width // heads, width // heads)) for _ in range(3))
    for lo in range(0, len(x_target), ROW_BLOCK):
        q = x_target[lo : lo + ROW_BLOCK] @ w_q
        for i, c in enumerate(cols):
            qq[i] += q[:, c].T @ q[:, c]
    for lo in range(0, len(x_source), ROW_BLOCK):
        k, v = x_source[lo : lo + ROW_BLOCK] @ w_k, x_source[lo : lo + ROW_BLOCK] @ w_v
        for i, c in enumerate(cols):
            kk[i] += k[:, c].T @ k[:, c]
            kv[i] += k[:, c].T @ v[:, c]
    lts = [c_q @ softmax_rows(qq[i]) + c_k @ softmax_rows(kk[i]) for i, (c_q, c_k) in enumerate(zip(c_qs, c_ks))]
    w_qkvs = [lt @ softmax_rows(kv[i]) for i, lt in enumerate(lts)]
    out = np.empty((len(x_target), w_o.shape[1]))
    for lo in range(0, len(x_target), ROW_BLOCK):
        q = x_target[lo : lo + ROW_BLOCK] @ w_q
        merged = np.concatenate([_sigma1(q[:, c] @ lt.T, sigma1) @ w for c, lt, w in zip(cols, lts, w_qkvs)], axis=1)
        out[lo : lo + ROW_BLOCK] = merged @ w_o
    return out


def _layer_norm(x, gain, bias, eps: float = 1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def nar_logits(params: dict, heads: int, sigma1: str, source) -> np.ndarray:
    """Logits (seq_len x vocab) of the covariance-variant toy encoder-decoder."""
    p = params

    def attend(block, x_target, x_source):
        return multi_head_cov(
            x_target,
            x_source,
            p[f"{block}.wq"],
            p[f"{block}.wk"],
            p[f"{block}.wv"],
            p[f"{block}.wo"],
            [p[f"{block}.h{j}.cq"] for j in range(heads)],
            [p[f"{block}.h{j}.ck"] for j in range(heads)],
            sigma1,
        )

    def mlp(block, x):
        return np.maximum(x @ p[f"{block}_mlp.w1"], 0.0) @ p[f"{block}_mlp.w2"]

    def norm(name, x):
        return _layer_norm(x, p[f"{name}.g"], p[f"{name}.b"])

    x = p["embed"][np.asarray(source)] + p["src_pos"]
    x = norm("enc_ln1", x + attend("enc_self", x, x))
    memory = norm("enc_ln2", x + mlp("enc", x))
    y = p["tgt_pos"]
    y = norm("dec_ln1", y + attend("dec_self", y, y))
    y = norm("dec_ln2", y + attend("dec_cross", y, memory))
    y = norm("dec_ln3", y + mlp("dec", y))
    return y @ p["out_w"] + p["out_b"]


def cross_entropy(logits: np.ndarray, targets) -> float:
    """Mean negative log-likelihood of integer targets under row softmax."""
    top = logits.max(axis=1)
    lse = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
    return float((lse - logits[np.arange(len(logits)), np.asarray(targets)]).mean())


def batch_loss(params: dict, heads: int, sigma1: str, batch) -> float:
    """Mean over the batch of each pair's cross-entropy; what a train step reports."""
    losses = [cross_entropy(nar_logits(params, heads, sigma1, s), t) for s, t in batch]
    return float(np.mean(losses))
