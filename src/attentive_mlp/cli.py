"""Command-line interface: benchmarks, toy-model training and evaluation, self-verification.

Settings come from a plain key=value config file (# comments allowed),
overridden by flags.  Every run echoes its effective configuration and seed
to stderr so any result can be replayed.  Data goes to stdout or --out;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .attention import ConfigError
from .bench import (
    ARCHITECTURES,
    BenchConfig,
    SweepConfig,
    run_and_report,
    sweep_inner_dimension,
    sweep_to_csv,
)
from .narmodel import (
    InputError,
    NarConfig,
    NarModel,
    SyntheticTask,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .tensor import ContractError
from .verify import run_verification

__all__ = ["main"]


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> tuple:
    return tuple(int(part) for part in s.split(",") if part)


def _parse_str_list(s: str) -> tuple:
    return tuple(part.strip() for part in s.split(",") if part.strip())


# per-subcommand schema: name -> (converter, default)
_BENCH_SCHEMA = {
    "lengths": (_parse_int_list, (256, 512, 1024, 2048, 4096, 8192)),
    "runs": (int, 100),
    "batch": (int, 12),
    "d": (int, 512),
    "heads": (int, 8),
    "c": (int, 64),
    "sigma1": (str, "relu"),
    "arch": (_parse_str_list, ARCHITECTURES),
    "warmup": (int, 3),
    "seed": (int, 0),
    "out": (str, None),
    "sweep": (_parse_int_list, None),
    "sweep_n": (int, 8192),
    "sweep_steps": (int, 3000),
}

_TRAIN_SCHEMA = {
    "task": (str, "reverse"),
    "variant": (str, "cov"),
    "steps": (int, 1000),
    "ckpt": (str, None),
    "lr": (float, 0.2),
    "batch_size": (int, 8),
    "vocab": (int, 16),
    "len": (int, 12),
    "d_model": (int, 32),
    "heads": (int, 2),
    "c": (int, 8),
    "sigma1": (str, "softmax"),
    "beta": (float, 0.5),
    "eval_samples": (int, 256),
    "seed": (int, 0),
}

_EVAL_SCHEMA = {
    "ckpt": (str, None),
    "task": (str, "reverse"),
    "eval_samples": (int, 256),
    "seed": (int, None),
}

_VERIFY_SCHEMA = {
    "json": (_parse_bool, False),
    "break_gradients": (_parse_bool, False),
    "seed": (int, 0),
}


def _read_config_file(path: str, schema: dict) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in schema:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            conv, _default = schema[key]
            values[key] = conv(val.strip())
    return values


def _effective(args: argparse.Namespace, schema: dict, parser) -> dict:
    settings = {k: default for k, (_conv, default) in schema.items()}
    if args.config:
        try:
            settings.update(_read_config_file(args.config, schema))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    for key in schema:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            settings[key] = flag_val
    return settings


def _echo_config(name: str, settings: dict) -> None:
    rendered = " ".join(
        f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in sorted(settings.items())
        if v is not None
    )
    print(f"{name} config: {rendered}", file=sys.stderr)
    print(f"seed: {settings['seed']}", file=sys.stderr)


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bench(args, parser) -> int:
    s = _effective(args, _BENCH_SCHEMA, parser)
    _echo_config("bench", s)
    try:
        if s["sweep"] is not None:
            sweep = SweepConfig(
                d_model=s["d"],
                heads=s["heads"],
                n=s["sweep_n"],
                batch=s["batch"],
                runs=s["runs"],
                warmup=s["warmup"],
                sigma1=s["sigma1"],
                seed=s["seed"],
                train_steps=s["sweep_steps"],
            )
            rows = sweep_inner_dimension(s["sweep"], sweep)
            csv_text = sweep_to_csv(rows)
            summary = "\n".join(
                f"c={r.c}: latency {r.mean_latency_s:.6f}s accuracy {r.accuracy:.4f}"
                for r in rows
            ) + "\n"
        else:
            config = BenchConfig(
                lengths=s["lengths"],
                batch=s["batch"],
                runs=s["runs"],
                d_model=s["d"],
                heads=s["heads"],
                c=s["c"],
                sigma1=s["sigma1"],
                architectures=s["arch"],
                seed=s["seed"],
                warmup=s["warmup"],
            )
            _records, csv_text, summary = run_and_report(config)
    except (ConfigError, ContractError) as exc:
        parser.error(str(exc))
        return 2
    if s["out"]:
        _write_out(s["out"], csv_text)
        print(summary, end="")
    else:
        print(csv_text, end="")
        print(summary, end="", file=sys.stderr)
    return 0


def _cmd_train(args, parser) -> int:
    s = _effective(args, _TRAIN_SCHEMA, parser)
    _echo_config("train", s)
    for key in ("batch_size", "eval_samples"):
        if s[key] < 1:
            parser.error(f"{key} must be >= 1, got {s[key]}")
    try:
        config = NarConfig(
            vocab_size=s["vocab"],
            seq_len=s["len"],
            source_len=s["len"],
            d_model=s["d_model"],
            heads=s["heads"],
            c=s["c"],
            variant=s["variant"],
            sigma1=s["sigma1"],
            beta=s["beta"],
            learning_rate=s["lr"],
            seed=s["seed"],
        )
        task = SyntheticTask(s["task"], vocab=s["vocab"], length=s["len"], seed=s["seed"] + 1)
    except (ConfigError, ContractError, InputError) as exc:
        parser.error(str(exc))
        return 2
    model = NarModel(config)
    if s["steps"] > 0:

        def log(step, loss):
            if step % 100 == 1:  # the log numbers steps from 0
                print(f"step {step - 1} loss {loss:.6f}")

        train(model, task, s["steps"], s["batch_size"], on_step=log)
        accuracy = evaluate(model, task, s["eval_samples"])
        print(f"final accuracy {accuracy:.4f}")
    else:
        accuracy = evaluate(model, task, s["eval_samples"])
        print(f"initial accuracy {accuracy:.4f}")
    if s["ckpt"]:
        save_checkpoint(model, s["ckpt"])
        print(f"checkpoint written to {s['ckpt']}", file=sys.stderr)
    return 0


def _cmd_eval(args, parser) -> int:
    s = _effective(args, _EVAL_SCHEMA, parser)
    if s["ckpt"] is None:
        parser.error("eval needs --ckpt")
    if s["eval_samples"] < 1:
        parser.error(f"eval_samples must be >= 1, got {s['eval_samples']}")
    try:
        model = load_checkpoint(s["ckpt"])
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg = model.config
    if s["seed"] is None:
        s["seed"] = cfg.seed  # the split `train` evaluates on
    _echo_config("eval", s)
    try:
        task = SyntheticTask(s["task"], vocab=cfg.vocab_size, length=cfg.seq_len, seed=s["seed"] + 1)
        accuracy = evaluate(model, task, s["eval_samples"])
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"accuracy {accuracy:.4f}")
    return 0


def _cmd_verify(args, parser) -> int:
    s = _effective(args, _VERIFY_SCHEMA, parser)
    _echo_config("verify", s)
    results = run_verification(seed=s["seed"], break_gradients=s["break_gradients"])
    ok = all(r.passed for r in results)
    if s["json"]:
        payload = {
            "seed": s["seed"],
            "passed": ok,
            "properties": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        print(f"{'all properties passed' if ok else 'FAILURES detected'}", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--seed", type=int, help="global random seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attentive-mlp",
        description="adaptive-MLP attention: benchmarks, toy training, verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bench", help="latency/memory benchmark over sequence lengths")
    _add_common(b)
    b.add_argument("--lengths", type=_parse_int_list, help="comma-separated lengths")
    b.add_argument("--runs", type=int, help="timed repetitions per cell (>= 4)")
    b.add_argument("--batch", type=int)
    b.add_argument("--d", type=int, help="model width")
    b.add_argument("--heads", type=int)
    b.add_argument("--c", type=int, help="adaptive inner dimension")
    b.add_argument("--sigma1", choices=("softmax", "relu", "identity"))
    b.add_argument("--arch", type=_parse_str_list, help="comma-separated architectures")
    b.add_argument("--warmup", type=int)
    b.add_argument("--out", help="write CSV here instead of stdout")
    b.add_argument("--sweep", type=_parse_int_list, help="inner dimensions to sweep")
    b.add_argument("--sweep-n", dest="sweep_n", type=int, help="length for sweep timing")
    b.add_argument("--sweep-steps", dest="sweep_steps", type=int, help="sweep training steps")
    b.set_defaults(func=_cmd_bench)

    t = subs.add_parser("train", help="train the toy parallel-decoding model")
    _add_common(t)
    t.add_argument("--task", choices=("copy", "reverse"))
    t.add_argument("--variant", choices=("cov", "pquery", "softmax"))
    t.add_argument("--steps", type=int)
    t.add_argument("--ckpt", help="checkpoint path to write")
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--vocab", type=int)
    t.add_argument("--len", type=int, help="source and target length")
    t.add_argument("--d-model", dest="d_model", type=int)
    t.add_argument("--heads", type=int)
    t.add_argument("--c", type=int)
    t.add_argument("--sigma1", choices=("softmax", "relu", "identity"))
    t.add_argument("--beta", type=float)
    t.add_argument("--eval-samples", dest="eval_samples", type=int)
    t.set_defaults(func=_cmd_train)

    e = subs.add_parser("eval", help="evaluate a saved checkpoint on the toy task")
    _add_common(e)
    e.add_argument("--ckpt", help="checkpoint path to read")
    e.add_argument("--task", choices=("copy", "reverse"))
    e.add_argument("--eval-samples", dest="eval_samples", type=int)
    e.set_defaults(func=_cmd_eval)

    v = subs.add_parser("verify", help="run the fast property suite")
    _add_common(v)
    v.add_argument("--json", action="store_const", const=True, help="machine-readable output")
    v.add_argument(
        "--break-gradients",
        dest="break_gradients",
        action="store_const",
        const=True,
        help="negative control: perturb one backward rule so gradient checks fail",
    )
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
