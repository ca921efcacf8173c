"""Command-line interface: benchmarks, toy-model training and evaluation, self-verification.

Settings come from a plain key=value config file (# comments allowed),
overridden by flags.  Every run echoes its effective configuration and seed
to stderr so any result can be replayed.  Data goes to stdout or --out;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import re
import sys

from .attention import SIGMA1_CHOICES, ConfigError
from .bench import (
    SWEEP_CONFIG,
    BenchConfig,
    run_and_report,
    sweep_inner_dimension,
    sweep_to_csv,
)
from .narmodel import (
    DEFAULT_EVAL_SAMPLES,
    DEFAULT_TASK,
    TASK_KINDS,
    VARIANTS,
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


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


_SIGMA1_HELP = f"first-layer activation: {', '.join(SIGMA1_CHOICES)}"
_TASK_HELP = f"synthetic task: {', '.join(TASK_KINDS)}"

# One table per subcommand: key -> (converter, default, help).  Each key is both
# a config-file key and the flag --<key> (with - for _); a flag beats the file,
# which beats the default.  The library's config objects check every value.
# Defaults are read from the library: BenchConfig, SWEEP_CONFIG (the sweep's
# timing shape), NarConfig, and the signatures of train and the sweep.
_BENCH = {
    "lengths": (_parse_int_list, BenchConfig.lengths, "comma-separated lengths"),
    "runs": (int, BenchConfig.runs, "timed repetitions per cell, at least 4"),
    "batch": (int, BenchConfig.batch, None),
    "d": (int, BenchConfig.d_model, "model width"),
    "heads": (int, BenchConfig.heads, None),
    "c": (int, BenchConfig.c, "adaptive inner dimension"),
    "sigma1": (str, BenchConfig.sigma1, _SIGMA1_HELP),
    "arch": (_parse_str_list, BenchConfig.architectures, "comma-separated architectures"),
    "warmup": (int, BenchConfig.warmup, None),
    "seed": (int, BenchConfig.seed, "global random seed"),
    "out": (str, None, "write CSV here instead of stdout"),
}

_SWEEP = {
    "c": (_parse_int_list, _default(sweep_inner_dimension, "cs"), "comma-separated inner dims"),
    "n": (int, SWEEP_CONFIG.lengths[0], "length of each timed cell"),
    "steps": (int, _default(sweep_inner_dimension, "steps"), "toy training steps per c"),
    "runs": (int, SWEEP_CONFIG.runs, "timed repetitions per cell, at least 4"),
    "batch": (int, SWEEP_CONFIG.batch, None),
    "d": (int, SWEEP_CONFIG.d_model, "model width"),
    "heads": (int, SWEEP_CONFIG.heads, None),
    "sigma1": (str, SWEEP_CONFIG.sigma1, _SIGMA1_HELP),
    "warmup": (int, SWEEP_CONFIG.warmup, None),
    "seed": (int, SWEEP_CONFIG.seed, "global random seed"),
    "out": (str, None, "write CSV here instead of stdout"),
}

_TRAIN = {
    "task": (str, DEFAULT_TASK, _TASK_HELP),
    "variant": (str, NarConfig.variant, f"attention: {', '.join(VARIANTS)}"),
    "steps": (int, 1000, None),
    "ckpt": (str, None, "checkpoint path to write"),
    "lr": (float, NarConfig.learning_rate, None),
    "batch_size": (int, _default(train, "batch_size"), None),
    "vocab": (int, NarConfig.vocab_size, None),
    "len": (int, NarConfig.seq_len, "source and target length"),
    "d_model": (int, NarConfig.d_model, None),
    "heads": (int, NarConfig.heads, None),
    "c": (int, NarConfig.c, None),
    "sigma1": (str, NarConfig.sigma1, _SIGMA1_HELP),
    "beta": (float, NarConfig.beta, None),
    "eval_samples": (int, DEFAULT_EVAL_SAMPLES, None),
    "seed": (int, NarConfig.seed, "global random seed"),
}

_EVAL = {
    "ckpt": (str, None, "checkpoint path to read"),
    "task": (str, DEFAULT_TASK, _TASK_HELP),
    "eval_samples": (int, DEFAULT_EVAL_SAMPLES, None),
    "seed": (int, None, "global random seed (default: the checkpoint's)"),
}

_VERIFY = {
    "json": (_parse_bool, False, "machine-readable output"),
    "break_gradients": (
        _parse_bool,
        False,
        "negative control: perturb one backward rule so gradient checks fail",
    ),
    "seed": (int, 0, "global random seed"),
}


# Library config fields each subcommand feeds from a setting of another name.
# A ConfigError names the field; the usage error names the flag instead.
_FLAG_OF_FIELD = {
    "bench": {"d_model": "d", "architectures": "arch"},
    "sweep": {"d_model": "d", "lengths": "n"},
    "train": {"vocab_size": "vocab", "seq_len": "len", "source_len": "len", "learning_rate": "lr"},
}


def _name_flags(message: str, command: str) -> str:
    """A library error message with each renamed field replaced by its flag."""
    renamed = _FLAG_OF_FIELD.get(command, {})
    if not renamed:
        return message
    pattern = r"\b(" + "|".join(renamed) + r")\b"
    return re.sub(pattern, lambda m: "--" + renamed[m.group(1)], message)


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
            values[key] = schema[key][0](val.strip())
    return values


def _effective(args: argparse.Namespace, parser) -> dict:
    settings = {k: default for k, (_conv, default, _help) in args.table.items()}
    if args.config:
        try:
            settings.update(_read_config_file(args.config, args.table))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    for key in args.table:
        flag_val = getattr(args, key)
        if flag_val is not None:
            settings[key] = flag_val
    return settings


def _render(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _echo_config(name: str, settings: dict) -> None:
    rendered = " ".join(
        f"{k}={_render(v)}" for k, v in sorted(settings.items()) if v is not None
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


def _emit(s, csv_text: str, summary: str) -> None:
    """CSV to --out with the summary on stdout, or CSV on stdout and the summary on stderr."""
    if s["out"]:
        _write_out(s["out"], csv_text)
        print(summary, end="")
    else:
        print(csv_text, end="")
        print(summary, end="", file=sys.stderr)


def _cmd_bench(s, parser) -> int:
    _echo_config("bench", s)
    config = BenchConfig(
        lengths=s["lengths"], batch=s["batch"], runs=s["runs"], d_model=s["d"],
        heads=s["heads"], c=s["c"], sigma1=s["sigma1"], architectures=s["arch"],
        seed=s["seed"], warmup=s["warmup"],
    )
    _records, csv_text, summary = run_and_report(config)
    _emit(s, csv_text, summary)
    return 0


def _cmd_sweep(s, parser) -> int:
    _echo_config("sweep", s)
    config = dataclasses.replace(
        SWEEP_CONFIG, lengths=(s["n"],), batch=s["batch"], runs=s["runs"], d_model=s["d"],
        heads=s["heads"], sigma1=s["sigma1"], seed=s["seed"], warmup=s["warmup"],
    )
    rows = sweep_inner_dimension(s["c"], config, s["steps"])
    summary = "".join(
        f"c={r.c}: latency {r.mean_latency_s:.6f}s accuracy {r.accuracy:.4f}\n" for r in rows
    )
    _emit(s, sweep_to_csv(rows), summary)
    return 0


def _cmd_train(s, parser) -> int:
    _echo_config("train", s)
    for key in ("batch_size", "eval_samples"):
        if s[key] < 1:
            parser.error(f"{key} must be >= 1, got {s[key]}")
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
    model = NarModel(config)

    def log(step, loss):
        if step % 100 == 1:  # the log numbers steps from 0
            print(f"step {step - 1} loss {loss:.6f}")

    train(model, task, s["steps"], s["batch_size"], on_step=log)
    accuracy = evaluate(model, task, s["eval_samples"])
    print(f"{'final' if s['steps'] else 'initial'} accuracy {accuracy:.4f}")
    if s["ckpt"]:
        save_checkpoint(model, s["ckpt"])
        print(f"checkpoint written to {s['ckpt']}", file=sys.stderr)
    return 0


def _cmd_eval(s, parser) -> int:
    if s["ckpt"] is None:
        parser.error("eval needs --ckpt")
    if s["eval_samples"] < 1:
        parser.error(f"eval_samples must be >= 1, got {s['eval_samples']}")
    model = load_checkpoint(s["ckpt"])
    if s["seed"] is None:
        s["seed"] = model.config.seed  # the split `train` evaluates on
    cfg = dataclasses.replace(model.config, seed=s["seed"])  # NarConfig checks the seed
    _echo_config("eval", s)
    task = SyntheticTask(s["task"], vocab=cfg.vocab_size, length=cfg.seq_len, seed=s["seed"] + 1)
    print(f"accuracy {evaluate(model, task, s['eval_samples']):.4f}")
    return 0


def _cmd_verify(s, parser) -> int:
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

# name -> (run, settings table, help)
_COMMANDS = {
    "bench": (_cmd_bench, _BENCH, "latency/memory benchmark over sequence lengths"),
    "sweep": (_cmd_sweep, _SWEEP, "adaptive latency and toy-task accuracy over inner dimensions"),
    "train": (_cmd_train, _TRAIN, "train the toy parallel-decoding model"),
    "eval": (_cmd_eval, _EVAL, "evaluate a saved checkpoint on the toy task"),
    "verify": (_cmd_verify, _VERIFY, "run the fast property suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attentive-mlp",
        description="adaptive-MLP attention: benchmarks, toy training, verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (run, table, about) in _COMMANDS.items():
        sub = subs.add_parser(name, help=about)
        sub.add_argument("--config", help="key=value config file; flags override it")
        for key, (conv, default, help_text) in table.items():
            flag = "--" + key.replace("_", "-")
            if default is not None:
                help_text = f"{help_text or ''} (default: {_render(default)})".lstrip()
            if conv is _parse_bool:
                sub.add_argument(flag, action="store_const", const=True, help=help_text)
            else:
                sub.add_argument(flag, type=conv, help=help_text)
        sub.set_defaults(func=run, table=table)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_effective(args, parser), parser)
    except ConfigError as exc:  # a setting the library rejects, from a flag or a file
        parser.error(_name_flags(str(exc), args.command))
    except (ContractError, InputError, MemoryError, OSError) as exc:  # a run that failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
