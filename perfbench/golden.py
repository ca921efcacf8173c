"""Reference values recorded with the benchmark, and the probe that reproduces them.

The probe runs the toy workloads at a fixed seed, independent of the
workload seed: the pre-update losses of the first few ``toy-train`` steps
(which also pins the gradients and the SGD update, since each loss depends
on the previous step's update) and the logits ``toy-decode``'s model gives
its first eval source.  ``check`` compares a fresh probe against
``golden.json``; running this file rewrites that file, which is only right
when the model's numerics change on purpose.

Usage: python3 perfbench/golden.py   (from the repository root)
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")
WORKLOADS = ("toy-train", "toy-decode")  # the workloads with recorded values
GOLDEN_SEED = 0
TRAIN_STEPS = 4
RTOL = 1e-9  # |probe - recorded| <= RTOL * max(1, |recorded|), elementwise


def probe(name: str) -> dict:
    import workloads

    w = workloads.build(name, GOLDEN_SEED)
    if name == "toy-train":
        return {"losses": [w.op(w.next_input()) for _ in range(TRAIN_STEPS)]}
    return {"logits": w.model.forward(w.eval_pairs()[0][0]).data.tolist()}


def check(name: str) -> list[str]:
    """Mismatches between a fresh probe and the recorded values; empty when they agree."""
    recorded = json.loads(GOLDEN_PATH.read_text())[name]
    fresh = probe(name)
    problems = []
    for key in sorted(set(recorded) | set(fresh)):
        if key not in recorded or key not in fresh:
            problems.append(f"{name}.{key}: present on one side only")
            continue
        got, want = np.asarray(fresh[key]), np.asarray(recorded[key])
        if got.shape != want.shape:
            problems.append(f"{name}.{key}: shape {got.shape} != recorded {want.shape}")
        elif not np.all(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want))):
            problems.append(f"{name}.{key}: max abs diff {np.abs(got - want).max():.3e} from recorded values")
    return problems


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    values = {name: probe(name) for name in WORKLOADS}
    GOLDEN_PATH.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
