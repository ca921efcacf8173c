"""Environment fingerprint printed with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import re

import numpy as np


def _blas_threads():
    """Thread count reported by the BLAS library numpy loaded, if it exposes one."""
    maps = pathlib.Path("/proc/self/maps")
    if not maps.exists():
        return None
    paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read_text())))
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l3_bytes():
    """Size of the last-level (L3) cache of cpu0, or None when the OS does not say."""
    try:
        text = pathlib.Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _git_sha(root: pathlib.Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: pathlib.Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = l3_bytes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_mib": None if l3 is None else round(l3 / (1 << 20), 1),
        "git_sha": _git_sha(root),
        "seed": seed,
    }
