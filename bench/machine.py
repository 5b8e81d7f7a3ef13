"""Machine and build facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int) -> int | None:
    """Size of one cache of the given level, as the first CPU reports it."""
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() != str(level):
                continue
            if Path(index, "type").read_text().strip() == "Instruction":
                continue
            text = Path(index, "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    return None


def _openblas_library():
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("lib*openblas*.so*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def blas_info() -> dict:
    """BLAS name, version and the thread count it will use."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = deps.get("name"), deps.get("version")
    except (TypeError, KeyError):
        name = version = None
    threads = None
    lib = _openblas_library()
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None) if lib is not None else None
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            threads = int(fn())
            break
    return {"name": name, "version": version, "threads": threads}


def git_commit(root: Path) -> str | None:
    """HEAD of a checkout's .git directory, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir: Path) -> str:
    """sha256 over the package's source files; identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package_dir)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def describe(root: Path, package_dir: Path) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(package_dir),
    }
