"""Shared helpers: repository paths, BLAS pinning, statistics and the
environment record written next to every result."""

import ctypes
import glob
import hashlib
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Generated inputs and results live in an ignored directory of the checkout.
WORK_DIR = ROOT / ".perfbench"

# One BLAS thread on every run.  The thread count changes kernel times by an
# order of magnitude (total_loss at B=128, d=768: ~10 ms with one OpenBLAS
# thread, ~190 ms with two on a 2-core machine), so it must never differ
# between the two sides of a comparison.
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_holorag() -> None:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "holorag" / "__init__.py").is_file():
        raise FileNotFoundError(f"no holorag package under {SRC}")
    sys.path.insert(0, str(SRC))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return vendor, threads


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def src_stats():
    """Line count and content digest of the Python sources under ``src``."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:16]


def environment() -> dict:
    """What a reader needs to know to compare two results."""
    import numpy as np

    vendor, threads = _blas_info()
    lines, digest = src_stats()
    return {
        "commit": _git_commit(),
        "src_digest": digest,
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_threads": threads,
        "blas_threads_pinned": BLAS_THREADS,
        "machine": platform.machine(),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: List[float]  # one sample per set-up repetition
    op_ms: List[float]  # latency of each timed operation
    ops_per_s: float
    attempted: int
    failed: int
    peak_rss_mb: float
    # the workload's own metric names: (name, value, unit, samples, meaning)
    named: List[Tuple[str, float, str, int, str]] = field(default_factory=list)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)  # traced run only

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
