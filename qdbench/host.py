"""Provenance of a result: source revision, machine and software."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git``, or a note when there is none."""
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
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest(src: Path) -> str:
    """sha256 over the paths and bytes of every ``.py`` file under ``src``.

    Identifies the program's revision where no git metadata exists; it
    keys the cross-run trajectory digests.
    """
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _caches() -> str:
    """L2/L3 sizes as sysfs reports them for cpu0."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return ", ".join(f"{k} {v}" for k, v in sorted(sizes.items())) or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
    }
