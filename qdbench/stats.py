"""Small, self-checked arithmetic of the benchmark: percentiles,
geometric means and trajectory digests."""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it (p90 needs 100 samples, p50 needs 20).
MIN_BEYOND = 10

#: Observable columns a trajectory digest covers (QDRecord fields).
DIGEST_COLUMNS = (
    "step",
    "time_fs",
    "ekin",
    "epot",
    "etot",
    "eexc",
    "nexc",
    "aext",
    "javg",
)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (linear interpolation), or ``None`` when
    fewer than :data:`MIN_BEYOND` samples would lie beyond it."""
    n = len(samples)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; 0 when any value is 0 (a perfect match)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of no values")
    if any(v < 0 or not math.isfinite(v) for v in vals):
        raise ValueError(f"geomean needs finite values >= 0, got {vals}")
    if any(v == 0.0 for v in vals):
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def max_abs_dev(result, reference, observable: str) -> float:
    """max over steps of |x - x_ref| for one observable column."""
    got = result.column(observable)
    ref = reference.column(observable)
    if got.shape != ref.shape:
        raise ValueError(f"{observable}: {got.shape} steps vs reference {ref.shape}")
    return float(np.abs(got - ref).max())


def columns_finite(result) -> bool:
    return all(np.isfinite(result.column(c)).all() for c in DIGEST_COLUMNS)


def trajectory_digest(result) -> str:
    """sha256 over the float64 bytes of the observable columns."""
    h = hashlib.sha256()
    for c in DIGEST_COLUMNS:
        h.update(c.encode())
        h.update(np.ascontiguousarray(result.column(c), dtype=np.float64).tobytes())
    return h.hexdigest()
