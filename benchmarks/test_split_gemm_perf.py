"""Bench: prepared (split-plan cached) vs cold split-GEMM wall clock.

Times the LFD hot-path scenario — a repeated ``cgemm`` against frozen
operands — both ways:

* **cold**: plain ndarrays, which a GEMM never caches, so every call
  re-derives contiguous parts and split terms (the pre-plan
  behaviour);
* **prepared**: operands wrapped by :func:`repro.blas.plan.prepare`
  once, so per-call work is only the component products.

The shape is deliberately split-dominated (small ``m``/``n``, large
``k`` — the ``S = Psi0^H Psi`` correction GEMM is exactly this shape
class): that is where the caching matters and where the acceptance
floor (BF16X3 >= 2x, bitwise-identical outputs) is enforced.

Results land in ``BENCH_splitgemm.json`` at the repo root; the
``bench-split`` Make target chains this with
``scripts/check_bench_regression.py``, which applies the stored
per-mode floors from ``benchmarks/splitgemm_floors.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.blas.gemm import gemm
from repro.blas.plan import prepare, release
from repro.blas.workspace import clear_workspace

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_splitgemm.json"

#: Split-dominated shape: the matmul flops scale with m*n*k while the
#: per-call derivation work scales with (m+n)*k, so small m=n and a
#: large k isolates what the plan cache actually saves.
M, N, K = 16, 16, 65536
REPEATS = 7

MODES = [
    "FLOAT_TO_BF16",
    "FLOAT_TO_BF16X2",
    "FLOAT_TO_BF16X3",
    "FLOAT_TO_TF32",
    "COMPLEX_3M",
]


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_mode(mode: str) -> dict:
    rng = np.random.default_rng(42)
    a = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))).astype(
        np.complex64
    )
    b = (rng.standard_normal((K, N)) + 1j * rng.standard_normal((K, N))).astype(
        np.complex64
    )
    try:
        cold = _best_of(lambda: gemm(a, b, mode=mode))
        ref = gemm(a, b, mode=mode)
        a_plan, b_plan = prepare(a), prepare(b)
        gemm(a_plan, b_plan, mode=mode)  # build the cached forms once
        prepared = _best_of(lambda: gemm(a_plan, b_plan, mode=mode))
        out = gemm(a_plan, b_plan, mode=mode)
        bitwise = bool(np.array_equal(out.view(np.uint64), ref.view(np.uint64)))
    finally:
        release(a)
        release(b)
        clear_workspace()
    return {
        "mode": mode,
        "routine": "cgemm",
        "m": M,
        "n": N,
        "k": K,
        "repeats": REPEATS,
        "cold_seconds": cold,
        "prepared_seconds": prepared,
        "speedup": cold / prepared,
        "bitwise_identical": bitwise,
    }


@pytest.fixture(scope="module")
def results():
    rows = [_bench_mode(mode) for mode in MODES]
    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "split_gemm_prepared_vs_cold",
                "shape": {"m": M, "n": N, "k": K},
                "results": rows,
            },
            indent=2,
        )
        + "\n"
    )
    return {row["mode"]: row for row in rows}


@pytest.mark.parametrize("mode", MODES)
def test_prepared_path_is_bitwise_identical(results, mode):
    assert results[mode]["bitwise_identical"]


def test_bf16x3_speedup_meets_floor(results):
    # The acceptance criterion: repeated BF16X3 cgemm with prepared
    # frozen operands at least twice as fast as the cold path.
    assert results["FLOAT_TO_BF16X3"]["speedup"] >= 2.0, results["FLOAT_TO_BF16X3"]


def test_all_split_modes_speed_up(results):
    for mode in ("FLOAT_TO_BF16", "FLOAT_TO_BF16X2", "FLOAT_TO_TF32"):
        assert results[mode]["speedup"] > 1.0, results[mode]


def test_json_artifact_written(results):
    data = json.loads(RESULT_PATH.read_text())
    assert {r["mode"] for r in data["results"]} == set(MODES)
