"""Ablation bench: device-model sensitivity of the 3.91x anchor.

DESIGN.md ablation #5 — the Table VI anchor call is memory-bound for
BF16, so the calibrated bandwidth efficiency moves it while the power
cap barely does.
"""

import pytest

from repro.core.ablation import device_sensitivity


def test_device_sensitivity(benchmark):
    rows = benchmark(device_sensitivity)
    by_knob = {(bw, cap): s for bw, cap, s in rows}
    # Bandwidth is the binding constraint at the anchor shape.
    assert by_knob[(0.9, 0.45)] > by_knob[(0.5, 0.45)] * 1.3
    # Power cap has almost no effect there.
    assert by_knob[(0.7, 0.65)] == pytest.approx(by_knob[(0.7, 0.45)], rel=0.05)

