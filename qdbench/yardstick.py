"""Host-speed yardstick: a fixed NumPy/SciPy kernel timed throughout a
run, so that every end-to-end time is reported at the speed of the
reference host.

Why: the benchmark runs on a few cores of a shared host whose speed
switches between states tens of milliseconds long (a QD step of the
FP32 loop takes ~4.4 ms in one and ~7 ms in the other) and whose mix
of states drifts over minutes, in CPU time as much as in wall time.
Longer runs do not help, because the drift is slower than a run.  On
the reference host, over 25 s windows of 300 s of back-to-back FP32
trajectories, IQR/median of the windows' values was 0.09 for QD
steps/s, 0.13 for the median step and 0.09 for set-up as timed, and
0.02, 0.03 and 0.03 once scaled as below.

The kernel does what a QD step does, with no code of the program: an
FFT round trip of a 12^3 x 24 complex64 orbital block with pointwise
phases, projector GEMMs, bf16-style bit rounding, and a little
pure-Python dispatch.  Program changes cannot move it, so a scaled time
moves one-for-one with the program's own time.

A sample is :data:`PASSES` passes of the kernel, each timed on its own.
Samples are taken between timed items and, inside a timed trajectory,
every :data:`EVERY_S` seconds from the progress callback; the time they
take is paused out of the trajectory's own clock.  At the end of a run
the passes, spread over the whole run, have seen the same mix of host
states as the measured work, and:

- a sum of times (a rate, a set-up) is scaled by the reference host's
  mean pass over the run's mean pass: both are time averages, linear
  in the mix;
- a percentile of step intervals is scaled by the geometric mean of
  that factor and a quantile-matched one: the reference host's
  percentile of the passes over the run's same percentile.  The
  quantile-matched factor keeps a percentile in the host state it falls
  in, and is exact when every step's time is proportional to the pass
  time of the state it ran in; the mean factor is exact when a step's
  time follows the time-averaged speed instead, as for parts of the
  program that respond less to the host state.  Over ten runs of each
  workload, quantile matching alone left ``adaptive_lfd``'s p90 at an
  IQR/median of 0.14-0.16, and the mean alone left ``bf16x3_lfd``'s
  p90 at 0.11 and ``adaptive_lfd``'s p50 at 0.11; their geometric mean
  kept every percentile at 0.11 or below.  For the quantile, each pass
  counts as many times as QD steps ended in the period its sample
  closes: more steps end per second in a fast state, so the intervals
  are a count-weighted mix of the states, and a time-weighted pass
  percentile crossed between states where the intervals' did not.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np
import scipy.fft

#: Kernel pass times on the reference host (Intel Xeon, KVM, 2 vCPUs,
#: one BLAS thread, NumPy 2.4.6, SciPy 1.17.1) over 600 s of its usual
#: mix of states, so that scaled times read like that host's wall times:
#: the mean, and percentiles.
REFERENCE_MEAN_S = 0.00225
REFERENCE_PERCENTILE_S = {50: 0.00225, 90: 0.0027}
#: Passes per sample.
PASSES = 8
#: Inside a timed trajectory, one sample at most every this many seconds
#: (about 7% of the run).
EVERY_S = 0.25

_SHAPE = (12, 12, 12)
_NORB = 24
_NPROJ = 40


class Yardstick:
    """The kernel, and the pass times one process has sampled."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        rng = np.random.default_rng(20240611)
        n = int(np.prod(_SHAPE))

        def cplx(*shape):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return z.astype(np.complex64)

        def phase():
            return np.exp(-1j * rng.uniform(0, 1, (*_SHAPE, 1))).astype(np.complex64)

        self._psi = cplx(*_SHAPE, _NORB) * np.float32(n**-0.5)
        self._kphase = phase()
        self._vphase = phase()
        self._proj = cplx(n, _NPROJ) * np.float32(n**-0.5)
        self._table = {f"k{i}": i for i in range(64)}
        #: Seconds of each pass sampled so far, and the QD steps each
        #: pass stands for (those that ended since the sample before).
        self.passes: List[float] = []
        self.steps: List[int] = []
        #: Seconds spent sampling so far; timed code subtracts it.
        self.paused = 0.0
        self._last = -np.inf
        self._pass()  # first-call costs (FFT plans) stay out of the samples

    def _pass(self) -> float:
        g = scipy.fft.fftn(self._psi, axes=(0, 1, 2))
        g *= self._kphase
        psi = scipy.fft.ifftn(g, axes=(0, 1, 2))
        psi *= self._vphase
        flat = psi.reshape(-1, _NORB)
        c = self._proj.conj().T @ flat
        flat = flat + self._proj @ (c * np.float32(1e-3))
        bits = flat.view(np.float32).view(np.uint32)
        hi = ((bits + np.uint32(0x7FFF)) & np.uint32(0xFFFF0000)).view(np.float32)
        lo = flat.view(np.float32) - hi
        acc = 0
        for key in self._table:
            acc += self._table[key] & 3
        return float(np.abs(lo).max()) + acc

    def sample(self, steps: int = 0) -> None:
        """Time :data:`PASSES` passes of the kernel, each standing for
        ``steps`` QD steps."""
        start = t0 = self.clock()
        for _ in range(PASSES):
            self._pass()
            t1 = self.clock()
            self.passes.append(t1 - t0)
            t0 = t1
        self.steps += [steps] * PASSES
        self.paused += t0 - start
        self._last = t0

    def maybe_sample(self, steps: int = 0, every: float = EVERY_S) -> bool:
        """A sample if the last one ended ``every`` seconds ago or more;
        whether one was taken."""
        if self.clock() - self._last < every:
            return False
        self.sample(steps)
        return True


def sum_scale(passes: List[float]) -> float:
    """Factor taking a sum of times measured alongside ``passes`` to the
    reference host's speed."""
    return REFERENCE_MEAN_S / float(np.mean(passes))


def weighted_percentile(values: List[float], weights: List[int], q: float) -> float:
    """The smallest value at or below which lies ``q`` percent of the
    total weight."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(np.asarray(weights, dtype=float)[order])
    if cum[-1] <= 0:
        raise ValueError("no weight")
    i = int(np.searchsorted(cum, q / 100.0 * cum[-1]))
    return float(np.asarray(values)[order][min(i, len(cum) - 1)])


def percentile_scale(passes: List[float], steps: List[int], q: float) -> float:
    """Factor taking the ``q``-th percentile of step intervals measured
    alongside ``passes`` (each standing for ``steps`` QD steps) to the
    reference host's speed."""
    matched = REFERENCE_PERCENTILE_S[q] / weighted_percentile(passes, steps, q)
    return math.sqrt(matched * sum_scale(passes))


def timed(yard: Yardstick, run, sample: bool):
    """Call ``run(progress)`` and time it with the yardstick's samples
    paused out; when ``sample``, also sample before, after and every
    :data:`EVERY_S` from ``progress``.  Returns ``(result, seconds,
    step_ms)``, ``step_ms`` being the intervals between ``progress``
    calls."""
    stamps = []
    unsampled = [0]  # QD steps ended since the last sample

    def progress(step, record):
        stamps.append((yard.clock(), yard.paused))
        if sample:
            unsampled[0] += 1
            if yard.maybe_sample(unsampled[0]):
                unsampled[0] = 0

    if sample:
        yard.maybe_sample()
    p0 = yard.paused
    t0 = yard.clock()
    result = run(progress)
    t1 = yard.clock()
    p1 = yard.paused
    if sample:
        yard.sample(unsampled[0])
    step_ms = [
        1e3 * ((c1 - c0) - (q1 - q0))
        for (c0, q0), (c1, q1) in zip(stamps, stamps[1:])
    ]
    return result, (t1 - t0) - (p1 - p0), step_ms
