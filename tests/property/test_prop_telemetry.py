"""Property tests: the telemetry event stream preserves the MKL_VERBOSE
contract.

Since the unified stream landed, ``VerboseRecord`` lines are rendered
from records that took a detour through the telemetry collector
(``emit_call`` -> event buffer -> ``verbose_records()``).  These
properties pin that detour as lossless: the reconstructed record equals
the original, and the MKL-look-alike line built from it is the line
built from the original, character for character.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.modes import ComputeMode
from repro.blas.verbose import VerboseRecord, format_verbose_line
from repro.telemetry.registry import Telemetry

pytestmark = pytest.mark.telemetry

records = st.builds(
    VerboseRecord,
    routine=st.sampled_from(["sgemm", "dgemm", "cgemm", "zgemm"]),
    trans_a=st.sampled_from(["N", "T", "C"]),
    trans_b=st.sampled_from(["N", "T", "C"]),
    m=st.integers(min_value=1, max_value=8192),
    n=st.integers(min_value=1, max_value=8192),
    k=st.integers(min_value=1, max_value=8192),
    mode=st.sampled_from(list(ComputeMode)),
    # Keep timings in the range where the line format's fixed decimals
    # retain >= 3 significant digits (1 us .. 100 s).
    seconds=st.floats(min_value=1e-6, max_value=100.0),
    model_seconds=st.none() | st.floats(min_value=1e-6, max_value=100.0),
    site=st.sampled_from(["", "nlp_prop", "calc_energy", "remap_occ", "qmc_proj"]),
)


def _detour(rec: VerboseRecord) -> VerboseRecord:
    """Push one record through the collector and rebuild it."""
    t = Telemetry()
    t.blas_call(rec)
    (rebuilt,) = t.verbose_records()
    return rebuilt


@settings(max_examples=200)
@given(records)
def test_collector_detour_is_lossless(rec):
    rebuilt = _detour(rec)
    assert rebuilt.routine == rec.routine
    assert (rebuilt.trans_a, rebuilt.trans_b) == (rec.trans_a, rec.trans_b)
    assert (rebuilt.m, rebuilt.n, rebuilt.k) == (rec.m, rec.n, rec.k)
    assert rebuilt.mode is rec.mode
    assert rebuilt.site == rec.site
    assert rebuilt.seconds == rec.seconds
    assert rebuilt.model_seconds == rec.model_seconds


@settings(max_examples=200)
@given(records)
def test_rendered_line_is_identical_after_detour(rec):
    """Bit-for-bit: the MKL-look-alike line does not change because the
    record travelled through the telemetry buffer."""
    assert format_verbose_line(_detour(rec)) == format_verbose_line(rec)

