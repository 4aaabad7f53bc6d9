"""Property-based tests: numerics-layer extensions (maxwell)."""

import pytest
from hypothesis import given, strategies as st

from repro.dcmesh.maxwell import InducedField


class TestInducedFieldProperties:
    @given(
        st.floats(min_value=1e-3, max_value=0.5),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=50),
    )
    def test_linear_in_current_history(self, dt, currents):
        # The integrator is linear: doubling the drive doubles the field.
        f1, f2 = InducedField(dt), InducedField(dt)
        for j in currents:
            f1.step(j)
            f2.step(2.0 * j)
        assert f2.a == pytest.approx(2.0 * f1.a, rel=1e-12, abs=1e-300)
        assert f2.a_dot == pytest.approx(2.0 * f1.a_dot, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=1e-3, max_value=0.5),
           st.integers(min_value=1, max_value=100))
    def test_zero_drive_inert(self, dt, n):
        f = InducedField(dt)
        for _ in range(n):
            f.step(0.0)
        assert f.a == 0.0 and f.a_dot == 0.0
