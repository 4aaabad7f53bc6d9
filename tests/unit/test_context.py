"""Unit tests: the execution context and the one fan-out helper.

Ambient state (mode, site policy, backend, call site, site ID, device,
verbose log, drift monitor) must reach every worker ``fan_out`` starts,
thread or process, exactly as the caller sees it — and must not leak
between threads that were not started from the caller.
"""

import contextlib
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import context
from repro.blas import backend as backend_mod
from repro.blas.backend import NumpyBackend, get_backend, register_backend, use_backend
from repro.blas.env import scoped_env
from repro.blas.gemm import call_site, sgemm, use_device
from repro.blas.modes import (
    MKL_COMPUTE_MODE_ENV,
    OZAKI_SLICES_ENV,
    ComputeMode,
    compute_mode,
    get_compute_mode,
    get_ozaki_slices,
    set_compute_mode,
    set_ozaki_slices,
)
from repro.blas.policy import SitePolicy
from repro.blas.verbose import mkl_verbose
from repro.context import current, fan_out, snapshot
from repro.core.blas_sweep import BlasSweep
from repro.core.scheduler import ADAPTIVE_ENV, adaptive_enabled, set_adaptive_enabled
from repro.experiments.claims import _check_env_var_no_source_change
from repro.gpu import Device
from repro.telemetry.drift import (
    DRIFT_ENV,
    active_drift_monitor,
    drift_enabled,
    drift_monitoring,
    set_drift_enabled,
)
from repro.telemetry.provenance import site_scope

pytestmark = pytest.mark.usefixtures("clean_mode_env")

SITES = ("", "nlp_prop", "calc_energy", "remap_occ")
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class _Shadow(NumpyBackend):
    """A registered, bitwise-NumPy backend with its own cache key."""

    name = "ctx-shadow"


@pytest.fixture(scope="module")
def shadow():
    register_backend(_Shadow.name, _Shadow)
    yield get_backend(_Shadow.name)
    with backend_mod._instances_lock:
        backend_mod._FACTORIES.pop(_Shadow.name, None)
        backend_mod._instances.pop(_Shadow.name, None)


policies = st.one_of(
    st.none(),
    st.builds(
        SitePolicy,
        st.dictionaries(st.sampled_from(SITES[1:]), st.sampled_from(list(ComputeMode))),
        st.one_of(st.none(), st.sampled_from(list(ComputeMode))),
    ),
)


class TestThreadFanOut:
    @settings(max_examples=30, deadline=None)
    @given(
        mode=st.sampled_from(list(ComputeMode)),
        policy=policies,
        scoped_backend=st.booleans(),
        site=st.sampled_from(SITES),
        site_id=st.text(max_size=8),
        device=st.booleans(),
        verbose=st.booleans(),
        monitor=st.booleans(),
    )
    def test_workers_see_the_callers_context_and_sinks(
        self, shadow, mode, policy, scoped_backend, site, site_id, device, verbose,
        monitor,
    ):
        a = np.eye(4, dtype=np.float32)
        dev = Device() if device else None
        with contextlib.ExitStack() as stack:
            stack.enter_context(compute_mode(mode))
            if policy is not None:
                stack.enter_context(policy.active())
            if scoped_backend:
                stack.enter_context(use_backend(shadow))
            stack.enter_context(call_site(site))
            stack.enter_context(site_scope(site_id))
            stack.enter_context(use_device(dev))
            log = stack.enter_context(mkl_verbose()) if verbose else None
            if monitor:
                stack.enter_context(drift_monitoring())
            caller = current()

            def work(_):
                sgemm(a, a)
                return current()

            seen = fan_out(work, range(4), max_workers=2)
        assert seen == [caller] * 4
        if verbose:
            assert len(log) == 4
            assert {r.backend for r in log} == {
                shadow.cache_key if scoped_backend else "numpy"
            }
        if device:
            assert len(dev.timeline) == 4

    def test_sweep_software_logs_and_books_like_the_serial_run(self):
        def records(max_workers):
            dev = Device()
            with mkl_verbose() as log, use_device(dev), call_site("remap_occ"):
                BlasSweep().sweep_software(
                    norbs=(256,),
                    modes=(ComputeMode.FLOAT_TO_BF16, ComputeMode.FLOAT_TO_TF32),
                    shrink=4096,
                    repeats=1,
                    max_workers=max_workers,
                )
            logged = Counter((r.routine, r.mode, r.m, r.n, r.k, r.site) for r in log)
            booked = Counter((e.name, e.site) for e in dev.timeline.events)
            return logged, booked

        serial, pooled = records(1), records(2)
        assert sum(serial[0].values()) == 3
        assert sum(serial[1].values()) == 3
        assert pooled == serial

    def test_results_keep_input_order(self):
        assert fan_out(lambda x: x * x, range(7), max_workers=3) == [
            x * x for x in range(7)
        ]

    def test_one_worker_runs_in_the_caller(self):
        caller = threading.get_ident()
        assert fan_out(lambda _: threading.get_ident(), range(3), max_workers=1) == [
            caller
        ] * 3


def _snapshot_of(_):
    return snapshot()


def _resolved_mode(_):
    return get_compute_mode().env_value


_WORKER_ENV = {
    MKL_COMPUTE_MODE_ENV: "FLOAT_TO_BF16",
    OZAKI_SLICES_ENV: "5",
    DRIFT_ENV: "1",
    ADAPTIVE_ENV: "1",
}


def _resolved_under_the_variables(_):
    """Set the variables here, as the paper's runs do, and resolve."""
    with scoped_env(_WORKER_ENV):
        resolved = (
            get_compute_mode().env_value,
            get_ozaki_slices(),
            drift_enabled(),
            adaptive_enabled(),
        )
    return resolved, _check_env_var_no_source_change()


class TestProcessFanOut:
    def test_workers_restore_the_callers_snapshot(self, shadow):
        policy = SitePolicy({"remap_occ": "FLOAT_TO_BF16"}, default="COMPLEX_3M")
        set_ozaki_slices(2)
        set_drift_enabled(True)
        set_adaptive_enabled(True)
        try:
            with compute_mode("FLOAT_TO_TF32"), policy.active(), use_backend(
                shadow
            ), call_site("remap_occ"):
                caller = snapshot()
                seen = fan_out(_snapshot_of, range(2), max_workers=2, processes=True)
        finally:
            set_ozaki_slices(None)
            set_drift_enabled(None)
            set_adaptive_enabled(None)
        assert caller["mode"] == "FLOAT_TO_TF32"
        assert caller["backend"] == shadow.cache_key
        for snap in seen:
            for key in (
                "mode", "policy", "site", "backend", "ozaki_slices", "drift",
                "adaptive",
            ):
                assert snap[key] == caller[key], key

    def test_workers_resolve_the_variables_like_their_caller(self):
        """A process worker that sets ``MKL_BLAS_COMPUTE_MODE`` (or the
        slice, drift or adaptive variable) runs under it, as its caller
        does: the restored snapshot must not install the caller's
        effective values at a rank above the variables."""
        expected = (("FLOAT_TO_BF16", 5, True, True), True)
        assert _resolved_under_the_variables(0) == expected
        seen = fan_out(
            _resolved_under_the_variables, range(2), max_workers=2, processes=True
        )
        assert seen == [expected] * 2

    def test_workers_inherit_the_variable_below_the_process_mode(self):
        with scoped_env({MKL_COMPUTE_MODE_ENV: "FLOAT_TO_TF32"}):
            threads = fan_out(_resolved_mode, range(2), max_workers=2)
            processes = fan_out(_resolved_mode, range(2), max_workers=2, processes=True)
            set_compute_mode("COMPLEX_3M")
            try:
                ranked = fan_out(_resolved_mode, range(2), max_workers=2, processes=True)
            finally:
                set_compute_mode(None)
        assert threads == processes == ["FLOAT_TO_TF32"] * 2
        assert ranked == ["COMPLEX_3M"] * 2

    def test_spawned_workers_keep_the_finite_check_switch(self, tmp_path):
        """Under ``spawn`` nothing is inherited: the workers must get the
        switch from the caller's snapshot (``fork`` would copy it and
        hide a missing field)."""
        script = tmp_path / "spawn_finite.py"
        script.write_text(
            "import multiprocessing\n"
            "from repro.blas.gemm import check_finite, finite_checks_enabled\n"
            "from repro.context import fan_out\n"
            "def probe(_):\n"
            "    return finite_checks_enabled()\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    check_finite(True)\n"
            "    print(fan_out(probe, range(2), max_workers=2, processes=True))\n"
        )
        env = dict(os.environ)
        src = str(SRC.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[True, True]"

    def test_empty_snapshot_restores_nothing(self):
        with compute_mode("FLOAT_TO_BF16"):
            before = current()
            context.restore({})
            assert current() is before


class TestScoping:
    def test_interleaved_drift_scopes_stay_per_thread(self):
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with drift_monitoring():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with drift_monitoring() as dm:
                second_in.set()
                first_out.wait(10)
                seen["own"] = active_drift_monitor() is dm

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert seen["own"] is True
        assert active_drift_monitor() is None

    def test_scopes_restore_on_exit(self):
        base = current()
        with call_site("nlp_prop"), compute_mode("FLOAT_TO_BF16"):
            assert current().site == "nlp_prop"
            assert current().mode is ComputeMode.FLOAT_TO_BF16
        assert current() is base


class TestOneMechanism:
    """Ambient state has one home and pools have one owner."""

    @staticmethod
    def _offenders(pattern, allowed):
        hits = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel not in allowed and re.search(pattern, path.read_text()):
                hits.append(rel)
        return hits

    def test_only_the_workspace_pool_is_thread_local(self):
        assert self._offenders(r"threading\.local\(", {"blas/workspace.py"}) == []

    def test_only_the_context_module_creates_pools(self):
        pattern = (
            r"ThreadPoolExecutor|ProcessPoolExecutor|concurrent\.futures"
            r"|multiprocessing|subprocess|threading\.Thread\("
        )
        assert self._offenders(pattern, {"context.py"}) == []
