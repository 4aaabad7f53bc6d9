"""Unit tests: split-plan caching (PreparedOperand, registry, LRU)."""

import numpy as np
import pytest

from repro.blas.gemm import check_finite, finite_checks, finite_checks_enabled, gemm
from repro.blas.plan import (
    ANON_MIN_BYTES,
    PreparedOperand,
    lookup_anonymous,
    operand_handle,
    plan_cache_clear,
    plan_cache_info,
    prepare,
    release,
)
from repro.blas.workspace import (
    Workspace,
    clear_workspace,
    fused_pair_products,
    get_workspace,
)
from repro.types import Precision


class TestPreparedOperand:
    def test_oriented_is_cached(self, rng):
        x = rng.standard_normal((6, 8)).astype(np.float32)
        plan = PreparedOperand(x)
        first = plan.oriented("N", np.float32)
        assert plan.oriented("N", np.float32) is first

    def test_oriented_matches_cold_path(self, rng):
        x = (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))).astype(
            np.complex64
        )
        plan = PreparedOperand(x)
        np.testing.assert_array_equal(
            plan.oriented("C", np.complex64), np.ascontiguousarray(x.conj().T)
        )

    def test_parts_match_cold_path(self, rng):
        x = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))).astype(
            np.complex64
        )
        plan = PreparedOperand(x)
        np.testing.assert_array_equal(
            plan.part("N", np.complex64, "re"),
            np.ascontiguousarray(x.real, dtype=np.float32),
        )
        np.testing.assert_array_equal(
            plan.part("T", np.complex64, "im"),
            np.ascontiguousarray(x.T.imag, dtype=np.float32),
        )
        np.testing.assert_array_equal(
            plan.part("N", np.complex64, "re+im"),
            plan.part("N", np.complex64, "re") + plan.part("N", np.complex64, "im"),
        )

    def test_conjugate_negates_imag_part(self, rng):
        x = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))).astype(
            np.complex64
        )
        plan = PreparedOperand(x)
        np.testing.assert_array_equal(
            plan.part("C", np.complex64, "im"),
            np.ascontiguousarray(-x.imag.T, dtype=np.float32),
        )

    def test_split_stack_matches_split_terms(self, rng):
        from repro.blas.rounding import split_terms

        x = rng.standard_normal((6, 9)).astype(np.float32)
        plan = PreparedOperand(x)
        stack = plan.split_stack("N", 7, 3)
        assert stack.shape == (3, 6, 9)
        assert stack.flags.c_contiguous
        for i, term in enumerate(split_terms(x, 7, 3)):
            np.testing.assert_array_equal(stack[i], term)

    def test_oriented_n_same_dtype_is_zero_copy(self, rng):
        # A contiguous same-dtype operand needs no derived copy at all:
        # the cache serves the backing array itself.
        x = rng.standard_normal((4, 4)).astype(np.float32)
        assert PreparedOperand(x).oriented("N", np.float32) is x

    def test_invalidate_drops_cache_and_bumps_version(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        first = plan.oriented("T", np.float32)  # "T" forces a packed copy
        v0 = plan.version
        plan.invalidate()
        assert plan.version == v0 + 1
        assert plan.oriented("T", np.float32) is not first

    def test_refresh_if_changed_detects_mutation(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        plan.fingerprint()
        stale = plan.oriented("T", np.float32)
        assert plan.refresh_if_changed() is False
        x[0, 0] += 1.0
        assert plan.refresh_if_changed() is True
        fresh = plan.oriented("T", np.float32)
        assert fresh is not stale
        np.testing.assert_array_equal(fresh, x.T)

    def test_refresh_without_baseline_is_conservative(self, rng):
        # No fingerprint was ever taken -> the plan cannot prove its
        # cached forms are fresh, so refresh must invalidate.
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        stale = plan.oriented("T", np.float32)
        assert plan.refresh_if_changed() is True
        assert plan.oriented("T", np.float32) is not stale
        # Baseline is now established; a second call is a clean no-op.
        assert plan.refresh_if_changed() is False

    def test_is_finite_memoised(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        assert plan.is_finite()
        x[1, 1] = np.inf
        # Stale until told — that is the explicit-API contract.
        assert plan.is_finite()
        plan.invalidate()
        assert not plan.is_finite()


class TestRegistry:
    def test_prepare_is_identity_keyed(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        assert prepare(x) is prepare(x)

    def test_prepare_passes_plans_through(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = prepare(x)
        assert prepare(plan) is plan

    def test_distinct_arrays_distinct_plans(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        y = x.copy()
        assert prepare(x) is not prepare(y)

    def test_release_forgets(self, rng):
        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = prepare(x)
        release(x)
        assert prepare(x) is not plan


class TestAnonymousCache:
    def setup_method(self):
        plan_cache_clear()

    def teardown_method(self):
        plan_cache_clear()

    def test_small_arrays_skip_cache(self, rng):
        x = rng.standard_normal((2, 2)).astype(np.float32)
        assert x.nbytes < ANON_MIN_BYTES
        assert lookup_anonymous(x) is None

    def test_content_keyed_hit(self, rng):
        n = int(np.sqrt(ANON_MIN_BYTES / 4)) + 2
        x = rng.standard_normal((n, n)).astype(np.float32)
        p1 = lookup_anonymous(x)
        p2 = lookup_anonymous(x.copy())  # same bytes, different object
        assert p1 is p2
        assert plan_cache_info()["hits"] == 1

    def test_mutation_misses(self, rng):
        n = int(np.sqrt(ANON_MIN_BYTES / 4)) + 2
        x = rng.standard_normal((n, n)).astype(np.float32)
        p1 = lookup_anonymous(x)
        x[0, 0] += 1.0
        assert lookup_anonymous(x) is not p1


class TestGemmWithPlans:
    @pytest.mark.parametrize(
        "mode", ["STANDARD", "FLOAT_TO_BF16X3", "FLOAT_TO_TF32", "COMPLEX_3M"]
    )
    def test_prepared_bitwise_equals_raw(self, rng, mode):
        a = (rng.standard_normal((9, 14)) + 1j * rng.standard_normal((9, 14))).astype(
            np.complex64
        )
        b = (rng.standard_normal((14, 6)) + 1j * rng.standard_normal((14, 6))).astype(
            np.complex64
        )
        raw = gemm(a, b, mode=mode)
        planned = gemm(prepare(a), prepare(b), mode=mode)
        np.testing.assert_array_equal(
            raw.view(np.uint64), planned.view(np.uint64)
        )

    def test_prepared_with_trans(self, rng):
        a = (rng.standard_normal((14, 9)) + 1j * rng.standard_normal((14, 9))).astype(
            np.complex64
        )
        b = (rng.standard_normal((14, 6)) + 1j * rng.standard_normal((14, 6))).astype(
            np.complex64
        )
        raw = gemm(a, b, trans_a="C", mode="FLOAT_TO_BF16X2")
        planned = gemm(prepare(a), b, trans_a="C", mode="FLOAT_TO_BF16X2")
        np.testing.assert_array_equal(raw.view(np.uint64), planned.view(np.uint64))

    def test_typed_wrappers_accept_plans(self, rng):
        from repro.blas.gemm import cgemm

        a = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))).astype(
            np.complex64
        )
        b = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))).astype(
            np.complex64
        )
        np.testing.assert_array_equal(cgemm(prepare(a), b), cgemm(a, b))

    def test_shape_errors_still_raised(self, rng):
        a = rng.standard_normal((4, 5)).astype(np.float32)
        b = rng.standard_normal((6, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="inner dimensions"):
            gemm(prepare(a), prepare(b))


class TestFiniteToggle:
    def test_suite_default_is_on(self):
        # The tests/conftest autouse fixture switches the scans on.
        assert finite_checks_enabled()

    def test_off_skips_scan(self, rng):
        a = rng.standard_normal((3, 3)).astype(np.float32)
        a[0, 0] = np.nan
        b = rng.standard_normal((3, 3)).astype(np.float32)
        with finite_checks(False):
            out = gemm(a, b)  # no raise
        assert np.isnan(out).any()
        with pytest.raises(FloatingPointError, match="non-finite"):
            gemm(a, b)

    def test_toggle_roundtrip(self):
        check_finite(False)
        assert not finite_checks_enabled()
        check_finite(True)
        assert finite_checks_enabled()


class TestWorkspace:
    def test_buffers_reused(self):
        ws = Workspace()
        b1 = ws.get("prod", (4, 5), np.float32)
        b2 = ws.get("prod", (4, 5), np.float32)
        assert b1 is b2
        assert ws.get("prod", (4, 6), np.float32) is not b1
        ws.clear()
        assert ws.get("prod", (4, 5), np.float32) is not b1

    def test_thread_local_workspace(self):
        import threading

        ws_main = get_workspace()
        seen = {}

        def other():
            seen["ws"] = get_workspace()

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert seen["ws"] is not ws_main
        clear_workspace()

    def test_fused_pair_products_bitwise(self, rng):
        from repro.blas.split import component_pairs

        a_terms = np.stack(
            [rng.standard_normal((7, 11)).astype(np.float32) for _ in range(3)]
        )
        b_terms = np.stack(
            [rng.standard_normal((11, 5)).astype(np.float32) for _ in range(3)]
        )
        pairs = component_pairs(3)
        naive = None
        for i, j in pairs:
            prod = np.matmul(a_terms[i - 1], b_terms[j - 1])
            naive = prod if naive is None else naive + prod
        out = fused_pair_products(a_terms, b_terms, pairs)
        np.testing.assert_array_equal(out.view(np.uint32), naive.view(np.uint32))

    def test_fused_result_is_not_a_workspace_buffer(self, rng):
        from repro.blas.split import component_pairs

        a_terms = np.stack(
            [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(2)]
        )
        b_terms = np.stack(
            [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2)]
        )
        pairs = component_pairs(2)
        out1 = fused_pair_products(a_terms, b_terms, pairs).copy()
        out2 = fused_pair_products(a_terms, b_terms, pairs)
        np.testing.assert_array_equal(out1, out2)  # second call didn't clobber


class TestOperandHandle:
    def test_handle_shape_tracks_trans(self, rng):
        x = rng.standard_normal((3, 7)).astype(np.float32)
        h = operand_handle(x, "T", np.float32)
        assert h.shape == (7, 3)

    def test_conjugate_handle_shape_allocates_nothing(self, rng):
        # .shape is read on every gemm: it must not build a conjugated
        # copy of the operand.
        import tracemalloc

        x = (rng.standard_normal((1024, 128)) + 1j).astype(np.complex64)
        assert x.nbytes >= 1 << 20
        h = operand_handle(x, "C", np.complex64)
        tracemalloc.start()
        try:
            shape = h.shape
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shape == (128, 1024)
        assert peak < 4096  # bookkeeping only; a copy would be 1 MiB

    def test_conjugate_parts_match_conjugating_packing(self, rng):
        x = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))).astype(
            np.complex64
        )
        x.imag[0, :4] = [0.0, -0.0, np.nan, -np.nan]
        x.real[1, :2] = [np.nan, -0.0]
        conj = np.swapaxes(x, -1, -2).conj()
        plan = PreparedOperand(x)
        for which, comp in (("re", conj.real), ("im", conj.imag)):
            got = plan.part("C", np.complex64, which)
            assert got.flags.c_contiguous
            want = np.ascontiguousarray(comp, dtype=np.float32)
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        np.testing.assert_array_equal(
            plan.oriented("C", np.complex64).view(np.uint64),
            np.ascontiguousarray(conj).view(np.uint64),
        )

    def test_conjugate_parts_of_real_operand(self, rng):
        # A real operand in a complex GEMM: its conjugate's imaginary
        # part is -0.0, exactly what conjugating the cast copy gives.
        x = rng.standard_normal((4, 6)).astype(np.float32)
        want = np.ascontiguousarray(x.astype(np.complex64).T.conj().imag)
        got = PreparedOperand(x).part("C", np.complex64, "im")
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_split_gemm_real_accepts_plans(self, rng):
        from gemm_oracles import split_gemm_reference

        from repro.blas.split import split_gemm_real

        a = rng.standard_normal((6, 10)).astype(np.float32)
        b = rng.standard_normal((10, 4)).astype(np.float32)
        ref = split_gemm_reference(a, b, Precision.BF16, 3)
        out = split_gemm_real(prepare(a), prepare(b), Precision.BF16, 3)
        np.testing.assert_array_equal(out.view(np.uint32), ref.view(np.uint32))


class TestSplitExtension:
    """Escalation-path caching: shorter splits extend, never recompute."""

    def _counts(self, t, result, mode):
        return t.counter_value("blas.plan.split", result=result, mode=mode, site="-")

    def test_extension_is_bitwise_equal_to_from_scratch(self, rng):
        from repro.blas.rounding import split_terms

        x = rng.standard_normal((9, 13)).astype(np.float32)
        plan = PreparedOperand(x)
        plan.split_stack("N", 7, 1)
        extended = plan.split_stack("N", 7, 3)  # extends the 1-term split
        cold = split_terms(x, 7, 3)
        for i in range(3):
            np.testing.assert_array_equal(extended[i], cold[i])

    def test_counters_hit_extend_full(self, rng):
        from repro.telemetry.registry import disable, enable

        x = rng.standard_normal((6, 6)).astype(np.float32)
        plan = PreparedOperand(x)
        t = enable()
        try:
            plan.split_stack("N", 7, 1)   # full
            plan.split_stack("N", 7, 2)   # extend from 1-term
            plan.split_stack("N", 7, 2)   # hit
            plan.split_stack("N", 7, 3)   # extend from 2-term
            plan.split_stack("N", 10, 1)  # different keep_bits: full
        finally:
            disable()
        assert self._counts(t, "full", "bf16") == 1
        assert self._counts(t, "extend", "bf16x2") == 1
        assert self._counts(t, "hit", "bf16x2") == 1
        assert self._counts(t, "extend", "bf16x3") == 1
        assert self._counts(t, "full", "tf32") == 1

    def test_escalate_demote_escalate_cycle_hits_cache(self, rng):
        """The adaptive scheduler's round trip must be all cache hits.

        BF16 -> BF16X2 (escalate) -> BF16 (demote) -> BF16X2
        (re-escalate): after the first escalation every request is
        served from cache — demotion uses the prefix of the wider
        split, re-escalation finds the wider split still cached.
        """
        from repro.telemetry.registry import disable, enable

        x = rng.standard_normal((8, 8)).astype(np.float32)
        plan = PreparedOperand(x)
        t = enable()
        try:
            first = plan.split_stack("N", 7, 1)    # BF16: full
            wide = plan.split_stack("N", 7, 2)     # escalate: extend
            demoted = plan.split_stack("N", 7, 1)  # demote: hit
            again = plan.split_stack("N", 7, 2)    # re-escalate: hit
        finally:
            disable()
        assert demoted is first and again is wide
        assert self._counts(t, "full", "bf16") == 1
        assert self._counts(t, "extend", "bf16x2") == 1
        assert self._counts(t, "hit", "bf16") == 1
        assert self._counts(t, "hit", "bf16x2") == 1
        np.testing.assert_array_equal(wide[0], first[0])  # prefix property

    def test_invalidated_counter_name(self, rng):
        from repro.telemetry.registry import disable, enable

        x = rng.standard_normal((4, 4)).astype(np.float32)
        plan = PreparedOperand(x)
        plan.split_stack("N", 7, 2)
        t = enable()
        try:
            plan.invalidate()
        finally:
            disable()
        assert t.counter_value("blas.plan.invalidated") == 1.0


class TestColumnBlocks:
    """``columns()`` children: cached, fresh after a parent change, and
    bitwise the plain slice."""

    def _psi0(self, rng):
        return (rng.standard_normal((40, 12)) + 1j * rng.standard_normal((40, 12))).astype(
            np.complex64
        )

    def test_child_is_cached_view(self, rng):
        x = self._psi0(rng)
        plan = PreparedOperand(x)
        child = plan.columns(8, 12)
        assert plan.columns(8, 12) is child
        assert np.shares_memory(child.array, x)
        np.testing.assert_array_equal(child.array, x[:, 8:12])

    def test_invalidate_drops_children(self, rng):
        plan = PreparedOperand(self._psi0(rng))
        child = plan.columns(0, 8)
        plan.invalidate()
        assert plan.columns(0, 8) is not child

    def test_refresh_after_parent_write_drops_children(self, rng):
        x = self._psi0(rng)
        plan = PreparedOperand(x)
        plan.fingerprint()
        child = plan.columns(0, 8)
        stale = child.split_stack("C", 7, 3, part="re", dtype=np.complex64)
        assert plan.refresh_if_changed() is False
        assert plan.columns(0, 8) is child
        x[3, 2] += 1.0
        assert plan.refresh_if_changed() is True
        fresh = plan.columns(0, 8)
        assert fresh is not child
        got = fresh.split_stack("C", 7, 3, part="re", dtype=np.complex64)
        assert not np.array_equal(got, stale)

    @pytest.mark.parametrize(
        "mode", ["STANDARD", "FLOAT_TO_BF16X3", "OZAKI_INT8", "COMPLEX_3M"]
    )
    def test_gemm_on_child_equals_plain_slice(self, rng, mode):
        x = self._psi0(rng)
        psi = self._psi0(rng)
        plan = PreparedOperand(x)
        for _ in range(2):  # second pass is served from the cached child
            got_p = gemm(psi[:, :8], plan.columns(8, 12), trans_a="C", mode=mode)
            got_q = gemm(plan.columns(0, 8), psi[:, :8], trans_a="C", mode=mode)
            want_p = gemm(psi[:, :8], x[:, 8:], trans_a="C", mode=mode)
            want_q = gemm(x[:, :8], psi[:, :8], trans_a="C", mode=mode)
            np.testing.assert_array_equal(got_p.view(np.uint64), want_p.view(np.uint64))
            np.testing.assert_array_equal(got_q.view(np.uint64), want_q.view(np.uint64))

    def test_children_keep_only_split_forms(self, rng):
        x = self._psi0(rng)
        psi = self._psi0(rng)
        plan = PreparedOperand(x)
        for mode in ("STANDARD", "COMPLEX_3M", "FLOAT_TO_TF32", "FLOAT_TO_BF16X3"):
            for _ in range(2):
                gemm(psi[:, :8], plan.columns(8, 12), trans_a="C", mode=mode)
                gemm(plan.columns(0, 8), psi[:, :8], trans_a="C", mode=mode)
        for child in (plan.columns(8, 12), plan.columns(0, 8)):
            kinds = {key[0] for key in child._derived}
            assert "split" in kinds and not kinds & {"oriented", "part"}

    @pytest.mark.parametrize("mode", ["STANDARD", "COMPLEX_3M"])
    def test_remap_on_prepared_psi0_retains_no_block_copies(self, rng, mode):
        # STANDARD and 3M multiply the blocks' packed copies and parts
        # directly; like a plain array's, they must not outlive the call.
        import tracemalloc
        from types import SimpleNamespace

        from repro.blas.modes import compute_mode
        from repro.dcmesh.occupation import remap_occ

        shape = (8192, 16)  # 1 MiB of complex64
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )
        psi = x + np.complex64(1e-3)
        occupations = np.array([2.0] * 6 + [0.0] * 10)
        mesh = SimpleNamespace(dv=1.0)
        plan = PreparedOperand(x)
        with compute_mode(mode):
            want = remap_occ(psi, x, occupations, mesh)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                got = remap_occ(psi, plan, occupations, mesh)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert retained < x.nbytes // 16  # the child views, not the blocks
        assert got.nexc == want.nexc
        np.testing.assert_array_equal(got.occ_remapped, want.occ_remapped)


class TestWarmedParentChildren:
    """A child whose parent has cached a form slices it — a row view for
    ``'T'``/``'C'``, a packed column copy for ``'N'`` — and a GEMM on the
    child still equals the GEMM on the packed slice, bit for bit.  Ozaki
    stacks are sliced only when the cut runs across their fibres."""

    START, STOP = 3, 9
    #: The kind of form each mode's GEMM reads from the child.
    FORM = {
        "STANDARD": "oriented",
        "FLOAT_TO_BF16X3": "split",
        "FLOAT_TO_TF32": "split",
        "COMPLEX_3M": "parts",
        "OZAKI_INT8": "ozaki",
        "EMULATED_FP64": "efp64",
    }

    @staticmethod
    def _complex(rng, shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            np.complex64
        )

    def _other(self, rng, x, trans, side):
        rows, cols = x.shape[::-1] if trans == "C" else x.shape
        return self._complex(rng, (cols, 5) if side == "a" else (7, rows))

    @staticmethod
    def _gemm(x, other, trans, side, mode):
        if side == "a":
            return gemm(x, other, trans_a=trans, mode=mode)
        return gemm(other, x, trans_b=trans, mode=mode)

    @staticmethod
    def _slices(t, kind):
        total = 0
        for (name, labels), value in t.counters.items():
            labels = dict(labels)
            if labels.get("result") != "slice":
                continue
            if (name, kind) == ("blas.plan.split", "split") or (
                name == "blas.plan.derive" and labels.get("kind") == kind
            ):
                total += value
        return total

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("trans", ["N", "C"])
    @pytest.mark.parametrize("mode", sorted(FORM))
    def test_child_of_warmed_parent_equals_packed_slice(self, rng, mode, trans, side):
        from repro.telemetry.registry import disable, enable

        x = self._complex(rng, (40, 12))
        plan = PreparedOperand(x)
        self._gemm(plan, self._other(rng, x, trans, side), trans, side, mode)
        block = np.ascontiguousarray(x[:, self.START : self.STOP])
        other = self._other(rng, block, trans, side)
        t = enable()
        try:
            got = self._gemm(
                plan.columns(self.START, self.STOP), other, trans, side, mode
            )
        finally:
            disable()
        want = self._gemm(block, other, trans, side, mode)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        along_fibres = mode == "OZAKI_INT8" and (trans == "N") != (side == "b")
        sliced = self._slices(t, self.FORM[mode])
        assert sliced == 0 if along_fibres else sliced >= 1


class TestOzakiTwins:
    """``op(A) = Xᴴ`` and ``op(B) = X`` slice the same fibres, X's
    columns: a plan slices them once and derives the conjugate by
    negating the imaginary slices, whichever is asked for first.  The
    data holds elements that exhaust their slices early (``+-0.5``,
    ``+-1``), whose later zero slices a negation signs differently from
    a fresh slicing, and signed zeros; no product may differ."""

    @staticmethod
    def _x(rng, nan):
        x = (rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))).astype(
            np.complex64
        )
        exact = [0.5, -0.5, 0.0, -0.0, 0.25, -0.75, 1.0, -1.0]
        x.real[:8, 0] = exact
        x.imag[:8, 1] = exact
        x[:, 2] = np.complex64(complex(-0.0, 0.0))
        if nan:
            x.imag[3, 4] = np.nan  # a float64-sliced fibre: sliced afresh
        return x

    @pytest.mark.parametrize("nan", [False, True])
    @pytest.mark.parametrize("first", ["a", "b"])
    def test_twin_products_equal_fresh_slicing(self, rng, monkeypatch, first, nan):
        import repro.blas.plan as plan_mod
        from repro.blas.modes import compute_mode

        x = self._x(rng, nan)
        left = (rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))).astype(
            np.complex64
        )
        right = np.ascontiguousarray(left.T)
        plan = PreparedOperand(x)

        def as_a(p):
            return gemm(p, right, trans_a="C")

        def as_b(p):
            return gemm(left, p)

        sliced = []
        original = plan_mod.ozaki_slice_terms

        def counted(base, n_slices):
            if base.shape == (2, 6, 40):  # X's columns as rows
                sliced.append(n_slices)
            return original(base, n_slices)

        monkeypatch.setattr(plan_mod, "ozaki_slice_terms", counted)
        with compute_mode("OZAKI_INT8"), finite_checks(False):
            for run in [as_a, as_b] if first == "a" else [as_b, as_a]:
                got, want = run(plan), run(x)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # Each plain GEMM slices X afresh; the plan slices it once (twice
        # when a NaN fibre keeps its float64 slices from being negated).
        assert len(sliced) == 2 + (2 if nan else 1)


class TestRunReusesPsi0:
    """A BF16X3 ``Simulation.run`` converts Psi(0) once, not per step, and
    each step's Psi(t) once per orientation."""

    #: Fresh conversions per QD step, one per operand orientation (the
    #: 4M decomposition splits re and im together): nlp_prop's psi, S
    #: and T; calc_energy's psi^H, T_A psi, psi and S; remap_occ's P and
    #: P^H.  remap_occ's Psi(t) blocks slice calc_energy's forms, and
    #: H_nl is converted once per SCF block.
    FRESH_PER_STEP = 9
    #: Converted once per run: Psi(0)^H and Psi(0) (nlp_prop, shared by
    #: calc_energy; the occupied block slices Psi(0)^H) and the virtual
    #: block, whose parent form does not exist yet at step 0.
    PSI0_FORMS = 3
    #: Fresh at the step-0 observation (calc_energy + remap_occ).
    FRESH_STEP0 = 6
    #: Converted once per SCF block: W and H_nl.
    PER_BLOCK = 2
    #: FFTs per QD step: the kinetic drift's forward and inverse, one
    #: forward FFT of Psi(t) for the current and the energy, and the
    #: energy's inverse.
    FFTS_PER_STEP = 4

    @staticmethod
    def _full_splits(t):
        return sum(
            v
            for (name, labels), v in t.counters.items()
            if name == "blas.plan.split" and ("result", "full") in labels
        )

    def test_split_counts(self, tiny_sim, monkeypatch):
        from repro.dcmesh.mesh import Mesh
        from repro.telemetry.registry import disable, enable

        ffts = []
        for name in ("fft", "ifft"):
            original = getattr(Mesh, name)

            def counted(mesh, x, _original=original):
                ffts.append(1)
                return _original(mesh, x)

            monkeypatch.setattr(Mesh, name, counted)
        assert tiny_sim.config.nscf >= 4  # one SCF block, so one W
        counts, n_ffts = {}, {}
        for n in (2, 4):
            ffts.clear()
            t = enable()
            try:
                tiny_sim.run(mode="FLOAT_TO_BF16X3", n_steps=n)
            finally:
                disable()
            assert t.counter_total("blas.plan.anon") == 0
            counts[n] = self._full_splits(t)
            n_ffts[n] = len(ffts)
        per_step = (counts[4] - counts[2]) / 2
        assert per_step == self.FRESH_PER_STEP
        once = counts[2] - 2 * per_step
        assert once == self.FRESH_STEP0 + self.PSI0_FORMS + self.PER_BLOCK
        assert (n_ffts[4] - n_ffts[2]) / 2 == self.FFTS_PER_STEP


class TestRunOwnsItsPlans:
    """Every plan ``Simulation.run`` makes (Psi(0)'s, each block's W and
    H_nl, each observation's Psi(t)) belongs to the run: none is left in
    a module registry once the run returns or unwinds."""

    @staticmethod
    def _track(monkeypatch):
        import weakref

        made = []
        init = PreparedOperand.__init__

        def tracking(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(PreparedOperand, "__init__", tracking)
        return made

    @staticmethod
    def _live(made):
        import gc

        gc.collect()
        return sum(ref() is not None for ref in made)

    def test_plans_die_with_the_run(self, tiny_sim, monkeypatch):
        made = self._track(monkeypatch)
        tiny_sim.run(mode="FLOAT_TO_BF16X3", n_steps=2 * tiny_sim.config.nscf)
        assert made and self._live(made) == 0

    def test_plans_die_when_the_run_raises(self, tiny_sim, monkeypatch):
        made = self._track(monkeypatch)

        def stop(step, record):
            if step == tiny_sim.config.nscf + 1:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            tiny_sim.run(mode="FLOAT_TO_BF16X3", progress=stop)
        assert made and self._live(made) == 0
