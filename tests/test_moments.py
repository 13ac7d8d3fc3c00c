"""Tests for window moments, their correlation expansion, and the
two-scale experiment.

Hard identities (exact rearrangements) are asserted at the Fraction level;
asymptotic predictions are checked as normalized residuals with soft
tolerances frozen from observed desk-scale behaviour.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from primelab import (
    ShiftPattern,
    coupled_C,
    first_moment_identity,
    h_from_lambda,
    mixed_moment,
    moment_psi,
    moment_psiR,
    omega_experiment,
    s_k,
    s_tilde_k,
)
from primelab import tables as tables_mod
from primelab.approximants import build_weights, lambda_R_range
from primelab.moments import (
    _compositions,
    _lam_windows,
    _multinomial,
    expand_via_correlations,
    gallagher_prediction,
    ms_prediction,
    omega_expansions,
    stirling2,
)


class TestCombinatorics:
    def test_stirling_second_kind(self):
        """S(k, r) against the classical table and the defining recurrence."""
        table = {(1, 1): 1, (2, 1): 1, (2, 2): 1, (3, 1): 1, (3, 2): 3,
                 (3, 3): 1, (4, 2): 7, (4, 3): 6, (5, 2): 15, (5, 3): 25,
                 (6, 3): 90}
        for (k, r), expected in table.items():
            assert stirling2(k, r) == expected, (k, r)

    def test_stirling_row_sums_are_bell(self):
        """sum_r S(k, r) = B_k (Bell numbers 1, 2, 5, 15, 52, ...)."""
        bell = [1, 2, 5, 15, 52, 203]
        for k, b in enumerate(bell, start=1):
            assert sum(stirling2(k, r) for r in range(1, k + 1)) == b

    def test_stirling_guards(self):
        with pytest.raises(ValueError):
            stirling2(0, 1)
        with pytest.raises(ValueError):
            stirling2(3, 4)

    def test_compositions_enumerate_all(self):
        """Compositions of k into r positive parts: count = C(k-1, r-1)."""
        for k, r in ((4, 2), (5, 3), (6, 1)):
            comps = list(_compositions(k, r))
            assert len(comps) == math.comb(k - 1, r - 1)
            assert all(sum(c) == k and len(c) == r and min(c) >= 1 for c in comps)
            assert len(set(comps)) == len(comps)

    def test_multinomial(self):
        assert _multinomial(3, (1, 1, 1)) == 6
        assert _multinomial(3, (2, 1)) == 3
        assert _multinomial(5, (3, 2)) == 10

    def test_h_from_lambda(self):
        assert h_from_lambda(10**6, 1.0) == round(math.log(10**6))
        assert h_from_lambda(100, 0.0001) == 1  # floor at 1


class TestGroupingIdentity:
    def test_exact_small_cells(self):
        """M_k(N, h, psi_R) = sum over patterns of multinomially-weighted
        S_k values, exactly, as Fractions."""
        for k in (1, 2, 3):
            for h in (3, 5):
                rep = moment_psiR(1500, h, 12, k, exact=True, expand=True)
                assert rep.exact
                assert isinstance(rep.computed, Fraction)
                assert rep.computed == rep.via_correlations, (k, h)
                assert rep.expansion_residual == 0

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(2, 300),
        h=st.integers(1, 6),
        R=st.integers(1, 40),
        k=st.integers(1, 3),
        primed=st.booleans(),
    )
    def test_property_exact_residual_zero(self, N, h, R, k, primed):
        """The grouping identity holds with no tolerance on random cells."""
        rep = moment_psiR(N, h, R, k, exact=True, expand=True, primed=primed)
        assert rep.expansion_residual == 0
        assert rep.computed == rep.via_correlations

    def test_float_matches_exact(self):
        rep_f = moment_psiR(1500, 4, 12, 2, expand=True)
        rep_e = moment_psiR(1500, 4, 12, 2, exact=True)
        assert abs(rep_f.computed - float(rep_e.computed)) < 1e-9 * abs(rep_f.computed)
        assert abs(rep_f.expansion_residual) < 1e-12

    def test_expand_alone_matches_direct(self):
        direct = moment_psiR(2000, 6, 15, 3)
        via = expand_via_correlations(2000, 6, 15, 3)
        assert abs(direct.computed - via) < 1e-10 * abs(direct.computed)

    def test_compositions_listed_only_up_to_h(self, monkeypatch):
        """The expansion lists compositions into r parts only for r <= h,
        as no r > h has a shift tuple; its value is unchanged: k = 6 over
        h = 3 equals the direct moment exactly."""
        from primelab import moments

        asked = []
        real = moments._compositions

        def spy(total, parts):
            if total == 6:  # the recursion asks for smaller totals
                asked.append(parts)
            return real(total, parts)

        monkeypatch.setattr(moments, "_compositions", spy)
        via = expand_via_correlations(300, 3, 10, 6, exact=True)
        assert asked == [1, 2, 3]
        assert via == moment_psiR(300, 3, 10, 6, exact=True).computed

    def test_exact_path_stays_integer(self):
        """Exact mode never passes through floats: every lambda_R value is a
        Python int, and the exact sums are Fractions."""
        from primelab import ShiftPattern, s_k
        vals = lambda_R_range(600, build_weights(12, exact=True))
        assert all(type(v) is int for v in vals)
        res = s_k(500, ShiftPattern((0, 2), (2, 1)), 12, exact=True)
        assert type(res.exact_value) is Fraction
        rep = moment_psiR(500, 4, 12, 2, exact=True, expand=True)
        assert type(rep.computed) is Fraction
        assert type(rep.via_correlations) is Fraction
        assert type(expand_via_correlations(500, 3, 12, 3, exact=True)) is Fraction

    def test_primed_range_identity(self):
        rep = moment_psiR(800, 4, 10, 2, exact=True, expand=True, primed=True)
        assert rep.computed == rep.via_correlations

    def test_brute_force_window_sum(self):
        """M_k = sum_{n <= N} (sum_{n < m <= n+h} lambda_R(m))^k by loops."""
        from primelab import build_weights, lambda_R_range
        N, h, R, k = 300, 5, 9, 2
        w = build_weights(R)
        lam = lambda_R_range(N + h, w)
        brute = sum(float(lam[n + 1:n + h + 1].sum()) ** k for n in range(1, N + 1))
        rep = moment_psiR(N, h, R, k)
        assert abs(rep.computed - brute) < 1e-9 * max(1.0, abs(brute))


class TestFirstMomentIdentity:
    def test_routes_agree_exactly(self):
        """Direct window sum, three-piece split, and psi-form evaluation
        agree at the level of integer log-coefficient vectors."""
        for N, h in ((2000, 30), (5000, 11), (9973, 100)):
            rep = first_moment_identity(N, h)
            assert rep.exact_equal_12, (N, h)
            assert rep.exact_equal_13, (N, h)
            assert rep.max_abs_diff < 1e-7

    @settings(max_examples=40, deadline=None)
    @given(cell=st.integers(1, 5000).flatmap(
        lambda N: st.tuples(st.just(N), st.integers(1, min(N, 60)))))
    def test_property_routes_agree_exactly(self, cell):
        """The three routes have equal integer multiplicity vectors on
        random (N, h) with 1 <= h <= min(N, 60)."""
        rep = first_moment_identity(*cell)
        assert rep.exact_equal_12 and rep.exact_equal_13, cell

    def test_direct_value_brute(self, tables_small):
        """The shared value equals a literal double loop over the window."""
        N, h = 400, 9
        lam = tables_small.lam
        brute = sum(float(lam[n + 1:n + h + 1].sum()) for n in range(1, N + 1))
        rep = first_moment_identity(N, h)
        assert abs(rep.direct - brute) < 1e-9


class TestMomentPsi:
    def test_first_moment_near_hN(self):
        """M_1 = sum of psi-windows ~ h N by the prime number theorem."""
        N = 10**6
        h = h_from_lambda(N, 1.0)
        rep = moment_psi(N, h, 1)
        assert abs(rep.computed / (h * N) - 1) < 0.02

    def test_gallagher_prediction_formula(self):
        """N log^k N sum_r S(k, r) lambda^r with lambda = h / log N."""
        N, h, k = 10**6, 14, 3
        lam = h / math.log(N)
        expected = N * math.log(N) ** k * sum(
            stirling2(k, r) * lam**r for r in range(1, k + 1))
        assert abs(gallagher_prediction(N, h, k) / expected - 1) < 1e-12

    def test_uncentered_moment_against_brute(self, tables_small):
        N, h, k = 600, 7, 2
        lam = tables_small.lam
        brute = sum(float(lam[n + 1:n + h + 1].sum()) ** k for n in range(1, N + 1))
        rep = moment_psi(N, h, k)
        assert abs(rep.computed - brute) < 1e-9

    def test_centered_moment_against_brute(self, tables_small):
        N, h, k = 600, 7, 2
        lam = tables_small.lam
        brute = sum((float(lam[n + 1:n + h + 1].sum()) - h) ** k
                    for n in range(1, N + 1))
        rep = moment_psi(N, h, k, centered=True)
        assert rep.centered
        assert abs(rep.computed - brute) < 1e-9

    def test_ms_prediction_even_only(self):
        """(k-1)!! N (h log(N/h))^{k/2} for even k; odd k has no prediction."""
        N, h = 10**6, 20
        assert ms_prediction(N, h, 3) is None
        expected = 3 * N * (h * math.log(N / h)) ** 2
        assert abs(ms_prediction(N, h, 4) / expected - 1) < 1e-12

    def test_gallagher_cell_desk_scale(self):
        """Second uncentered moment vs Gallagher at N = 2e6, lambda = 2.

        Observed residual ~ -0.13 at this cell (slow log convergence);
        frozen soft tolerance 0.25."""
        N = 2 * 10**6
        h = h_from_lambda(N, 2.0)
        rep = moment_psi(N, h, 2)
        assert rep.predicted is not None
        assert abs(rep.prediction_residual) < 0.25

    def test_centered_cell_desk_scale(self):
        """Centered second moment vs (k-1)!! N (h log(N/h))^{k/2}.

        Observed residual ~ -0.22 at N = 2e6, lambda = 2; tolerance 0.35."""
        N = 2 * 10**6
        h = h_from_lambda(N, 2.0)
        rep = moment_psi(N, h, 2, centered=True)
        assert abs(rep.prediction_residual) < 0.35


class TestMomentPsiRPrediction:
    def test_k2_poly_in_lambda(self):
        """k = 2 prediction: observed residual -0.18 at N = 1e5 shrinking
        to -0.10 at N = 1e6, lambda = 2; frozen soft tolerances."""
        N = 10**5
        R = int(round(N ** 0.25))
        rep = moment_psiR(N, h_from_lambda(N, 1.0), R, 2)
        assert abs(rep.prediction_residual) < 0.25
        N = 10**6
        R = int(round(N ** 0.25))
        rep6 = moment_psiR(N, h_from_lambda(N, 2.0), R, 2)
        assert abs(rep6.prediction_residual) < 0.15

    def test_k3_trend_improves(self):
        """k = 3 diagonal carries the 3/4 constant; desk scale is far from
        the asymptote (residual -0.36 at N = 1e5), but it must shrink from
        N = 1e5 to 1e6.  (The 1e4 rung is skipped: rounding R = N^0.2 to an
        integer there moves the effective theta by 3%.)"""
        residuals = []
        for N in (10**5, 10**6):
            R = int(round(N ** 0.2))
            h = h_from_lambda(N, 1.0)
            rep = moment_psiR(N, h, R, 3)
            residuals.append(abs(rep.prediction_residual))
        assert residuals[1] < residuals[0]
        assert residuals[1] < 0.5


class TestMixedMoment:
    def test_direct_against_brute(self, tables_small):
        """M~_k = sum_n psi_R-window^{k-1} * psi-window, by literal loops."""
        from primelab import build_weights, lambda_R_range
        N, h, R, k = 300, 6, 8, 2
        w = build_weights(R)
        lamR = lambda_R_range(N + h, w)
        lam = tables_small.lam
        brute = sum(
            float(lamR[n + 1:n + h + 1].sum()) ** (k - 1)
            * float(lam[n + 1:n + h + 1].sum())
            for n in range(1, N + 1))
        rep = mixed_moment(N, h, R, k)
        assert abs(rep.computed - brute) < 1e-9 * max(1.0, abs(brute))

    def test_expansion_residual_small(self):
        """The mixed expansion drops an O(R N^eps) boundary piece, leaving
        a small reported (never asserted-zero) residual relative to the
        moment itself."""
        N, h, R = 10_000, 9, 40
        for k in (2, 3):
            rep = mixed_moment(N, h, R, k)
            assert rep.via_correlations is not None
            assert abs(rep.expansion_residual) < 0.05 * abs(rep.computed), k

    def test_prediction_cells_desk_scale(self):
        """Mixed predictions (no 3/4 on the k = 3 diagonal): residuals
        observed ~ -0.15 at the frozen cells; tolerance 0.25."""
        N = 10**6
        R = int(round(N ** 0.25))
        rep2 = mixed_moment(N, h_from_lambda(N, 1.0), R, 2)
        assert abs(rep2.prediction_residual) < 0.25
        rep3 = mixed_moment(N, h_from_lambda(N, 5.0), R, 3)
        assert abs(rep3.prediction_residual) < 0.25


class TestOmegaExperiment:
    @settings(max_examples=100, deadline=None)
    @given(
        uv=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=1, max_size=12),
        a=st.fractions(max_denominator=20),
        b=st.fractions(max_denominator=20),
    )
    def test_expansion_identity_exact_on_fractions(self, uv, a, b):
        """The binomial rearrangements of m2 and m3, fed the power sums of
        integer arrays U and V, equal sum (U-a)(V-b) and sum (U-a)^2 (V-b)
        summed term by term in Fractions, for rational a and b."""
        su = sum(u for u, _ in uv)
        sv = sum(v for _, v in uv)
        su2 = sum(u * u for u, _ in uv)
        suv = sum(u * v for u, v in uv)
        su2v = sum(u * u * v for u, v in uv)
        m2, m3 = omega_expansions(su, sv, su2, suv, su2v, a, b, len(uv))
        assert m2 == sum((u - a) * (v - b) for u, v in uv)
        assert m3 == sum((u - a) ** 2 * (v - b) for u, v in uv)

    def test_identity_residuals_small_cell(self):
        """Both expansion identities hold to rounding (relative residuals)."""
        N, h, R = 8000, 35, 100
        exp = omega_experiment(N, h, R, 0.3, -0.5)
        assert 0 <= exp.identity_residual_2 < 1e-9
        assert 0 <= exp.identity_residual_3 < 1e-9

    def test_precondition_A_below_h(self):
        """A = sqrt(h log N) must stay below h."""
        with pytest.raises(ValueError):
            omega_experiment(8000, 5, 100, 0.3, -0.5)

    def test_degenerate_offsets_vanish(self):
        """rho = C = 0 collapses both offsets to h: m2, m3 become the plain
        centered-window cross moments."""
        N, h, R = 8000, 40, 100
        exp = omega_experiment(N, h, R, 0.0, 0.0)
        assert exp.A > 0
        assert math.isfinite(exp.m2) and math.isfinite(exp.m3)

    def test_coupled_C_zeroes_prediction(self):
        """C = -(theta - alpha)/rho solves rho C^2 log N + (2C + rho)
        log(R/h) = 0 asymptotically; check the defining relation."""
        theta, alpha, rho = 0.25, 0.12, 0.3
        C = coupled_C(theta, alpha, rho)
        assert abs(C - (-(theta - alpha) / rho)) < 1e-15
        with pytest.raises(ValueError):
            coupled_C(0.25, 0.12, 0.0)

    def test_predicted_m3_sign_reported(self):
        """The prediction is attached and finite; its sign is reported,
        never asserted (the asymptotic regime is unreachable)."""
        N, h, R = 8000, 35, 100
        exp = omega_experiment(N, h, R, 0.3, -0.5)
        assert math.isfinite(exp.predicted_m3)


class TestTableFetches:
    @pytest.mark.parametrize("call", [
        lambda: mixed_moment(3000, 10, 20, 3),
        lambda: first_moment_identity(3000, 10),
        lambda: omega_experiment(8000, 35, 100, 0.3, -0.5),
    ], ids=["mixed_moment", "first_moment_identity", "omega_experiment"])
    def test_lambda_derived_once_per_call(self, monkeypatch, call):
        """One table fetch and one pass of psi over its prime powers serve
        both the Lambda and the psi reads."""
        from primelab import tables
        real = tables.psi_blocks
        calls = []
        monkeypatch.setattr(tables, "psi_blocks",
                            lambda n, blocks: calls.append(n) or real(n, blocks))
        call()
        assert len(calls) == 1


class TestStreamedWindows:
    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(1, 400),
        h=st.integers(1, 120),
        R=st.integers(1, 40),
        primed=st.booleans(),
        exact=st.booleans(),
        block_max=st.integers(1, 64),
    )
    def test_property_windows_equal_dense_cumsum(self, N, h, R, primed, exact, block_max):
        """The block-streamed windows are those of one dense running sum: the
        same float64 bytes as a long-double np.cumsum differenced and then
        cast, and the same Python ints in exact mode; with blocks so small
        that the windows span several blocks and h may exceed BLOCK_MAX.
        The blocks of n come in order and cover [start, start + N) once.
        (``TestLambdaRBlock`` checks the lambda_R blocks they are summed
        from.)"""
        start = N + 1 if primed else 1
        n_top = start + N - 1 + h
        weights = build_weights(R, exact=exact)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables_mod, "BLOCK_MAX", block_max)
            blocks = [(a, b, w.copy()) for a, b, w in _lam_windows(N, h, weights, start)]
        edges = [start] + [b for _a, b, _w in blocks]
        assert [a for a, _b, _w in blocks] == edges[:-1] and edges[-1] == start + N
        assert all(w.size == b - a for a, b, w in blocks)
        win = np.concatenate([w for _a, _b, w in blocks])
        if exact:
            pre = np.cumsum(lambda_R_range(n_top, weights))
            want = pre[start + h : start + N + h] - pre[start : start + N]
            assert [int(v) for v in win] == [int(v) for v in want]
        else:
            dense = lambda_R_range(n_top, weights)
            pre = np.cumsum(dense.astype(np.longdouble))
            want = (pre[start + h : start + N + h] - pre[start : start + N]).astype(np.float64)
            assert win.dtype == np.float64
            assert win.tobytes() == want.tobytes()

    def test_moment_psiR_peak_memory(self, monkeypatch):
        """With its weights cached, moment_psiR at N = 10**6 allocates under
        36 bytes per window entry: the float64 lambda_R range and windows
        and one block buffer, with no n-entry long-double copy or running
        sum.  It reads no table at the N scale."""
        monkeypatch.delenv(tables_mod.CACHE_DIR_ENV, raising=False)
        N, h, R, k = 10**6, 14, 15, 3
        build_weights(R)
        tracemalloc.start()
        try:
            moment_psiR(N, h, R, k)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 36 * N

    @pytest.mark.parametrize("call", [
        lambda: moment_psi(3000, 10, 2),
        lambda: moment_psi(3000, 10, 3, centered=True, primed=True),
        lambda: first_moment_identity(3000, 10),
        lambda: omega_experiment(8000, 35, 100, 0.3, -0.5),
    ], ids=["moment_psi", "moment_psi_centered", "first_moment_identity",
            "omega_experiment"])
    def test_psi_reads_derive_no_lambda_array(self, monkeypatch, call):
        """psi and the first-moment pieces come from the prime powers alone;
        the dense Lambda array is never derived for them."""
        calls = []
        monkeypatch.setattr(tables_mod, "_von_mangoldt",
                            lambda *args: calls.append(args) or pytest.fail("dense Lambda"))
        call()
        assert calls == []


def dense_pattern_sum(arrays, shifts, mults, n_lo, n_hi):
    """np.sum over n_lo..n_hi of prod_i arrays[i][n + shifts[i]] ** mults[i]
    on whole arrays, indices <= 0 read as 0: the N-entry reference."""
    n = np.arange(n_lo, n_hi + 1)
    acc = None
    for arr, j, a in zip(arrays, shifts, mults):
        w = np.zeros(n.size, dtype=arr.dtype)
        w[n + j >= 1] = arr[(n + j)[n + j >= 1]]
        acc = w**a if acc is None else acc * (w if a == 1 else w**a)
    return np.sum(acc)


class TestStreamedRoutes:
    @settings(max_examples=30, deadline=None)
    @given(
        N=st.integers(2, 700),
        shifts=st.lists(st.integers(-25, 25), min_size=1, max_size=3, unique=True),
        mults=st.lists(st.integers(1, 2), min_size=3, max_size=3),
        R=st.integers(1, 40),
        primed=st.booleans(),
        block_max=st.sampled_from([1, 3, 64, 1 << 16]),
    )
    def test_property_correlations_equal_whole_arrays(self, N, shifts, mults, R, primed, block_max):
        """s_k and s_tilde_k, summed BLOCK_MAX values of n at a time, are
        np.sum over the whole arrays of lambda_R and Lambda byte for byte,
        negative shifts included; the mixed sum's Lambda factor is the last."""
        shifts = [j for j in shifts if abs(j) <= N] or [0]
        mults = tuple(mults[: len(shifts)])
        pure = ShiftPattern(tuple(shifts), mults)
        mixed = ShiftPattern(tuple(shifts), mults[:-1] + (1,))
        n_lo, n_hi = (N + 1, 2 * N) if primed else (1, N)
        top = n_hi + max(max(shifts), 0)
        lam_r = lambda_R_range(top, build_weights(R))
        lam = tables_mod.tables_for(top).lam
        want_pure = dense_pattern_sum([lam_r] * len(shifts), shifts, mults, n_lo, n_hi)
        want_mixed = dense_pattern_sum([lam_r] * (len(shifts) - 1) + [lam], shifts,
                                       mixed.multiplicities, n_lo, n_hi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables_mod, "BLOCK_MAX", block_max)
            got_pure = s_k(N, pure, R, primed_range=primed, p_cut=100).computed
            got_mixed = s_tilde_k(N, mixed, R, primed_range=primed, p_cut=100).computed
        assert np.float64(got_pure).tobytes() == want_pure.tobytes()
        assert np.float64(got_mixed).tobytes() == want_mixed.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        N=st.integers(2, 700),
        h=st.integers(1, 40),
        k=st.integers(1, 4),
        R=st.integers(1, 40),
        primed=st.booleans(),
        centered=st.booleans(),
        block_max=st.sampled_from([1, 3, 64, 1 << 16]),
    )
    def test_property_moments_equal_whole_arrays(self, N, h, k, R, primed, centered, block_max):
        """moment_psiR, moment_psi and first_moment_identity, streamed
        BLOCK_MAX entries at a time, equal their N-entry forms byte for
        byte: np.sum of the k-th powers of the windows of one long-double
        cumsum of lambda_R, and of psi_prefix (centred or not), and the
        first moment's three routes read off psi_prefix and Lambda."""
        start = N + 1 if primed else 1
        top = start + N - 1 + h
        pre = np.cumsum(lambda_R_range(top, build_weights(R)).astype(np.longdouble))
        lam_win = (pre[start + h : start + N + h] - pre[start : start + N]).astype(np.float64)
        tb = tables_mod.tables_for(top)
        pp = tb.psi_prefix
        psi_win = pp[start + h : start + N + h] - pp[start : start + N]
        if centered:
            psi_win -= float(h)
        hh = min(h, N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables_mod, "BLOCK_MAX", block_max)
            got_r = moment_psiR(N, h, R, k, primed=primed).computed
            got_psi = moment_psi(N, h, k, centered=centered, primed=primed).computed
            first = first_moment_identity(N, hh)
        assert np.float64(got_r).tobytes() == np.sum(lam_win**k).tobytes()
        assert np.float64(got_psi).tobytes() == np.sum(psi_win**k).tobytes()
        direct = float(np.sum(pp[1 + hh : N + 1 + hh] - pp[1 : N + 1]))
        piece1 = float(np.dot(np.arange(1, hh, dtype=np.float64), tb.lam[2 : hh + 1])) if hh >= 2 else 0.0
        piece3 = float(np.dot(np.arange(hh, 0, -1, dtype=np.float64), tb.lam[N + 1 : N + hh + 1]))
        mid_lo = float(np.sum(pp[2:hh])) if hh >= 3 else 0.0
        psi_form = (float(pp[N + hh]) - float(pp[N]) - float(pp[hh]) - mid_lo
                    + float(np.sum(pp[N : N + hh])))
        assert (first.direct, first.three_piece, first.psi_form) == (
            direct, piece1 + hh * (float(pp[N]) - float(pp[hh])) + piece3, psi_form)
        assert first.exact_equal_12 and first.exact_equal_13


class TestStreamedMemory:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        """A cache dir holding the table file of 2*10**6 + 2 entries, which
        reaches every route's range."""
        path = tmp_path_factory.mktemp("cache")
        n = 2 * 10**6 + 2
        tables_mod.build_tables(n, path / f"primelab_tables_{n}.bin")
        return path

    @pytest.mark.parametrize("call", [
        lambda: s_k(10**6, ShiftPattern((0, 2), (1, 1)), 32),
        lambda: s_tilde_k(5 * 10**5, ShiftPattern((0, 2), (1, 1)), 1000, primed_range=True),
        lambda: moment_psiR(10**6, 14, 16, 3),
        lambda: moment_psi(10**6, 20, 3, centered=True),
        lambda: first_moment_identity(10**6, 20),
    ], ids=["s_k", "s_tilde_k", "moment_psiR", "moment_psi", "first_moment_identity"])
    def test_heap_peak_is_below_one_n_entry_array(self, monkeypatch, cache_dir, call):
        """At N = 10**6, on a cache file that serves every table request
        and weights the process already holds, each route's heap peak stays
        under 4 MiB, half of one N-entry float64 array: it holds
        O(BLOCK_MAX) entries, not O(N).  The route runs once untraced
        first, so that the weights and the singular series' primes are
        cached."""
        monkeypatch.setenv(tables_mod.CACHE_DIR_ENV, str(cache_dir))
        call()
        tracemalloc.start()
        try:
            call()
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestMomentGuards:
    def test_bad_k_raises(self):
        with pytest.raises(ValueError):
            moment_psiR(100, 4, 8, 0)

    def test_exact_requires_modest_R(self):
        with pytest.raises(ValueError):
            moment_psiR(100, 4, 5000, 2, exact=True)


class TestOversizeWindows:
    def test_refused_before_allocating(self, monkeypatch):
        """Windows reading n beyond tables.TABLE_MAX are refused before any
        weights, lambda_R range or table is allocated."""
        from primelab import moments
        from primelab.tables import TABLE_MAX

        def fail(*args, **kwargs):
            pytest.fail("allocated for an oversize window range")

        for name in ("build_weights", "lambda_R_range", "tables_for"):
            monkeypatch.setattr(moments, name, fail)
        big = 3 * 10**9
        for call in (
            lambda: moment_psiR(big, 10, 10, 1),
            lambda: moment_psiR(TABLE_MAX - 9, 10, 10, 1),
            lambda: moment_psiR(TABLE_MAX // 2, 10, 10, 2, primed=True),
            lambda: moment_psiR(big, 10, 10, 2, exact=True, expand=True),
            lambda: expand_via_correlations(big, 10, 10, 2),
            lambda: moment_psi(big, 10, 2),
            lambda: mixed_moment(big, 10, 10, 2),
            lambda: omega_experiment(big, 100, 10, 0.3, -0.5),
        ):
            with pytest.raises(ValueError, match="beyond"):
                call()
        # the largest window range still passes the check
        with pytest.raises(pytest.fail.Exception):
            moment_psiR(TABLE_MAX - 10, 10, 10, 1)
