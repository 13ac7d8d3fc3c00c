"""Tests for the truncated divisor-sum approximants lambda_R and LambdaBig_R.

The range evaluator is checked against lambda_R_direct, an
independent Fraction-arithmetic oracle that evaluates the defining double
sum y_d = d mu(d) sum_{r <= R, d | r} mu^2(r)/phi(r) term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from primelab import (
    biglambda_weights,
    build_weights,
    lambda_R_direct,
    lambda_R_range,
    psi_R,
    script_L,
    script_L_float,
)
from primelab.approximants import lambda_R_block, sigma_phi_bound
from primelab.constants import primes_up_to

SEED = 20260814
N_TRIALS = 60


def brute_script_L(R: int, k: int = 1) -> Fraction:
    """sum_{r <= R, (r,k)=1} mu^2(r)/phi(r), evaluated term by term."""
    total = Fraction(0)
    for r in range(1, R + 1):
        if math.gcd(r, k) != 1:
            continue
        if any(e > 1 for e in sympy.factorint(r).values()):
            continue
        total += Fraction(1, int(sympy.totient(r)))
    return total


class TestWeights:
    def test_y1_is_script_L(self):
        """y_1 = L_1(R): the d = 1 weight is the full Hildebrand sum."""
        for R in (1, 2, 5, 10, 37):
            w = build_weights(R, exact=True)
            assert Fraction(w.y[0], w.denominator) == brute_script_L(R)

    def test_weight_definition(self):
        """y_d = d mu(d) sum_{r <= R, d | r} mu^2(r)/phi(r) for every d <= R."""
        R = 24
        w = build_weights(R, exact=True)
        for idx, d in enumerate(w.d_values):
            d = int(d)
            total = Fraction(0)
            for r in range(1, R + 1):
                if r % d:
                    continue
                if any(e > 1 for e in sympy.factorint(r).values()):
                    continue
                total += Fraction(1, int(sympy.totient(r)))
            expected = d * sympy.mobius(d) * total
            assert Fraction(w.y[idx], w.denominator) == expected, d

    def test_floats_match_exact(self):
        rng = np.random.default_rng(SEED)
        for R in rng.integers(2, 120, size=12):
            w = build_weights(int(R), exact=True)
            exact = np.array([num / w.denominator for num in w.y])
            assert np.allclose(build_weights(int(R)).y, exact, rtol=1e-12, atol=1e-12)


class TestWeightsBound:
    def test_oversize_R_refused_before_any_table(self, monkeypatch, capsys):
        """R above WEIGHTS_R_MAX is refused, exit 3, before a table is
        sieved or read, for the weights of both approximants; R at the
        bound passes the check and reaches the table provider."""
        from primelab import approximants, cli, tables

        def fail(*args, **kwargs):
            pytest.fail("sieved for an oversize R")

        for module in (approximants, tables):
            monkeypatch.setattr(module, "tables_for", fail)
        monkeypatch.setattr(tables, "build_tables", fail)
        R = approximants.WEIGHTS_R_MAX + 1
        for build in (build_weights, biglambda_weights):
            with pytest.raises(ValueError, match="beyond"):
                build(R)
        assert cli.main(["lambda", "--r", str(R), "--n", "10"]) == 3
        assert "beyond" in capsys.readouterr().err

        def reached(R):
            raise LookupError(R)

        monkeypatch.setattr(approximants, "tables_for", reached)
        with pytest.raises(LookupError):
            build_weights(approximants.WEIGHTS_R_MAX)

    def test_oversize_R_sums_refused_before_any_table(self, monkeypatch):
        """The float sums over r <= R refuse R above WEIGHTS_R_MAX, by the
        weights' check, before a table is sieved or read."""
        from primelab import approximants, tables

        def fail(*args, **kwargs):
            pytest.fail("sieved for an oversize R")

        for module in (approximants, tables):
            monkeypatch.setattr(module, "tables_for", fail)
        monkeypatch.setattr(tables, "build_tables", fail)
        for R in (approximants.WEIGHTS_R_MAX + 1, tables.TABLE_MAX):
            for call in (approximants.script_L_float, approximants.sigma_phi_bound):
                with pytest.raises(ValueError, match="beyond"):
                    call(R)


class TestLambdaRange:
    def test_against_direct_oracle(self):
        """Range evaluation equals the Fraction oracle at random (n, R)."""
        rng = np.random.default_rng(SEED + 1)
        for _ in range(N_TRIALS):
            R = int(rng.integers(2, 30))
            n_hi = int(rng.integers(10, 400))
            w = build_weights(R, exact=True)
            vals = lambda_R_range(n_hi, build_weights(R))
            exact = lambda_R_range(n_hi, w)
            n = int(rng.integers(1, n_hi + 1))
            direct = lambda_R_direct(n, R)
            assert Fraction(exact[n], w.denominator) == direct, (n, R)
            assert abs(vals[n] - float(direct)) < 1e-9 * max(1.0, abs(float(direct)))

    def test_known_value_lambda_2_of_3(self):
        """lambda_2(3) = 2."""
        assert lambda_R_direct(3, 2) == 2

    def test_value_at_one(self):
        """lambda_R(1) = L_1(R) for every R."""
        for R in (1, 3, 10, 50):
            assert lambda_R_direct(1, R) == brute_script_L(R)

    def test_depends_only_on_squarefree_kernel(self):
        """lambda_R(n) = lambda_R(n*) since y_d vanishes off squarefree d."""
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            R = int(rng.integers(2, 20))
            n = int(rng.integers(2, 500))
            kernel = 1
            for p in sympy.factorint(n):
                kernel *= p
            assert lambda_R_direct(n, R) == lambda_R_direct(kernel, R), (n, R)


class TestLambdaRBlock:
    @settings(max_examples=60, deadline=None)
    @given(
        R=st.integers(1, 60),
        kind=st.sampled_from(["float", "exact", "biglambda"]),
        lo=st.integers(-50, 300),
        sizes=st.lists(st.integers(1, 90), min_size=1, max_size=8),
    )
    def test_property_blocks_are_one_scatter(self, R, kind, lo, sizes):
        """lambda_R over consecutive ragged blocks, from a lo that may be
        negative, has the bytes (the Python ints in exact mode) of one
        ascending-d scatter over the whole range from n = 0, the values of
        the n <= 0 being 0, and ``lambda_R_range`` is that scatter."""
        weights = (biglambda_weights(R) if kind == "biglambda"
                   else build_weights(R, exact=kind == "exact"))
        hi = lo + sum(sizes)
        ref = np.zeros(max(hi, 1), dtype=weights.y.dtype)
        for d, y in zip(weights.d_values.tolist(), weights.y.tolist()):
            ref[d::d] += y
        want = np.zeros(hi - lo, dtype=ref.dtype)
        first = max(lo, 0)
        if first < hi:
            want[first - lo :] = ref[first:hi]
        got, at = [], lo
        for size in sizes:
            got.append(lambda_R_block(at, at + size, weights))
            at += size
        got = np.concatenate(got)
        assert got.dtype == ref.dtype
        assert list(got) == list(want) if kind == "exact" else got.tobytes() == want.tobytes()
        whole = lambda_R_range(hi - 1, weights) if hi >= 1 else None
        if whole is not None:
            assert whole.dtype == ref.dtype and list(whole) == list(ref[:hi])
            if kind != "exact":
                assert whole.tobytes() == ref[:hi].tobytes()


class TestBigLambda:
    def test_equals_von_mangoldt_below_R(self):
        """For 2 <= n <= R the full Mobius sum collapses to Lambda(n)."""
        R = 50
        vals = lambda_R_range(R, biglambda_weights(R))
        for n in range(2, R + 1):
            fac = sympy.factorint(n)
            expected = math.log(min(fac)) if len(fac) == 1 else 0.0
            assert abs(vals[n] - expected) < 1e-10, n

    def test_value_at_one(self):
        """LambdaBig_R(1) = log R (only the d = 1 term survives)."""
        for R in (2, 10, 100):
            vals = lambda_R_range(1, biglambda_weights(R))
            assert abs(vals[1] - math.log(R)) < 1e-12

    def test_brute_force_definition(self):
        """LambdaBig_R(n) = sum_{d | n, d <= R} mu(d) log(R/d)."""
        rng = np.random.default_rng(SEED + 3)
        R = 20
        vals = lambda_R_range(2000, biglambda_weights(R))
        for n in rng.integers(2, 2000, size=N_TRIALS):
            n = int(n)
            brute = sum(int(sympy.mobius(d)) * math.log(R / d)
                        for d in sympy.divisors(n) if d <= R)
            assert abs(vals[n] - brute) < 1e-9, n


class TestScriptL:
    def test_exact_sum(self):
        for R in (1, 4, 10, 99):
            assert script_L(R) == brute_script_L(R)

    def test_coprimality_restriction(self):
        """L_k(R) drops the terms sharing a factor with k."""
        for R, k in ((10, 2), (30, 6), (50, 15)):
            assert script_L(R, k) == brute_script_L(R, k)

    def test_float_matches_fraction(self):
        for R in (5, 64, 500):
            assert abs(script_L_float(R) - float(script_L(R))) < 1e-14

    def test_exceeds_log(self):
        """L_1(R) >= log R: the Hildebrand sum dominates the logarithm."""
        for R in (2, 10, 100, 1000):
            assert script_L_float(R) >= math.log(R)


class TestPsiR:
    def test_partial_sum(self):
        """psi_R(x) = sum_{n <= x} lambda_R(n) matches the direct oracle."""
        R = 12
        w = build_weights(R)
        direct = Fraction(0)
        for n in range(1, 301):
            direct += lambda_R_direct(n, R)
        assert abs(psi_R(300, w) - float(direct)) < 1e-8

    def test_partial_sum_of_either_approximant(self):
        """psi_R(x) = sum_d y_d floor(x/d) is the compensated sum of the
        range, for the lambda_R and the biglambda_R weights alike."""
        for build in (build_weights, biglambda_weights):
            for R, x in ((1, 10), (7, 500), (40, 2000), (300, 299)):
                w = build(R)
                total = math.fsum(lambda_R_range(x, w).tolist())
                assert abs(psi_R(x, w) - total) < 1e-9 * max(1.0, abs(total)), (build, R, x)

    def test_refuses_exact_weights(self):
        """On exact weights the sum would come out D times psi_R."""
        with pytest.raises(ValueError, match="float weights"):
            psi_R(100, build_weights(10, exact=True))


class TestReadOnly:
    """The cached arrays handed to every caller refuse writes."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_weight_support(self, exact):
        with pytest.raises(ValueError, match="read-only"):
            build_weights(10, exact=exact).d_values[0] = 2

    @pytest.mark.parametrize("build", [
        build_weights, lambda R: build_weights(R, exact=True), biglambda_weights,
    ], ids=["float", "exact", "biglambda"])
    def test_weight_values(self, build):
        with pytest.raises(ValueError, match="read-only"):
            build(10).y[0] = 0


class TestPrimesUpTo:
    def test_refused_beyond_table_max(self, monkeypatch):
        """A sieve beyond tables.TABLE_MAX is refused before it is allocated."""
        from primelab.tables import TABLE_MAX

        real = np.ones

        def ones(shape, *args, **kwargs):
            if np.prod(shape) > 10**6:
                pytest.fail("allocated an oversize sieve")
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "ones", ones)
        with pytest.raises(ValueError, match="beyond"):
            primes_up_to(TABLE_MAX + 1)

    def test_lists_match_sympy_fresh_and_cached(self, monkeypatch):
        """The prime list is sympy's, as int64, at every n, each sieved
        afresh in any order; and the segmented table sieve's primes come
        from the same sieve of Eratosthenes."""
        from primelab import tables as tables_mod

        for n in (0, 1, 2, 3, 4, 97, 1000, 65537, 30, 2):
            got = primes_up_to(n)
            assert got.dtype == np.int64
            assert got.tolist() == list(sympy.primerange(2, n + 1)), n
        seen = []
        real = tables_mod.eratosthenes
        monkeypatch.setattr(tables_mod, "eratosthenes", lambda top: seen.append(top) or real(top))
        tables_mod.build_tables(10_000)
        assert seen == [100]


class TestSigmaPhiBound:
    def test_brute_force(self):
        """The bound constant is (sum_{r <= R} mu^2(r) sigma(r)/phi(r))^2's root."""
        for R in (1, 10, 40):
            total = Fraction(0)
            for r in range(1, R + 1):
                if any(e > 1 for e in sympy.factorint(r).values()):
                    continue
                total += Fraction(int(sympy.divisor_sigma(r)),
                                  int(sympy.totient(r)))
            assert sigma_phi_bound(R) == total
