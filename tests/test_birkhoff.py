"""Partial sums, discrepancy, cotangent sums, Lagrange forms, identities."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sudler import (
    S_nt_splits,
    birkhoff_S,
    cot2_sum,
    cot_profile,
    cot_sum,
    identity_suite,
    lagrange_k_sin_sum,
    lagrange_sin_sum,
    sudler_P,
    sum_series,
)
from sudler import PrecisionExhausted, birkhoff
from sudler._engine import cot_block
from sudler.birkhoff import PARTIAL_SUM_K, direct_k_sin_sum, direct_sin_sum, discrepancy_scan

mpmath.mp.dps = 60
MP_OMEGA = (mpmath.sqrt(5) - 1) / 2


class TestPartialSums:
    def test_empty_sum(self, ctx):
        assert sum_series(9, 0, 0.0, ctx).values == ()
        assert S_nt_splits(9, [0], ctx) == [0.0]

    def test_increments_match_definition(self, ctx):
        from sudler import frac_r_omega

        n = 9
        series = sum_series(n, 30, 0.0, ctx)
        pw = ctx.omega_pow_float(n)
        for t in range(1, 31):
            term = math.sin(math.pi * pw * (frac_r_omega(t, ctx).to_float() - 0.5))
            prev = series.values[t - 2] if t > 1 else 0.0
            assert abs(series.values[t - 1] - prev - term) < 1e-15

    def test_direct_vs_split(self, ctx):
        for n in (6, 10):
            fn = ctx.fibs.fib(n)
            direct = sum_series(n, fn - 1, 0.0, ctx).values
            split = S_nt_splits(n, range(1, fn), ctx)
            for d, s in zip(direct, split, strict=True):
                assert abs(d - s) < 1e-12

    def test_batched_split_is_bit_identical(self, ctx):
        n = 12
        ts = range(ctx.fibs.fib(n))
        want = [S_nt_splits(n, [t], ctx)[0].hex() for t in ts]
        assert [v.hex() for v in S_nt_splits(n, ts, ctx)] == want

    def test_growth_bound(self, ctx):
        for n in (12, 16):
            fn = ctx.fibs.fib(n)
            pw = ctx.omega_pow_float(n)
            series = sum_series(n, fn - 1, 0.0, ctx)
            for t, v in enumerate(series.values, start=1):
                assert abs(v) < PARTIAL_SUM_K * pw * (math.log(t) + 1.0)

    def test_theta_is_taken_mod_one(self, ctx):
        want = [v.hex() for v in sum_series(8, 40, 0.3125, ctx).values]
        for theta in (1.3125, -0.6875):
            assert [v.hex() for v in sum_series(8, 40, theta, ctx).values] == want

    def test_splits_reject_level_zero(self, ctx):
        for ts in ([0], [5]):
            with pytest.raises(ValueError, match="level n must be >= 1"):
                S_nt_splits(0, ts, ctx)

    def test_theta_dependence_against_mpmath(self, ctx):
        n, t, theta = 8, 40, 0.3125
        want = mpmath.mpf(0)
        for r in range(1, t + 1):
            x = theta + r * MP_OMEGA
            want += mpmath.sin(mpmath.pi * MP_OMEGA**n * (x - mpmath.floor(x) - mpmath.mpf(1) / 2))
        assert abs(sum_series(n, t, theta, ctx).values[-1] - float(want)) < 1e-14


class TestDiscrepancy:
    def test_golden_random_thetas(self, ctx):
        for i, q in enumerate((13, 144, 987)):
            hi, lo = discrepancy_scan(q, 200, seed=i, ctx=ctx)
            assert -1.5 < lo <= hi < 1.5

    @pytest.mark.parametrize("q, seed", [(144, 3), (987, 4)])
    def test_scan_extremes_equal_fraction_sums(self, ctx, q, seed):
        """For the same seeded thetas, the scan's max and min are the exact
        rational sums, each rounded once."""
        one = 1 << 62
        w62 = (ctx.omega.mantissa + (1 << (ctx.P - 63))) >> (ctx.P - 62)
        alpha = Fraction(w62, one)
        thetas = np.random.default_rng(seed).integers(0, one, size=30, dtype=np.int64).tolist()
        sums = [
            sum((Fraction(th, one) + i * alpha) % 1 - Fraction(1, 2) for i in range(1, q + 1))
            for th in thetas
        ]
        assert discrepancy_scan(q, 30, seed, ctx) == (float(max(sums)), float(min(sums)))


class TestCotSums:
    def test_single_term_level(self, ctx):
        want = float(mpmath.cot(mpmath.pi * MP_OMEGA))
        assert abs(cot_sum(2, ctx).value - want) < 1e-14

    def test_term_by_term_oracle(self, ctx):
        for n in (4, 6):
            fn = ctx.fibs.fib(n)
            want = mpmath.mpf(0)
            want2 = mpmath.mpf(0)
            for r in range(1, fn + 1):
                x = r * MP_OMEGA
                c = mpmath.cot(mpmath.pi * (x - mpmath.floor(x)))
                want += c
                want2 += c * c
            assert abs(cot_sum(n, ctx).value - float(want)) < 1e-12
            if n >= 4:
                assert abs(cot2_sum(n, ctx) - float(want2)) < 1e-11

    @pytest.mark.parametrize("n", [5, 10, 15, 18, 20, 21])
    def test_bounds_cover_mpmath(self, ctx, n):
        """The sum and its normalized value are within their bounds of the
        exact sum at 40 digits."""
        cs = cot_sum(n, ctx)
        with mpmath.workdps(40):
            omega = (mpmath.sqrt(5) - 1) / 2
            rs = range(1, ctx.fibs.fib(n) + 1)
            exact = mpmath.fsum(mpmath.cot(mpmath.pi * mpmath.frac(r * omega)) for r in rs)
            assert abs(cs.value - exact) <= cs.err
            assert abs(cs.normalized - omega**n * exact) <= cs.normalized_err

    def test_normalized_windows(self, ctx):
        for n in range(2, 20):
            assert -0.71 < cot_sum(n, ctx).normalized < 0.71

    def test_cot2_terms_positive_structure(self, ctx):
        assert cot2_sum(5, ctx) > 0

    def test_cot2_bound_is_certified_with_the_error(self, ctx, monkeypatch):
        """A bound that the sum meets but the sum plus its error bound
        overshoots is refused."""
        fn = ctx.fibs.fib(20)
        s, c, err, _min_u = cot_block(0, ctx.omega.mantissa, ctx.P, fn, (fn + 1) * 2.0**-ctx.P, True)
        monkeypatch.setattr(birkhoff, "cot2_bound", lambda n, ctx: (s + c) + err / 2)
        with pytest.raises(PrecisionExhausted, match="cot\\^2 sum"):
            cot2_sum(20, ctx)

    def test_total_is_one_kernel_call(self, ctx, monkeypatch):
        calls = []
        kernel = birkhoff.cot_block
        monkeypatch.setattr(birkhoff, "cot_block", lambda *a: calls.append(a[3]) or kernel(*a))
        cot_sum(25, ctx)
        assert calls == [ctx.fibs.fib(25)]

    def test_cot_profile_consistency(self, ctx):
        n = 8
        rows = [row for ks, partials in cot_profile(n, ctx) for row in zip(ks, partials)]
        sign = (-1.0) ** n
        assert rows[0][0] == 1
        assert abs(rows[0][1] - sign * float(mpmath.cot(mpmath.pi * MP_OMEGA))) < 1e-13
        # final partial = full sum minus the r = F_n term
        full = cot_sum(n, ctx).value
        from sudler import frac_r_omega

        last_term_angle = frac_r_omega(ctx.fibs.fib(n), ctx).to_float()
        last_term = math.cos(math.pi * last_term_angle) / math.sin(math.pi * last_term_angle)
        assert abs(rows[-1][1] - sign * (full - last_term)) < 1e-10

    def test_cot_profile_rows_equal_totals_across_blocks(self, ctx):
        """Rows on both sides of 2^16, and the last row, are bit-identical
        to the total over k terms."""
        n = 25
        k16 = 1 << 16
        rows = {k: v for ks, partials in cot_profile(n, ctx) for k, v in zip(ks, partials)}
        sign = (-1.0) ** n
        for k in (k16 - 1, k16, k16 + 1, ctx.fibs.fib(n) - 1):
            s, c, _err, _min_u = cot_block(0, ctx.omega.mantissa, ctx.P, k, 0.0)
            assert rows[k] == sign * (s + c), k


def test_birkhoff_sum_is_twice_log(ctx):
    assert birkhoff_S(100, ctx) == 2.0 * sudler_P(100, ctx).log_value
    want = float(2 * mpmath.log(2 * mpmath.sin(mpmath.pi * MP_OMEGA)))
    assert abs(birkhoff_S(1, ctx) - want) < 1e-15


class TestLagrange:
    def test_hand_values(self):
        # theta=0, x=pi/2 (q=1/2), n=2: sin(pi/2) + sin(pi) = 1
        assert abs(lagrange_sin_sum(0.0, 0.5, 2) - 1.0) < 1e-15
        # k-weighted: theta=0, x=pi (q=1), n=1: 1*sin(pi) = 0
        assert abs(lagrange_k_sin_sum(0.0, 1.0, 1)) < 1e-15

    def test_singular_angle_rejected(self):
        # q = 2 is singular although sin(pi) = 1.2e-16 in float64
        for q in (0.0, 2.0):
            with pytest.raises(ValueError):
                lagrange_sin_sum(0.1, q, 5)
            with pytest.raises(ValueError):
                lagrange_k_sin_sum(0.1, q, 5)

    def test_large_n_against_mpmath(self):
        theta, q, n = 0.3, 0.7 + 2.0**-40, 2000
        x = mpmath.pi * mpmath.mpf(q)
        k = range(1, n + 1)
        want = mpmath.fsum(mpmath.sin(theta + j * x) for j in k)
        want_k = mpmath.fsum(j * mpmath.sin(theta + j * x) for j in k)
        assert abs(lagrange_sin_sum(theta, q, n) - want) < 1e-11
        assert abs(lagrange_k_sin_sum(theta, q, n) - want_k) < 1e-11

    def test_random_against_direct(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 50)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            q = rng.uniform(0.2, 2.0) / math.pi
            x = math.pi * q
            assert abs(lagrange_sin_sum(theta, q, n) - direct_sin_sum(theta, x, n)) < 1e-12
            assert abs(lagrange_k_sin_sum(theta, q, n) - direct_k_sin_sum(theta, x, n)) < 1e-12


class TestIdentitySuite:
    def test_integer_point_products(self):
        import numpy as np

        # n = 5: prod 2 sin(pi r/5) = 5 and prod 2 sin(2 pi r/5) = +5
        r = np.arange(1, 5)
        assert abs(float(np.prod(2 * np.sin(np.pi * r / 5))) - 5.0) < 1e-12
        assert abs(float(np.prod(2 * np.sin(2 * np.pi * r / 5))) - 5.0) < 1e-12
        # n = 4: prod_{r != 2} 2 sin(2 pi r/4) = -4
        rs = np.array([1, 3])
        assert abs(float(np.prod(2 * np.sin(2 * np.pi * rs / 4))) - (-4.0)) < 1e-12

    def test_suite_tolerance(self):
        checks = identity_suite(120, seed=11, phis_per_n=6)
        assert {c.name for c in checks} == {
            "sin-sum-closed-form",
            "weighted-sin-sum-closed-form",
            "sine-shift-product",
            "cot-shift-sum",
            "cos-shift-product-odd",
            "cos-shift-product-even",
            "sine-double-shift-product-odd",
            "sine-double-shift-product-even",
            "sine-roots-product",
            "sine-double-roots-odd",
            "sine-double-roots-even",
        }
        assert max(c.max_rel_dev for c in checks) < 1e-11

    def test_deterministic_for_seed(self):
        a = identity_suite(40, seed=5)
        b = identity_suite(40, seed=5)
        assert a == b
