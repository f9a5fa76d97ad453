"""Fixed-point omega, fractional parts, derived sequences."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import (
    PrecisionExhausted,
    PrecisionTooLow,
    FixedFrac,
    frac_r_omega,
    h_nt,
    make_ctx,
    s_nt,
    xi_inf,
    xi_n,
)
from sudler import fibcore
from sudler.goldenangle import phase_mantissa, two_sin_pi, zeckendorf_segments

mpmath.mp.dps = 80
MP_OMEGA = (mpmath.sqrt(5) - 1) / 2


def mp_frac(x):
    return x - mpmath.floor(x)


class TestMakeCtx:
    def test_first_18_digits(self, ctx128):
        digits = (ctx128.omega.mantissa * 10**18) >> 128
        assert digits == 618033988749894848

    def test_defining_equation(self, ctx128):
        w = Fraction(ctx128.omega.mantissa, 1 << 128)
        assert abs(w * w + w - 1) < Fraction(1, 1 << 120)

    def test_power_cache_vs_repeated_multiplication(self, ctx128):
        w = Fraction(ctx128.omega.mantissa, 1 << 128)
        acc = Fraction(1)
        for n in range(1, 13):
            acc *= w
            cached = Fraction(ctx128.omega_pow_mantissa(n), 1 << 128)
            assert abs(cached - acc) < Fraction(50, 1 << 120)

    def test_power_recurrence_exact(self, ctx):
        for n in range(2, 60):
            assert ctx.omega_pow_mantissa(n + 1) == ctx.omega_pow_mantissa(
                n - 1
            ) - ctx.omega_pow_mantissa(n)

    def test_minimum_precision_enforced(self):
        with pytest.raises(PrecisionTooLow):
            make_ctx(32)

    def test_one_fibonacci_table(self):
        ctx = make_ctx(64)
        assert ctx.fibs is make_ctx(192).fibs
        assert all(fibcore.fib(n) == ctx.fibs.fib(n) for n in range(101))

    def test_against_mpmath(self, ctx):
        assert abs(ctx.omega_float - float(MP_OMEGA)) < 1e-15


class TestFixedFrac:
    def test_mantissa_range_enforced(self):
        with pytest.raises(ValueError):
            FixedFrac(1 << 64, 64)
        with pytest.raises(ValueError):
            FixedFrac(-1, 64)

    def test_error_ceiling(self):
        with pytest.raises(PrecisionExhausted):
            FixedFrac(1, 64, Fraction(1, 1 << 10))


class TestFracROmega:
    def test_r1_is_omega(self, ctx):
        assert frac_r_omega(1, ctx).to_float() == ctx.omega_float

    def test_fibonacci_multiples(self, ctx):
        # {F_n omega} = 1 - omega^n for even n, omega^n for odd n
        f8 = frac_r_omega(8, ctx).to_float()  # F_6
        assert abs(f8 - (1.0 - ctx.omega_pow_float(6))) < 1e-15
        f5 = frac_r_omega(5, ctx).to_float()  # F_5
        assert abs(f5 - ctx.omega_pow_float(5)) < 1e-15

    def test_error_bound_formula(self, ctx):
        f = frac_r_omega(1000, ctx)
        assert f.err == Fraction(1001, 1 << 192)

    def test_against_mpmath_oracle(self, ctx):
        for r in (2, 3, 10, 6765, 832040, 10**7):
            got = frac_r_omega(r, ctx)
            want = mp_frac(r * MP_OMEGA)
            assert abs(got.to_float() - float(want)) < float(got.err) + 1e-16


class TestXi:
    def test_xi_inf_examples(self, ctx):
        assert xi_inf(0, ctx) == -0.5
        assert abs(xi_inf(1, ctx) - (ctx.omega_float - 0.5)) < 1e-16
        assert abs(xi_inf(2, ctx) - float(mp_frac(2 * MP_OMEGA) - mpmath.mpf(1) / 2)) < 1e-15

    def test_xi_n_examples(self, ctx):
        assert xi_n(5, 0, ctx) == 0
        assert xi_n(5, 5, ctx) == 0
        assert xi_n(5, 1, ctx) == Fraction(1, 10)
        assert xi_n(5, 4, ctx) == Fraction(-1, 10)

    def test_xi_n_exactness(self, ctx):
        for n in range(1, 12):
            fn = ctx.fibs.fib(n)
            for t in range(1, fn):
                xi = xi_n(n, t, ctx)
                assert xi == Fraction((t * ctx.fibs.fib(n - 1)) % fn, fn) - Fraction(1, 2)


class TestSnt:
    def test_s_n0_value(self, ctx):
        want = 2 * mpmath.sin(mpmath.pi * MP_OMEGA**3 / 2)
        assert abs(s_nt(3, 0, ctx) - float(want)) < 1e-15

    def test_mirror_symmetry_bitwise(self, ctx):
        for n in range(3, 12):
            fn = ctx.fibs.fib(n)
            for t in range(1, fn // 2 + 1):
                assert s_nt(n, fn - t, ctx) == s_nt(n, t, ctx)

    def test_antiperiod(self, ctx):
        for t in (0, 1, 2, 7):
            assert abs(s_nt(6, 8 + t, ctx) + s_nt(6, t, ctx)) < 1e-15

    def test_against_mpmath(self, ctx):
        for n in (4, 7, 10):
            fn = ctx.fibs.fib(n)
            fn1 = ctx.fibs.fib(n - 1)
            for t in range(0, fn, max(1, fn // 7)):
                res = (t * fn1) % fn
                arg = mpmath.mpf(t) / fn - MP_OMEGA**n * (mpmath.mpf(res) / fn - 0.5)
                want = float(2 * mpmath.sin(mpmath.pi * arg))
                assert abs(s_nt(n, t, ctx) - want) < 1e-14

    def test_rejects_bad_level(self, ctx):
        with pytest.raises(ValueError):
            s_nt(0, 1, ctx)


class TestHnt:
    def test_undefined_at_residue_zero(self, ctx):
        with pytest.raises(ValueError):
            h_nt(5, 0, ctx)
        with pytest.raises(ValueError):
            h_nt(5, 10, ctx)

    def test_even_fn_midpoint_is_zero(self, ctx):
        # F_6 = 8: cot(pi/2) = 0
        assert h_nt(6, 4, ctx) == 0.0

    def test_quarter_bound(self, ctx):
        fn = ctx.fibs.fib(10)
        for t in range(1, fn // 2 + 1):
            assert abs(h_nt(10, t, ctx)) < 1.0 / (4.0 * t)

    def test_against_mpmath(self, ctx):
        for n, t in ((5, 2), (8, 3), (10, 17)):
            fn = ctx.fibs.fib(n)
            res = (t * ctx.fibs.fib(n - 1)) % fn
            xi = mpmath.mpf(res) / fn - 0.5
            want = float(mpmath.cot(mpmath.pi * t / fn) * mpmath.sin(mpmath.pi * MP_OMEGA**n * xi))
            assert abs(h_nt(n, t, ctx) - want) < 1e-14


class TestTwoSinPi:
    @given(
        st.fractions(min_value=-4, max_value=4),
        st.floats(min_value=-1e-4, max_value=1e-4),
    )
    @settings(max_examples=200, deadline=None)
    def test_against_mpmath(self, q, delta):
        got = two_sin_pi(q, delta)
        want = float(2 * mpmath.sin(mpmath.pi * (mpmath.mpf(q.numerator) / q.denominator + mpmath.mpf(delta))))
        assert abs(got - want) < 1e-13


class TestPhaseRoute:
    """phase_mantissa and zeckendorf_segments, the one route by which the
    split product and the split partial sums phase their segments."""

    def test_phase_mantissa_is_a_rounding(self, ctx):
        m, err = phase_mantissa(Fraction(3, 7), ctx)
        assert abs(Fraction(m, 1 << ctx.P) - Fraction(3, 7)) <= Fraction(1, 1 << (ctx.P + 1))
        assert 2.0 ** -ctx.P <= err <= 1.5 * 2.0 ** -ctx.P
        assert phase_mantissa(-0.25, ctx) == (-(1 << (ctx.P - 2)), 2.0 ** -ctx.P)

    def test_integer_shifts_keep_the_angle(self, ctx):
        """Round half to even commutes with adding N 2^P, an even integer."""
        one = 1 << ctx.P
        for alpha in (Fraction(1, 3), Fraction(1, 1 << (ctx.P + 1)), Fraction(3, 1 << (ctx.P + 1))):
            m = phase_mantissa(alpha, ctx)[0]
            for shift in (-2, -1, 1, 5):
                assert phase_mantissa(alpha + shift, ctx)[0] == m + shift * one

    def test_totals_run_once_per_index_on_distinct_rows(self, ctx):
        calls = []

        def totals(s, phases, tails):
            calls.append((s, tails))
            return [(s, tail) for tail in tails]

        # 4 = F_4 + F_2, 6 = F_5 + F_2, 7 = F_5 + F_3
        walks = zeckendorf_segments([4, 6, 7, 4, 0], ctx, totals)
        # every total runs at call time, before any k is taken
        assert calls == [(4, [0]), (2, [3, 5]), (5, [0]), (3, [5])]
        got = list(walks)
        assert [[(s, k_s, v) for s, k_s, _phase, v in walk] for walk in got] == [
            [(4, 0, (4, 0)), (2, 3, (2, 3))],
            [(5, 0, (5, 0)), (2, 5, (2, 5))],
            [(5, 0, (5, 0)), (3, 5, (3, 5))],
            [(4, 0, (4, 0)), (2, 3, (2, 3))],
            [],
        ]
        one = 1 << ctx.P
        phase = got[2][1][2]
        assert phase % one == 5 * ctx.omega.mantissa % one and abs(phase) < one // 2

    def test_phase_bound_is_asserted_for_both_consumers(self, monkeypatch):
        """With the bound omega^{s+1} forced to 0, k = 100 = F_11 + F_6 + F_4
        breaks it at s = 6, k_s = 89, in the split product and in the
        split partial sums alike."""
        from sudler.birkhoff import S_nt_splits
        from sudler.bounds import split_logs

        ctx = make_ctx(192)
        monkeypatch.setattr(ctx, "omega_pow_mantissa", lambda n: 0)
        with pytest.raises(ArithmeticError, match="at k=100, s=6"):
            list(split_logs([100], ctx))
        with pytest.raises(ArithmeticError, match="at k=100, s=6"):
            S_nt_splits(12, [100], ctx)
