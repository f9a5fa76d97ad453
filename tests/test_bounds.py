"""Inequality toolkit, perturbed products, Zeckendorf split, power law."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import (
    Q_n,
    convex_sine_check,
    log_lower_check,
    make_ctx,
    perturbed_product,
    power_law_scan,
    prod_bounds_check,
    split_product,
    sudler_P,
)
from sudler.bounds import (
    PERTURBED_RATIO_LOWER,
    PERTURBED_RATIO_UPPER,
    _split_log,
    n1_alpha_counterexample,
    power_law_ratios,
    split_logs,
)
from sudler.fibcore import fib


class TestConvexSine:
    def test_quarter_pi(self):
        x = math.pi / 4
        assert 0.5 < math.sin(x) < x

    def test_report(self):
        rep = convex_sine_check(5000, seed=1)
        assert rep.passed
        assert rep.checked >= 10000


class TestProdBounds:
    def test_spec_example(self):
        rep = prod_bounds_check([0.1, -0.1])
        assert rep.lower == pytest.approx(0.8)
        assert rep.product == pytest.approx(0.99)
        assert rep.upper == pytest.approx(1.25)
        assert rep.passed

    def test_all_zero_degenerates(self):
        rep = prod_bounds_check([0.0, 0.0, 0.0])
        assert rep.product == 1.0
        assert rep.passed

    def test_single_negative_term_hits_lower_bound(self):
        rep = prod_bounds_check([-0.4])
        assert rep.product == rep.lower
        assert rep.passed  # non-strict for < 2 nonzero terms

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            prod_bounds_check([0.5, 0.6])
        with pytest.raises(ValueError):
            prod_bounds_check([1.0])

    @given(
        st.lists(
            st.floats(min_value=-0.9, max_value=0.9).filter(lambda x: abs(x) > 1e-6),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_sequences(self, raw):
        total = sum(abs(x) for x in raw)
        scale = 0.9 / max(1.0, total / 0.9)
        rep = prod_bounds_check([x * scale for x in raw])
        assert rep.passed


class TestLogLower:
    def test_equality_at_zero(self):
        assert math.log1p(0.0) == 0.0 - 0.0**2

    def test_strict_at_half(self):
        assert math.log1p(-0.5) > -0.5 - 0.25

    def test_report(self):
        rep = log_lower_check()
        assert rep.passed
        assert rep.root_hi - rep.root_lo < 1e-6
        assert -0.684 < rep.root_lo < rep.root_hi < -0.683


class TestPerturbed:
    def test_alpha_zero_reduces_to_q(self, ctx):
        assert perturbed_product(5, 0, ctx) == Q_n(5, ctx).value

    def test_factored_form_agrees(self, ctx):
        v = perturbed_product(8, Fraction(1, 10**4), ctx)
        assert v > 0

    def test_level_one_rejected(self, ctx):
        with pytest.raises(ValueError):
            perturbed_product(1, 0.1, ctx)

    def test_counterexample_is_zero(self, ctx):
        assert n1_alpha_counterexample(ctx) == 0.0

    def test_out_of_range_alpha(self, ctx):
        with pytest.raises(ValueError):
            perturbed_product(5, 0.1, ctx)  # 0.1 > omega^6

    def test_ratio_within_recorded_range(self, ctx):
        for n in (4, 8, 12):
            q = Q_n(n, ctx).value
            for num in (-1, 1):
                alpha = Fraction(num * ctx.omega_pow_mantissa(n + 1), 1 << ctx.P)
                ratio = perturbed_product(n, alpha, ctx) / q
                assert PERTURBED_RATIO_LOWER < ratio < PERTURBED_RATIO_UPPER


class TestSplit:
    def test_single_segment_is_direct(self, ctx):
        sp = split_product(21, ctx)  # F_8
        assert len(sp.segments) == 1
        assert sp.segments[0].alpha == 0.0
        assert sp.log_value == sp.direct.log_value

    def test_seven_splits_into_two_segments(self, ctx):
        sp = split_product(7, ctx)  # F_5 + F_3
        assert [seg.s for seg in sp.segments] == [5, 3]
        assert [seg.k_s for seg in sp.segments] == [0, 5]
        assert abs(sp.rel_residual) < 1e-12

    def test_segment_phases_geometrically_small(self, ctx):
        sp = split_product(9999, ctx)
        for seg in sp.segments:
            assert abs(seg.alpha) < ctx.omega_pow_float(seg.s + 1) + 1e-15

    def test_agreement_sampled(self, ctx):
        for k in (2, 33, 777, 4181, 9999):
            sp = split_product(k, ctx)
            assert abs(sp.rel_residual) < 1e-10


def split_bits(result):
    """A _split_log result with every float as its exact hex string."""
    segments, log_value, err = result
    segs = [(g.s, g.k_s, g.alpha.hex(), g.log_factor.hex(), g.factor.hex()) for g in segments]
    return segs, log_value.hex(), err.hex()


class TestSplitLogs:
    """The batched split must equal one _split_log call per k bit for bit."""

    @staticmethod
    def assert_matches_per_k(ctx, ks):
        got = [split_bits(r) for r in split_logs(ks, ctx)]
        want = [split_bits(_split_log(k, ctx)) for k in ks]
        assert got == want

    def test_every_k_up_to_3000(self, ctx):
        self.assert_matches_per_k(ctx, range(1, 3001))

    def test_per_row_phase_errors_at_64_bits(self):
        """At P = 64 each segment's phase error (k_s + 1) 2^-64 is large
        enough to show in its err, row by row."""
        self.assert_matches_per_k(make_ctx(64), range(1, 1001))

    def test_two_block_segment(self, ctx):
        """F_25 + 7 has an s = 25 segment of 75025 terms, more than 2^16,
        so each of its rows runs through ten chunks."""
        ks = [fib(25) - 1, fib(25) + 7]
        self.assert_matches_per_k(ctx, ks)
        assert [g.s for g in _split_log(fib(25) + 7, ctx)[0]] == [25, 5, 3]


class TestPowerLaw:
    def test_small_scan(self, ctx):
        rep = power_law_scan(610, ctx)
        assert rep.k_max == 610
        assert rep.K2_emp >= 1.0
        assert rep.argmax == 2  # = F_4 - 1
        assert rep.K1_emp > 0.0  # every P_k in range exceeds 1
        assert rep.argmin in (377, 610)

    def test_extrema_monotone(self, ctx):
        a = power_law_scan(100, ctx)
        b = power_law_scan(1000, ctx)
        assert b.K1_emp <= a.K1_emp
        assert b.K2_emp >= a.K2_emp

    def test_ratio_matches_direct(self, ctx):
        rep = power_law_scan(144, ctx)
        direct = min(
            sudler_P(k, ctx).log_value / math.log(k) for k in range(2, 145)
        )
        assert rep.K1_emp == pytest.approx(direct, abs=1e-12)

    def test_rejects_tiny_range(self, ctx):
        with pytest.raises(ValueError):
            power_law_scan(1, ctx)

    def test_ratio_stream_is_the_scan(self, ctx):
        """power_law_ratios yields ln P_k / ln k from k = 2 on, bit for bit
        the direct ratio, and power_law_scan reports its extrema."""
        ks, ratios = [], []
        for chunk_ks, chunk in power_law_ratios(144, ctx):
            ks += chunk_ks
            ratios += chunk
        assert ks == list(range(2, 145))
        assert ratios == [sudler_P(k, ctx).log_value / math.log(k) for k in ks]
        rep = power_law_scan(144, ctx)
        assert (rep.K1_emp, rep.argmin) == min(zip(ratios, ks))
        assert (rep.K2_emp, rep.argmax) == max(zip(ratios, ks))
        with pytest.raises(ValueError, match="k_max must be >= 2"):
            next(power_law_ratios(1, ctx))
