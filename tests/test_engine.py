"""The orbit kernel and the cumsum-form Neumaier primitive."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sudler import PrecisionExhausted, make_ctx
from sudler._engine import CHUNK, cot_block, log2sin_block, neumaier, orbit, orbit_err
from sudler.fibcore import fib
from sudler.products import log_abs_sin_product

EPS = 2.0**-53
PRECISIONS = (64, 192, 512)


@pytest.fixture(scope="module", params=PRECISIONS)
def pctx(request):
    return make_ctx(request.param)


def exact_folds(a0, w, P, count):
    """(u, neg) of every a_i = (a0 + i*w) mod 2^P, folded by integer symmetry."""
    one = 1 << P
    half = one >> 1
    out = []
    a = a0 % one
    for _ in range(count):
        a = (a + w) % one
        out.append((a, False) if a <= half else (one - a, True))
    return out


def assert_orbit_matches(a0, w, P, count):
    """Every kernel angle is within its charged error of the exact P-bit fold:
    relative 2^-53 for the float conversion plus orbit_err(P) absolute."""
    want = exact_folds(a0, w, P, count)
    err = Fraction(orbit_err(P))
    got_x, got_neg = [], []
    for lo, x, neg in orbit(a0, w, P, count):
        assert lo == len(got_x)
        got_x += x.tolist()
        got_neg += neg.tolist()
    assert len(got_x) == count
    for (u, neg), x, g_neg in zip(want, got_x, got_neg):
        true = Fraction(u, 1 << P)
        assert abs(Fraction(x) - true) <= true * Fraction(EPS) + err
        if abs(true - Fraction(1, 2)) > err:
            assert g_neg == neg
    return want


class TestOrbitAngles:
    def test_near_closest_approaches(self, pctx):
        P, w, one = pctx.P, pctx.omega.mantissa, 1 << pctx.P
        for m in range(4, 41):  # r = F_m - 2 .. F_m + 4
            assert_orbit_matches(((fib(m) - 3) * w) % one, w, P, 7)

    def test_block_crossing_half_and_wrapping(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        a0 = (1 << P) - 3 * w // 2
        want = assert_orbit_matches(a0, w, P, 200)
        assert any(neg for _u, neg in want) and not all(neg for _u, neg in want)
        assert a0 + 200 * w >= 2 * (1 << P)  # wraps at 1 more than once

    @pytest.mark.parametrize("P", (64, 144))
    def test_tiny_angles_keep_relative_accuracy(self, P):
        """Angles a few units of 2^-P from an integer, on both sides, where
        an off-by-one in the fold would show at full relative size."""
        w = make_ctx(P).omega.mantissa
        for k in (1, 3, -1, -3):
            assert_orbit_matches((k - w) % (1 << P), w, P, 3)

    def test_partial_last_chunk(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        a0 = (123_456_789 * w) % (1 << P)
        assert_orbit_matches(a0, w, P, CHUNK + 77)

    def test_exact_hit_raises(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        a0 = (-5 * w) % (1 << P)
        with pytest.raises(PrecisionExhausted):
            log2sin_block(a0, w, P, 10, 0.0)
        with pytest.raises(PrecisionExhausted):
            cot_block(a0, w, P, 10, 0.0)

    def test_cot_min_u_is_the_exact_closest_approach(self, ctx128):
        P, w = ctx128.P, ctx128.omega.mantissa
        count = fib(18) + 5
        min_u = cot_block(0, w, P, count, 0.0)[3]
        assert min_u == min(u for u, _neg in exact_folds(0, w, P, count))


def scalar_neumaier(terms, s=0.0, comp=0.0):
    """The scalar recurrence the primitive replaces, kept as the reference."""
    out_s, out_c = [], []
    for term in terms:
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        out_s.append(s)
        out_c.append(comp)
    return out_s, out_c


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestNeumaier:
    def test_bit_identical_to_scalar_across_chunks(self):
        rng = np.random.default_rng(7)
        terms = rng.standard_normal(20_000) * 10.0 ** rng.integers(-12, 12, 20_000)
        terms[1::3] = -terms[0::3] * (1.0 + 1e-12)  # near-total cancellations
        want_s, want_c = scalar_neumaier(terms.tolist())
        got_s, got_c = [], []
        s = comp = 0.0
        cuts = [0, 1, 2, 4096, 8191, 8192, 8193, 13_000, 20_000]
        for lo, hi in zip(cuts, cuts[1:]):
            run_s, run_c = neumaier(terms[lo:hi], s, comp)
            s, comp = run_s[-1], run_c[-1]
            got_s += run_s.tolist()
            got_c += run_c.tolist()
        assert bits(got_s) == bits(want_s)
        assert bits(got_c) == bits(want_c)

    def test_seeded_carry(self):
        terms = [1e16, 1.0, -1e16, 3.5, 1e-8]
        want = scalar_neumaier(terms, 2.0**60, -3.0)
        got = neumaier(np.array(terms), 2.0**60, -3.0)
        assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])


def scalar_log2sin(a0, w, P, count):
    """The per-term big-integer loop the kernel replaces, kept as the reference."""
    total = comp = 0.0
    for u, _neg in exact_folds(a0, w, P, count):
        sn = math.sin(math.pi * (float(u) * 2.0**-P))
        term = math.log(sn + sn)
        t = total + term
        comp += (total - t) + term if abs(total) >= abs(term) else (term - t) + total
        total = t
    return total + comp


class TestLog2SinBlock:
    def test_against_scalar_loop(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        for start, count in ((0, 3000), (fib(25) - 1500, 3000)):
            a0 = (start * w) % (1 << P)
            s, c, err, _snaps = log2sin_block(a0, w, P, count, 0.0)
            assert abs((s + c) - scalar_log2sin(a0, w, P, count)) <= err

    def test_prefix_snapshots_equal_direct_sums(self, ctx):
        """A snapshot at k is bit-identical to a direct call over k terms,
        wherever k falls relative to the chunk cuts."""
        P, w = ctx.P, ctx.omega.mantissa
        a0 = (fib(20) * w) % (1 << P)
        ks = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 17, 3 * CHUNK]
        _s, _c, _e, (idx, snap_s, snap_c) = log2sin_block(a0, w, P, 3 * CHUNK, 0.0, emit_at=ks)
        assert idx.tolist() == ks
        for k, s_at, c_at in zip(ks, snap_s.tolist(), snap_c.tolist()):
            s, c, _e, _snaps = log2sin_block(a0, w, P, k, 0.0)
            assert (s, c) == (s_at, c_at)

    def test_dropped_bits_are_charged(self):
        """Above 144 bits the limbs drop the low bits; an angle 20001 units of
        2^-144 from an integer moves by a relative 1e-4, and the reported err
        must cover that."""
        P = 512
        w, one = make_ctx(P).omega.mantissa, 1 << P
        u = (20_001 << (P - 144)) - 1
        term, _c, err, _snaps = log2sin_block((u - w) % one, w, P, 1, 0.0)
        with mpmath.workdps(40):
            want = float(mpmath.log(2 * mpmath.sin(mpmath.pi * mpmath.mpf(u) / one)))
        assert 1e-6 < abs(term - want) <= err

    def test_single_call_of_2_20_terms(self, ctx):
        P, w = ctx.P, ctx.omega.mantissa
        count = 1 << 20
        s, c, err, snaps = log2sin_block(0, w, P, count, (count + 1) * 2.0**-P)
        assert len(snaps[0]) == 0
        blockwise, block_err = log_abs_sin_product(count, ctx)
        assert math.isfinite(s + c) and 0.0 < err < 1e-9
        assert abs((s + c) - blockwise) <= err + block_err


class TestRigour:
    """The rigorous err charges each log|2 sin(pi x)| term (4.5 + 2|term|)
    2^-53 for float rounding, plus orbit_err(P)/x for the kernel's angle.
    numpy documents no ulp bound for sin and log, so the assumption is
    checked against mpmath at the orbit's closest approaches r = F_m and at
    random r: the one-term err the kernel reports must cover the deviation
    from the exact P-bit angle."""

    def _check(self, ctx, rs):
        P, w, one = ctx.P, ctx.omega.mantissa, 1 << ctx.P
        with mpmath.workdps(40):
            for r in rs:
                a = (r * w) % one
                u = min(a, one - a)
                term, _c, err, _snaps = log2sin_block(((r - 1) * w) % one, w, P, 1, 0.0)
                assert err <= (4.5 + 2.0 * abs(term)) * EPS * (1 + 1e-12) + orbit_err(P) * one / u
                want = mpmath.log(2 * mpmath.sin(mpmath.pi * mpmath.mpf(u) / one))
                dev = abs(term - float(want))
                assert dev <= err, f"r={r}: {dev:.3e} > {err:.3e}"

    def test_closest_approaches(self, ctx):
        self._check(ctx, [fib(m) for m in range(1, 41)])

    def test_random_orbit_points(self, ctx):
        rng = np.random.default_rng(2014)
        self._check(ctx, rng.integers(1, fib(40), 10_000).tolist())
