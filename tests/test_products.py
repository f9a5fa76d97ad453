"""Sudler products, the renormalisation subsequence, and the decomposition."""

import math
import re
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from sudler import (
    A_n,
    B_n,
    B_star,
    C_infinity_trunc,
    C_n,
    PrecisionExhausted,
    Q_n,
    decompose,
    make_ctx,
    products,
    profile,
    ratio_PFn_minus1,
    sudler_P,
    sudler_P_rational,
)
from sudler import _engine
from sudler._engine import CHUNK
from sudler.verify import run_checks
from sudler.products import (
    _b_terms,
    _c_terms,
    _log_a,
    _log_factors,
    _log_perturbation_product,
    _omega_pow_err,
    _residue_chunks,
    log_abs_sin_product,
    u_t,
)

mpmath.mp.dps = 60
MP_OMEGA = (mpmath.sqrt(5) - 1) / 2
EPS = 2.0**-53


def scalar_log_perturbation(n, ctx, include_quadratic):
    """Oracle: the per-term scalar loop over t = 1..F_n - 1 with a Neumaier
    sum and an exactly summed error charge, for the vectorised B_n block.
    The charge holds the terms' own 40 eps and 2 delta per unit of weight,
    and the chunk tree's 14 eps per unit of |term| <= 1.25 weight."""
    fn = ctx.fibs.fib(n)
    fn1 = ctx.fibs.fib(n - 1)
    pw = ctx.omega_pow_float(n)
    inv_fn = 1.0 / fn
    s_acc = comp = 0.0
    errs = []
    for t in range(1, fn):
        xi = (t * fn1) % fn * inv_fn - 0.5
        hz = 1.5707963267948966 * (pw * xi)
        s2 = math.sin(hz)
        c2 = math.cos(hz)
        alpha = 2.0 * s2 * s2 if include_quadratic else 0.0
        tt, sgn = (fn - t, -1.0) if 2 * t > fn else (t, 1.0)
        u = math.pi * (tt * inv_fn)
        h = sgn * (math.cos(u) / math.sin(u)) * (2.0 * s2 * c2)
        w_ = -alpha - h
        term = math.log1p(w_)
        errs.append((40.0 * EPS + 1.25 * 14.0 * EPS + 2.0 * fn * 2.0**-ctx.P / pw) * abs(w_) / (1.0 + w_))
        t2 = s_acc + term
        if abs(s_acc) >= abs(term):
            comp += (s_acc - t2) + term
        else:
            comp += (term - t2) + s_acc
        s_acc = t2
    return s_acc + comp, math.fsum(errs)


def scalar_tree_sum(values):
    """A chunk summed by the pinned halving tree, one scalar at a time: the
    chunk is zero-padded to CHUNK and element i gains element i + h for
    h = CHUNK/2, ..., 1."""
    buf = list(values) + [0.0] * (CHUNK - len(values))
    h = CHUNK
    while h > 1:
        h //= 2
        buf[:h] = [a + b for a, b in zip(buf[:h], buf[h : 2 * h])]
    return buf[0]


def scalar_c_q(n, ctx, t):
    """C_n's q = (s_n0/s_nt)^2 at one t, by the scalar form of its array
    expression."""
    fn = ctx.fibs.fib(n)
    pw = ctx.omega_pow_float(n)
    s0 = 2.0 * math.sin(math.pi * pw * 0.5)
    tau = np.tan(1.5707963267948966 * ((t - pw * ((t * ctx.fibs.fib(n - 1)) % fn - 0.5 * fn)) * (1.0 / fn)))
    ratio = s0 * (1.0 + tau * tau) / (4.0 * tau)
    return ratio * ratio


def scalar_c_charge(n, ctx):
    """Oracle: C_n's bound, the terms' 80 eps and 5 delta per unit of
    weight q/(1 - q) and the chunk tree's 14 eps per unit of
    |term| <= weight, over t < F_n/2 and half the midpoint."""
    fn = ctx.fibs.fib(n)
    weights = [q / (1.0 - q) for q in (scalar_c_q(n, ctx, t) for t in range(1, (fn - 1) // 2 + 1))]
    if fn % 2 == 0:
        q = scalar_c_q(n, ctx, fn // 2)
        weights.append(0.5 * q / (1.0 - q))
    delta = fn * 2.0**-ctx.P / ctx.omega_pow_float(n)
    return (80.0 * EPS + 14.0 * EPS + 5.0 * delta) * math.fsum(weights)


def scalar_c_n(n, ctx):
    """Oracle: C_n as exp of the scalar per-t log1p terms, each chunk of
    CHUNK values of t summed in the pinned tree order and the chunk sums by
    fsum, with half the midpoint term for even F_n."""
    fn = ctx.fibs.fib(n)

    def term(t):
        return float(np.log1p(-scalar_c_q(n, ctx, t)))

    terms = [term(t) for t in range(1, (fn - 1) // 2 + 1)]
    log_c = math.fsum(scalar_tree_sum(terms[lo : lo + CHUNK]) for lo in range(0, len(terms), CHUNK))
    if fn % 2 == 0:
        log_c += 0.5 * term(fn // 2)
    return math.exp(log_c)


def test_empty_product(ctx):
    res = sudler_P(0, ctx)
    assert res.value == 1.0
    assert res.log_value == 0.0
    assert res.err == 0.0


def test_single_term_against_mpmath(ctx):
    want = float(2 * mpmath.sin(mpmath.pi * MP_OMEGA))
    got = sudler_P(1, ctx)
    assert abs(got.value - want) < 1e-15
    assert got.err < 1e-14


def test_small_products_against_mpmath(ctx):
    for k in (2, 3, 5, 21, 100):
        want = mpmath.mpf(1)
        for r in range(1, k + 1):
            want *= abs(2 * mpmath.sin(mpmath.pi * r * MP_OMEGA))
        got = sudler_P(k, ctx)
        assert abs(got.log_value - float(mpmath.log(want))) < max(1e-14, got.err)


def test_err_budget_enforced():
    ctx64 = make_ctx(64)
    with pytest.raises(PrecisionExhausted):
        sudler_P(200_000, ctx64)


def test_exhausted_bound_names_the_angle_term():
    with pytest.raises(PrecisionExhausted, match="the P-bit angle term, which more --precision bits lower"):
        sudler_P(200_000, make_ctx(64))


def test_exhausted_bound_names_float64_rounding(ctx):
    """At 192 bits the angle term is negligible, and the log terms' own
    rounding crosses the budget although the 4.5 eps floor fits."""
    assert products._direct_floor(1_700_000) < products.ERR_BUDGET
    with pytest.raises(PrecisionExhausted, match="the log terms' float64 rounding, which no --precision lowers"):
        sudler_P(1_700_000, ctx)


def test_total_is_one_kernel_call(ctx, monkeypatch):
    """Every row of a total runs through one log2sin_block call over all
    its terms, however many there are."""
    calls = []
    kernel = products.log2sin_block
    monkeypatch.setattr(products, "log2sin_block", lambda *a: calls.append(a[3]) or kernel(*a))
    count = 3 * (1 << 16) + 5
    log_value, _err = log_abs_sin_product(count, ctx)
    assert calls == [count]
    assert log_value == sudler_P(count, ctx).log_value


class TestRational:
    def test_recovers_denominator(self):
        assert abs(sudler_P_rational(1, 5, 4) - 5.0) < 5e-12

    def test_zero_at_and_beyond_q(self):
        assert sudler_P_rational(1, 5, 5) == 0.0
        assert sudler_P_rational(1, 5, 50) == 0.0

    def test_half(self):
        assert abs(sudler_P_rational(1, 2, 1) - 2.0) < 1e-15

    def test_nontrivial_numerator(self):
        assert abs(sudler_P_rational(3, 7, 6) - 7.0) < 1e-13

    def test_rejects_non_reduced(self):
        with pytest.raises(ValueError):
            sudler_P_rational(2, 4, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sudler_P_rational(5, 3, 2)

    def test_partial_against_mpmath(self):
        want = mpmath.mpf(1)
        for r in range(1, 8):
            want *= abs(2 * mpmath.sin(mpmath.pi * r * 3 / mpmath.mpf(11)))
        assert abs(sudler_P_rational(3, 11, 7) - float(want)) < 1e-13


class TestDecomposition:
    def test_level_one_exact(self, ctx):
        d = decompose(1, ctx)
        assert d.B == 1.0 and d.C == 1.0
        assert d.A == d.Q
        assert d.residual == 0.0

    def test_level_two_collapses_to_level_one(self, ctx):
        # F_2 = F_1 = 1 and sin(pi omega^2) = sin(pi omega)
        assert abs(Q_n(2, ctx).value - Q_n(1, ctx).value) < 1e-15

    def test_q1_is_single_term(self, ctx):
        assert Q_n(1, ctx).value == sudler_P(1, ctx).value

    def test_mid_level_residual(self, ctx):
        d = decompose(15, ctx)
        assert abs(d.rel_residual) < 1e-10

    def test_a_factor_near_limit(self, ctx):
        assert abs(A_n(25, ctx) - 2 * math.pi / math.sqrt(5)) < 1e-6

    def test_a_factor_direct(self, ctx):
        want = float(2 * mpmath.sin(mpmath.pi * MP_OMEGA))
        assert abs(A_n(1, ctx) - want) < 1e-15

    def test_b_empty_levels(self, ctx):
        assert B_n(1, ctx) == 1.0
        assert B_n(2, ctx) == 1.0
        assert B_star(1, ctx) == 1.0

    def test_b_against_direct_ratio(self, ctx):
        """B_n recomputed from raw s_nt / (2 sin pi t/F_n) ratios."""
        from sudler import s_nt

        for n in (5, 9):
            fn = ctx.fibs.fib(n)
            log_sum = math.fsum(
                math.log(s_nt(n, t, ctx) / (2.0 * math.sin(math.pi * t / fn)))
                for t in range(1, fn)
            )
            assert abs(math.log(B_n(n, ctx)) - log_sum) < 1e-12

    def test_c_empty_levels(self, ctx):
        assert C_n(1, ctx) == 1.0
        assert C_n(2, ctx) == 1.0

    def test_c_in_unit_interval(self, ctx):
        for n in range(3, 16):
            assert 0.0 < C_n(n, ctx) < 1.0

    def test_c_is_sqrt_of_full_product(self, ctx):
        """C_n^2 must equal the full-period product over t = 1..F_n - 1."""
        from sudler import s_nt

        for n in (4, 7, 10):
            fn = ctx.fibs.fib(n)
            s0 = s_nt(n, 0, ctx)
            full = math.fsum(
                math.log(1.0 - (s0 / s_nt(n, t, ctx)) ** 2) for t in range(1, fn)
            )
            assert abs(2.0 * math.log(C_n(n, ctx)) - full) < 1e-11


class TestVectorisedFactors:
    """The half-period walk covers (F_n - 1)/2 values of t: 37511 at n = 24
    and 37512 at n = 25 cross a CHUNK boundary, 98208 at n = 27 the
    boundary of the walk's 2^16-value batches too."""

    @pytest.mark.parametrize("include_quadratic", [True, False])
    def test_b_block_matches_scalar_loop(self, ctx, include_quadratic):
        want_log, want_err = scalar_log_perturbation(25, ctx, include_quadratic)
        got_log, got_err = _log_perturbation_product(25, ctx, include_quadratic)
        assert abs(got_log - want_log) < 1e-14
        assert abs(got_err - want_err) <= 1e-12 * want_err

    def test_b_workers_bitwise(self, ctx):
        """decompose still accepts ``workers`` and ignores it."""
        d = decompose(25, ctx, workers=2)
        assert d == decompose(25, ctx)
        assert d.B == B_n(25, ctx)

    def test_workers_bitwise_across_blocks(self, ctx):
        """Q_n and sudler_P still accept ``workers`` and ignore it."""
        assert Q_n(33, ctx, workers=2) == Q_n(33, ctx)
        fn = ctx.fibs.fib(25)
        assert sudler_P(fn, ctx, workers=2) == sudler_P(fn, ctx)

    @pytest.mark.parametrize("n", [33, 34, 35])
    def test_factor_route_equals_single_factors(self, ctx, n):
        """Q_n's one walk for B_n and C_n gives the bits of their own walks."""
        res = Q_n(n, ctx)
        assert res.route == "factors"
        log_b = _log_perturbation_product(n, ctx, True)[0]
        log_c = _log_factors(n, ctx, ("C",))[0][0]
        log_q = math.fsum((_log_a(n, ctx)[0], log_b, log_c))
        assert (res.log_value, res.value) == (log_q, math.exp(log_q))

    @pytest.mark.parametrize("n", [24, 25])
    def test_decompose_equals_single_factors(self, ctx, n):
        d = decompose(n, ctx)
        assert (d.B, d.C) == (B_n(n, ctx), C_n(n, ctx))
        err_c = _log_factors(n, ctx, ("C",))[0][1]
        assert (d.B_err, d.C_err) == (_log_perturbation_product(n, ctx, True)[1], err_c)

    @pytest.mark.parametrize("n", [24, 25, 27])  # even and odd F_n
    def test_c_matches_scalar_gen_prod_bitwise(self, ctx, n):
        assert C_n(n, ctx) == scalar_c_n(n, ctx)

    @pytest.mark.parametrize("n", [24, 25])
    def test_c_charge_matches_scalar_sum(self, ctx, n):
        want = scalar_c_charge(n, ctx)
        assert abs(_log_factors(n, ctx, ("C",))[0][1] - want) <= 1e-12 * want

    def test_c_rejects_nonpositive_terms(self, ctx):
        # omega^n replaced by 0.9 makes s_n0 exceed s_n1, so 1 - (s_n0/s_n1)^2 < 0
        bent = SimpleNamespace(fibs=ctx.fibs, omega_pow_float=lambda n: 0.9)
        with pytest.raises(ValueError, match="positive terms"):
            C_n(10, bent)

    def test_c_guard_names_the_first_offending_t(self, ctx):
        """The chunk's guard is one max; the t it names is the first whose
        s_n0/s_nt is not below 1, found here by a scalar loop."""
        n, pw = 10, 0.9
        fn, fn1 = ctx.fibs.fib(n), ctx.fibs.fib(n - 1)
        s0 = 2.0 * math.sin(math.pi * pw * 0.5)

        def ratio(t):
            tau = math.tan(math.pi / 2 * ((t - pw * (t * fn1 % fn - 0.5 * fn)) * (1.0 / fn)))
            return s0 * (1.0 + tau * tau) / (4.0 * tau)

        first = next(t for t in range(1, fn // 2 + 1) if not ratio(t) < 1.0)
        bent = SimpleNamespace(fibs=ctx.fibs, omega_pow_float=lambda n: pw)
        with pytest.raises(ValueError, match=rf"positive terms; s_n0/s_nt = \S+ at t = {first}$"):
            C_n(n, bent)

    def test_c_rejects_nan_terms(self, ctx):
        bent = SimpleNamespace(fibs=ctx.fibs, omega_pow_float=lambda n: math.nan)
        with pytest.raises(ValueError, match="positive terms; s_n0/s_nt = nan at t = 1$"):
            C_n(10, bent)

    def test_residues_exact_past_int64_products(self, ctx):
        fn, fn1 = ctx.fibs.fib(60), ctx.fibs.fib(59)
        assert (fn - 1) * fn1 > 2**63  # a bare int64 t * F_59 overflows here
        start, count = fn - CHUNK - 3, CHUNK + 2
        chunks = [(t.copy(), d.copy()) for t, d in _residue_chunks(start, count, fn1, fn)]
        assert [len(t) for t, _d in chunks] == [CHUNK, 2]
        t = [int(v) for chunk, _d in chunks for v in chunk]
        d = [Fraction(v) for _t, chunk in chunks for v in chunk.tolist()]
        assert t == list(range(start + 1, start + count + 1))
        assert d == [v * fn1 % fn - Fraction(fn, 2) for v in t]


class TestCLimit:
    def test_u_sequence(self, ctx):
        want = float(2 * mpmath.sqrt(5) - 2 * (MP_OMEGA - mpmath.mpf(1) / 2))
        assert abs(u_t(1, ctx) - want) < 1e-14

    def test_first_factor_bound(self, ctx):
        assert 1.0 / u_t(1, ctx) ** 2 < 0.056

    def test_partials_monotone_and_bounded(self, ctx):
        prev = 1.0
        value = 1.0
        for t in range(1, 2001):
            value *= 1.0 - 1.0 / u_t(t, ctx) ** 2
            assert 0.862 < value < 1.0
            assert value < prev
            prev = value
        assert abs(C_infinity_trunc(2000, ctx) - value) < 1e-13

    def test_c_n_converges_to_limit(self, ctx):
        assert abs(C_n(20, ctx) - C_infinity_trunc(10**5, ctx)) < 1e-2


class TestRatioPFnMinus1:
    def test_base_case(self, ctx):
        assert ratio_PFn_minus1(2, ctx) == 1.0  # P_0 / F_2

    def test_identity_with_decomposition(self, ctx):
        for n in (5, 10, 15):
            lhs = ratio_PFn_minus1(n, ctx) * A_n(n, ctx)
            assert abs(lhs - Q_n(n, ctx).value) < 1e-9

    def test_limit_form(self, ctx):
        """The empirical limit matches c sqrt(5) / (2 pi), not c/(2 pi sqrt 5)."""
        c = Q_n(20, ctx).value
        r = ratio_PFn_minus1(20, ctx)
        assert abs(r - c * math.sqrt(5) / (2 * math.pi)) < 1e-3
        assert abs(r - c / (2 * math.pi * math.sqrt(5))) > 0.5


class TestProfile:
    def test_matches_direct_products_bitwise(self, ctx):
        series = {k: lp for ks, _ps, lps in profile(10, 1, ctx) for k, lp in zip(ks, lps)}
        for k in (1, 2, 34, 55):
            assert series[k] == sudler_P(k, ctx).log_value

    def test_stride_selects_expected_indices(self, ctx):
        ks = [k for chunk_ks, _ps, _lps in profile(7, 5, ctx) for k in chunk_ks]
        assert ks == [1, 6, 11]

    def test_refused_before_first_row_past_the_float64_floor(self, ctx, monkeypatch):
        calls = []
        walk = _engine.orbit
        monkeypatch.setattr(_engine, "orbit", lambda *a, **kw: calls.append(1) or walk(*a, **kw))
        with pytest.raises(PrecisionExhausted, match="rounding floor"):
            next(profile(32, 400_000, ctx))
        assert calls == []

    def test_late_refusal_names_k_and_the_angle_term(self):
        """The rounding case is `sudler scan 1600000` in test_cli."""
        with pytest.raises(PrecisionExhausted, match=r"prefix pass at k=\d+, P=64 .*the P-bit angle term"):
            list(products._log_prefix_iter(200_000, 200_000, make_ctx(64)))

    def test_late_refusal_comes_within_a_chunk_of_the_last_row(self):
        """The pass refuses at the first chunk past the budget: the k it
        names is at most one CHUNK beyond the last row it streamed."""
        rows = []
        with pytest.raises(PrecisionExhausted, match=r"prefix pass at k=(\d+)") as info:
            for ks, _logs in products._log_prefix_iter(200_000, 1, make_ctx(64)):
                rows.extend(ks)
        named = int(re.search(r"k=(\d+)", str(info.value)).group(1))
        assert rows == list(range(1, len(rows) + 1))
        assert 0 < named - rows[-1] <= CHUNK

    @pytest.mark.parametrize("P, count", [(64, 200_000), (192, 1_600_000)])
    def test_check_prefix_raises_what_the_pass_raises(self, P, count):
        """The angle-term and the rounding refusal, message for message."""
        ctx = make_ctx(P)
        with pytest.raises(PrecisionExhausted) as streamed:
            list(products._log_prefix_iter(count, count, ctx))
        with pytest.raises(PrecisionExhausted) as checked:
            products.check_prefix(count, ctx)
        assert str(checked.value) == str(streamed.value)

    def test_check_prefix_clears_f28_without_orbit_work(self, ctx, monkeypatch):
        calls = []
        walk = _engine.orbit
        monkeypatch.setattr(_engine, "orbit", lambda *a, **kw: calls.append(1) or walk(*a, **kw))
        products.check_prefix(ctx.fibs.fib(28), ctx)
        assert calls == []

    def test_workers_do_not_change_values(self):
        """run_checks still accepts ``workers`` and ignores it."""
        only = {"decomposition-identity", "profile-consistency", "split-product-agreement"}
        rows = [
            [(r.name, r.passed, r.detail) for r in run_checks(level="quick", only=only, **kw)]
            for kw in ({"workers": 4}, {})
        ]
        assert rows[0] == rows[1] and len(rows[0]) == len(only)

    def test_nested_walks_keep_their_bits(self, ctx):
        """Q_n and decompose, each with walks of their own, run between the
        chunks of a profile pass, of log_U_partials and of a bare orbit-sum
        walk whose chunk is read only after them; every value equals an
        uninterleaved pass bit for bit, so no buffer outlives or is shared
        beyond its walk."""
        count = 3 * CHUNK + 5
        w, P = ctx.omega.mantissa, ctx.P

        def passes(between):
            rows, u, walk = [], [], []
            for ks, ps, logs in profile(22, 1, ctx):  # F_22 = 17711: three chunks
                between()
                rows.append((list(ks), [v.hex() for v in ps + logs]))
            for partials in products.log_U_partials(count, ctx):
                between()
                u.append(partials.tobytes())
            for _rows, lo, x, run_s, run_c, err, ang in _engine.orbit_sums(
                _engine.log2sin_terms, [0, 12345], w, P, count, 0.0
            ):
                between()
                walk.append((lo, x.tobytes(), run_s.tobytes(), run_c.tobytes(), err.tobytes(), ang.tobytes()))
            return rows, u, walk

        q, dec = Q_n(15, ctx), decompose(12, ctx)

        def nested():
            assert Q_n(15, ctx) == q and decompose(12, ctx) == dec

        alone = passes(lambda: None)
        assert len(alone[0]) == 3 and len(alone[1]) == len(alone[2]) // 2 == 4
        assert passes(nested) == alone

    def test_windowed_peaks_sit_before_fibonacci_indices(self, ctx):
        """Within each window (F_{n-1}, F_n] the largest P_k is at F_n - 1."""
        values = {k: p for ks, ps, _lps in profile(13, 1, ctx) for k, p in zip(ks, ps)}
        for n in range(7, 14):
            lo, hi = ctx.fibs.fib(n - 1), ctx.fibs.fib(n)
            argmax = max(range(lo + 1, hi + 1), key=values.__getitem__)
            assert argmax == hi - 1


def mp_angles(n, t):
    """(pi z, theta) at (n, t) with exact omega^n and residue: z = omega^n xi_nt,
    theta = pi t/F_n."""
    fn = int(mpmath.fib(n))
    res = t * int(mpmath.fib(n - 1)) % fn
    return mpmath.pi * MP_OMEGA**n * (mpmath.mpf(res) / fn - mpmath.mpf(1) / 2), mpmath.pi * t / fn


def mp_c_term(n, t):
    """The exact C_n log-term log1p(-(s_n0/s_nt)^2)."""
    piz, theta = mp_angles(n, t)
    return mpmath.log1p(-((mpmath.sin(mpmath.pi * MP_OMEGA**n / 2) / mpmath.sin(theta - piz)) ** 2))


def mp_b_terms(n, t):
    """The exact B_n and B*_n log-terms log1p(-alpha - h) and log1p(-h)."""
    piz, theta = mp_angles(n, t)
    alpha = 2 * mpmath.sin(piz / 2) ** 2
    h = mpmath.cot(theta) * mpmath.sin(piz)
    return mpmath.log1p(-alpha - h), mpmath.log1p(-h)


def mp_log_c(n):
    """log C_n from mpmath: the sum over t < F_n/2 and half the midpoint."""
    fn = int(mpmath.fib(n))
    total = mpmath.fsum(mp_c_term(n, t) for t in range(1, (fn - 1) // 2 + 1))
    if fn % 2 == 0:
        total += mp_c_term(n, fn // 2) / 2
    return total


class TestFactorBounds:
    @pytest.mark.parametrize("P, n_max, samples", [(192, 45, 10_000), (64, 30, 1_000)])
    def test_per_term_charges_cover_mpmath(self, P, n_max, samples):
        """Random (n, t), with t = 1 and t next to F_n/2 at every level: each
        computed term is within its own charge.  At 64 bits the omega^n
        error outweighs float64 rounding."""
        ctx = make_ctx(P)
        rng = np.random.default_rng(6)
        levels = range(4, n_max + 1)
        per_level = -(-samples // len(levels))
        with mpmath.workdps(40):
            for n in levels:
                fn, fn1 = ctx.fibs.fib(n), ctx.fibs.fib(n - 1)
                half = (fn - 1) // 2
                t = np.unique(np.concatenate([[1, half], rng.integers(1, half + 1, per_level - 2)]))
                d = t * fn1 % fn - 0.5 * fn
                pw = ctx.omega_pow_float(n)
                delta = _omega_pow_err(n, ctx)
                b, gb = _b_terms(t, d, fn, pw, True)
                bs, gbs = _b_terms(t, d, fn, pw, False)
                c, gc = _c_terms(t, d, fn, pw, 2.0 * math.sin(math.pi * pw * 0.5))
                for i, ti in enumerate(t.tolist()):
                    want_b, want_bs = mp_b_terms(n, ti)
                    want_c = mp_c_term(n, ti)
                    assert abs(b[i] - want_b) <= (products._B_RATE + products._B_POW * delta) * gb[i], (n, ti)
                    assert abs(bs[i] - want_bs) <= (products._B_RATE + products._B_POW * delta) * gbs[i], (n, ti)
                    assert abs(c[i] - want_c) <= (products._C_RATE + products._C_POW * delta) * gc[i], (n, ti)

    @pytest.mark.parametrize("P, n_max", [(192, 45), (64, 20)])
    def test_a_bound_covers_mpmath(self, P, n_max):
        ctx = make_ctx(P)
        for n in range(1, n_max + 1):
            log_a, err = _log_a(n, ctx)
            want = mpmath.log(2 * mpmath.fib(n) * mpmath.sin(mpmath.pi * MP_OMEGA**n))
            assert abs(log_a - want) <= err, n

    def test_c_against_mpmath(self, ctx):
        with mpmath.workdps(25):
            for n in range(3, 21):
                (log_c, err), = _log_factors(n, ctx, ("C",))
                assert abs(log_c - mp_log_c(n)) <= err, n

    def test_c_differences_shrink(self, ctx):
        c = {n: C_n(n, ctx) for n in range(26, 37)}
        for n in range(28, 37):
            assert abs(c[n] - c[n - 1]) < abs(c[n - 1] - c[n - 2]), n

    def test_decomposition_within_both_bounds(self, ctx):
        for n in range(20, 32):
            d = decompose(n, ctx)
            gap = math.log(d.Q) - (math.log(d.A) + math.log(d.B) + math.log(d.C))
            assert abs(gap) <= d.Q_err + d.abc_err, n


class TestQRoutes:
    def test_direct_up_to_31(self, ctx):
        res = Q_n(31, ctx)
        assert res.route == "direct"
        assert res == sudler_P(ctx.fibs.fib(31), ctx)

    def test_factors_above_31(self, ctx):
        res = Q_n(32, ctx)
        assert res.route == "factors"
        assert res.k == ctx.fibs.fib(32)
        assert res.err < 1e-12

    def test_factors_follow_the_geometric_extrapolation(self, ctx):
        """log Q_n - log Q_{n-1} shrinks by -omega per level to first order;
        the direct values at 28..31 carry their own bounds into the
        extrapolation."""
        base = {n: Q_n(n, ctx) for n in range(28, 32)}
        omega = float(MP_OMEGA)
        step = base[31].log_value - base[30].log_value
        for n in range(32, 35):
            k = n - 31
            factor = sum((-omega) ** j for j in range(1, k + 1))
            want = base[31].log_value + step * factor
            base_err = base[31].err + abs(factor) * (base[31].err + base[30].err)
            res = Q_n(n, ctx)
            assert abs(res.log_value - want) <= res.err + base_err + 1e-11, n

    def test_low_precision_names_omega_pow(self):
        with pytest.raises(PrecisionExhausted, match="omega\\^n"):
            Q_n(34, make_ctx(64))

    def test_direct_sum_refused_before_kernel_work(self, ctx, monkeypatch):
        calls = []
        walk = _engine.orbit
        monkeypatch.setattr(_engine, "orbit", lambda *a, **kw: calls.append(1) or walk(*a, **kw))
        with pytest.raises(PrecisionExhausted, match="rounding floor"):
            sudler_P(ctx.fibs.fib(32), ctx)
        assert calls == []
