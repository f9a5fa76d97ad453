"""Executable verification suite.

Every quantitative invariant of the package is a check returning
(passed, detail), registered under its name in _MODULE_CHECKS;
``run_checks`` drives them all at a chosen level and reports each as a
CheckResult:

  * quick  -- reduced ranges, a few seconds
  * full   -- the complete acceptance-grade ranges

Check names are stable identifiers used by the CLI table and the test
suite.  Checks never weaken their tolerances to pass; a mathematically
unattainable assertion is reported as failed with the measured value.
"""

from __future__ import annotations

import bisect
import io
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import birkhoff as bk
from . import bounds as bd
from . import fibcore as fc
from . import products as pr
from .goldenangle import GoldenCtx, frac_r_omega, h_nt, make_ctx, s_nt, xi_inf, xi_n

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


@dataclass
class _Cfg:
    level: str
    seed: int
    ctx: GoldenCtx


def _q(cfg: _Cfg, quick, full):
    return quick if cfg.level == "quick" else full


# ---------------------------------------------------------------------------
# fibcore
# ---------------------------------------------------------------------------


def check_fib_identities(cfg: _Cfg) -> tuple[bool, str]:
    n_max = _q(cfg, 120, 400)
    try:
        cfg.ctx.fibs.check_identities(n_max)
    except AssertionError as exc:
        return False, str(exc)
    return True, f"recurrence/product/parity exact, n <= {n_max}"


def check_fib_closed_form(cfg: _Cfg) -> tuple[bool, str]:
    # F_n vs (omega^-n - (-omega)^n)/sqrt(5) in 192-bit rational arithmetic
    ctx = cfg.ctx
    P = ctx.P
    w = Fraction(ctx.omega.mantissa, 1 << P)
    inv_w = 1 / w
    sqrt5 = Fraction(math.isqrt(5 << (2 * P)), 1 << P)
    worst = 0.0
    for n in range(1, 61):
        approx = (inv_w**n - (-w) ** n) / sqrt5
        worst = max(worst, abs(float(approx - cfg.ctx.fibs.fib(n))))
    ok = worst < 1e-6
    return ok, f"max |F_n - closed form| = {worst:.2e}, n <= 60"


def check_zeckendorf_roundtrip(cfg: _Cfg) -> tuple[bool, str]:
    n_max = _q(cfg, 10_000, 100_000)
    for n in range(n_max + 1):
        rep = fc.zeckendorf(n)
        if rep.value() != n:
            return False, f"reconstruction fails at {n}"
        bits = rep.bits
        if any(bits[s] and bits[s + 1] for s in range(len(bits) - 1)):
            return False, f"adjacent ones at {n}"
        if rep.bit(1):
            return False, f"index 1 used at {n}"
        if n >= 1 and not (rep.m >= 2 and rep.bits[-1] == 1):
            return False, f"top bit unset at {n}"
        if rep.length > rep.m // 2:
            return False, f"length > m/2 at {n}"
    return True, f"roundtrip + non-adjacency, n <= {n_max}"


def check_fib_length_bounds(cfg: _Cfg) -> tuple[bool, str]:
    n_max = _q(cfg, 10_000, 100_000)
    for n in range(1, n_max + 1):
        m_bound, fl_bound = fc.fib_length_bounds(n)
        rep = fc.zeckendorf(n)
        if rep.m > m_bound or rep.length > fl_bound:
            return False, f"n={n}: m={rep.m} vs {m_bound}, F_L={rep.length} vs {fl_bound}"
    return True, f"index/length bounds hold, n <= {n_max}"


def check_fib_mod_inverse(cfg: _Cfg) -> tuple[bool, str]:
    for n in range(3, 41):
        fn = fc.fib(n)
        inv = fc.fib_mod_inverse(n)
        if (fc.fib(n - 1) * inv) % fn != 1:
            return False, f"not an inverse at n={n}"
        if inv != pow(fc.fib(n - 1), -1, fn):
            return False, f"differs from ext-Euclid at n={n}"
    if fc.fib_mod_inverse(1) != 0 or fc.fib_mod_inverse(2) != 0:
        return False, "degenerate moduli must give 0"
    return True, "matches extended-Euclid inverse, 3 <= n <= 40"


# ---------------------------------------------------------------------------
# goldenangle
# ---------------------------------------------------------------------------


def check_omega_constants(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    P = ctx.P
    w = ctx.omega.mantissa
    # omega^2 + omega - 1 = 0 within 2^-(P-2)
    defect = abs(Fraction(w * w, 1 << (2 * P)) + Fraction(w, 1 << P) - 1)
    if defect > Fraction(1, 1 << (P - 2)):
        return False, f"defining equation defect {float(defect):.3e}"
    # cached power recurrence is exact by construction; verify anyway
    for n in range(2, 40):
        if ctx.omega_pow_mantissa(n + 1) != ctx.omega_pow_mantissa(n - 1) - ctx.omega_pow_mantissa(n):
            return False, f"power recurrence fails at {n}"
    return True, "omega^2+omega-1 = 0 and exact power recurrence"


def check_frac_error_model(cfg: _Cfg) -> tuple[bool, str]:
    """frac_r_omega at the working precision vs a 512-bit context."""
    ctx = cfg.ctx
    oracle = make_ctx(512)
    rs = [fc.fib(i) for i in range(3, 41)] + [10**k for k in range(1, 8)]
    worst = 0.0
    for r in rs:
        got = frac_r_omega(r, ctx)
        want = frac_r_omega(r, oracle)
        diff = abs(got.to_fraction() - want.to_fraction())
        diff = min(diff, 1 - diff)  # circle distance
        if diff > got.err:
            return False, f"error bound violated at r={r}"
        worst = max(worst, float(diff))
    bound_f40 = float(frac_r_omega(fc.fib(40), ctx).err)
    ok = bound_f40 < 2.0**-160 or ctx.P < 192
    return ok, f"max |got - oracle| = {worst:.2e}; err bound at F_40 = {bound_f40:.2e}"


def check_seq_lemmas(cfg: _Cfg) -> tuple[bool, str]:
    """Periodicity, parity, boundedness, minimality and drift of the
    derived sequences."""
    ctx = cfg.ctx
    n_hi = _q(cfg, 10, 15)
    for n in range(1, n_hi + 1):
        fn = fc.fib(n)
        for t in range(-fn, fn + 1):
            xi = xi_n(n, t, ctx)
            if abs(xi) >= Fraction(1, 2) and t % fn != 0:
                return False, f"|xi| >= 1/2 at n={n}, t={t}"
            if xi_n(n, t + fn, ctx) != xi:
                return False, f"xi period fails at n={n}, t={t}"
            if xi_n(n, -t, ctx) != -xi:
                return False, f"xi oddness fails at n={n}, t={t}"
            s = s_nt(n, t, ctx)
            if abs(s_nt(n, t + fn, ctx) + s) > 1e-14:
                return False, f"s anti-period fails at n={n}, t={t}"
            if abs(s_nt(n, -t, ctx) + s) > 1e-14 and t % fn != 0:
                return False, f"s oddness fails at n={n}, t={t}"
            if t % fn != 0:
                if abs(s_nt(n, fn - t, ctx) - s) > 1e-14:
                    return False, f"s mirror fails at n={n}, t={t}"
                h = h_nt(n, t, ctx)
                if abs(h_nt(n, -t, ctx) - h) > 1e-13:
                    return False, f"h evenness fails at n={n}, t={t}"
                if abs(h_nt(n, fn - t, ctx) - h) > 1e-13:
                    return False, f"h mirror fails at n={n}, t={t}"
                if abs(h_nt(n, t + fn, ctx) - h) > 1e-13:
                    return False, f"h period fails at n={n}, t={t}"
    # minimality of s_n0 and the h estimate
    for n in range(3, n_hi + 1):
        fn = fc.fib(n)
        s0 = s_nt(n, 0, ctx)
        for t in range(1, fn):
            if s_nt(n, t, ctx) <= s0:
                return False, f"minimality fails at n={n}, t={t}"
            if 2 * t <= fn and abs(h_nt(n, t, ctx)) >= 1.0 / (4.0 * t):
                return False, f"|h| >= 1/(4t) at n={n}, t={t}"
    # drift |xi_nt - xi_inf_t| < omega^n for 1 <= t <= F_{n-1}
    for n in range(2, _q(cfg, 15, 20) + 1):
        pw = ctx.omega_pow_float(n)
        for t in range(1, fc.fib(n - 1) + 1):
            if abs(float(xi_n(n, t, ctx)) - xi_inf(t, ctx)) >= pw:
                return False, f"drift >= omega^n at n={n}, t={t}"
    return True, f"period/parity/minimality/drift hold, n <= {n_hi}"


# ---------------------------------------------------------------------------
# acceptance-grade checks (criteria 1-12)
# ---------------------------------------------------------------------------


def check_rational_exactness(cfg: _Cfg) -> tuple[bool, str]:
    q_max = _q(cfg, 300, 2000)
    t0 = time.perf_counter()
    worst = 0.0
    for q in range(2, q_max + 1):
        worst = max(worst, abs(pr.sudler_P_rational(1, q, q - 1) - q) / q)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    return ok, f"max rel dev of P_(q-1)(1/q) vs q = {worst:.2e} for q <= {q_max} in {elapsed:.1f}s"


def check_decomposition_identity(cfg: _Cfg) -> tuple[bool, str]:
    n_max = _q(cfg, 18, 30)
    worst = 0.0
    worst_n = 0
    for n in range(1, n_max + 1):
        d = pr.decompose(n, cfg.ctx)
        if not (d.A > 0 and d.B > 0 and d.C > 0 and d.Q > 0):
            return False, f"nonpositive factor at n={n}"
        r = abs(d.rel_residual)
        if r > worst:
            worst, worst_n = r, n
    ok = worst < 1e-9
    return ok, f"max |Q - A*B*C|/Q = {worst:.2e} at n={worst_n}, n <= {n_max}"


def check_subsequence_convergence(cfg: _Cfg) -> tuple[bool, str]:
    lo, hi = _q(cfg, (14, 22), (20, 30))
    qs = {n: pr.Q_n(n, cfg.ctx).value for n in range(lo, hi + 1)}
    in_band = all(2.35 < v < 2.46 for v in qs.values())
    diffs = [abs(qs[n + 1] - qs[n]) for n in range(lo, hi)]
    half = len(diffs) // 2
    decreasing = sum(diffs[half:]) / (len(diffs) - half) < sum(diffs[:half]) / half
    final_dev = abs(qs[hi] - 2.407)
    cauchy = max(abs(qs[n] - qs[hi]) for n in qs) < 0.02
    ok = in_band and decreasing and final_dev < 0.05 and cauchy
    tail = ", ".join(f"{d:.1e}" for d in diffs[-3:])
    return ok, (
        f"Q_{lo}..Q_{hi} in (2.35,2.46): {in_band}; diffs decreasing on average: "
        f"{decreasing} (last |dQ|: {tail}); limit estimate (last value) Q_{hi} = "
        f"{qs[hi]:.6f}, |Q_{hi} - 2.407| = {final_dev:.4f}; cauchy<0.02: {cauchy}"
    )


def check_c_limit(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    T = _q(cfg, 10**5, 10**6)
    n_c = _q(cfg, 16, 20)
    t_max = min(T, 20000)
    logs = np.concatenate(list(pr.log_U_partials(t_max, ctx)))
    vals = np.exp(np.append(logs[96 : t_max - 1 : 97], logs[-1])).tolist()
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    u_full = pr.C_infinity_trunc(T, ctx)
    bounded = all(0.862 < v < 1.0 for v in vals) and 0.862 < u_full < 1.0
    first = 1.0 / pr.u_t(1, ctx) ** 2
    c_val = pr.C_n(n_c, ctx)
    close = abs(c_val - u_full) < 1e-2
    ok = monotone and bounded and close and first < 0.056
    matched = "unsquared" if abs(u_full - 0.928) < abs(u_full**2 - 0.928) else "squared"
    return ok, (
        f"U({T}) = {u_full:.6f} (U^2 = {u_full**2:.6f}; {matched} form is closer to 0.928, "
        f"dev {min(abs(u_full - 0.928), abs(u_full ** 2 - 0.928)):.4f}); partials in (0.862,1) "
        f"decreasing: {monotone and bounded}; |C_{n_c} - U| = {abs(c_val - u_full):.2e}; "
        f"1/u_1^2 = {first:.4f} < 0.056"
    )


def check_accumulation_point_zero(cfg: _Cfg) -> tuple[bool, str]:
    n = _q(cfg, 22, 28)
    fn = fc.fib(n)
    ratio = bk.birkhoff_S(fn, cfg.ctx) / math.log(fn)
    ok = abs(ratio) < 0.1
    return ok, (
        f"S_(F_{n})/ln F_{n} = {ratio:.4f} (tolerance 0.1; the value is "
        f"2 ln Q_{n}/ln F_{n}, which cannot drop below 0.1 until n ~ 38)"
    )


def check_accumulation_point_two(cfg: _Cfg) -> tuple[bool, str]:
    n = _q(cfg, 22, 28)
    fn = fc.fib(n)
    ratio = bk.birkhoff_S(fn - 1, cfg.ctx) / math.log(fn)
    ok = abs(ratio - 2.0) < 0.1
    return ok, f"S_(F_{n}-1)/ln F_{n} = {ratio:.4f}, within 0.1 of 2: {ok}"


def check_cot_enclosures(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    n_max = _q(cfg, 15, 25)
    inv_pi = 1.0 / math.pi
    worst_margin = math.inf
    for n in range(2, n_max + 1):
        norm = bk.cot_sum(n, ctx).normalized
        big = inv_pi * ((1.0 + _pow2n(ctx, n)) / math.sqrt(5.0) + ctx.omega_float)
        if n % 2:  # odd: (-big, 1/pi)
            lo, hi = -big, inv_pi
        else:  # even: (-1/pi, big)
            lo, hi = -inv_pi, big
        if not lo < norm < hi:
            return False, f"n={n}: {norm:.6f} outside ({lo:.4f}, {hi:.4f})"
        if not -0.71 < norm < 0.71:
            return False, f"n={n}: normalization window fails"
        # sign alternation with the enclosure side
        if n >= 3 and (norm > 0) != (n % 2 == 1):
            return False, f"n={n}: sign breaks alternation"
        worst_margin = min(worst_margin, hi - norm, norm - lo)
    cot2_hi = _q(cfg, 10, 18)
    margin2 = math.inf
    for n in range(4, cot2_hi + 1):
        value = bk.cot2_sum(n, ctx)  # raises if bound fails
        if value <= 0:
            return False, f"cot^2 sum nonpositive at n={n}"
        margin2 = min(margin2, bk.cot2_bound(n, ctx) / value)
    return True, (
        f"enclosures + alternation for n <= {n_max}; min margin {worst_margin:.4f}; "
        f"cot^2 within the doubled-grid bound for n <= {cot2_hi} "
        f"(min bound/value = {margin2:.3f})"
    )


def _pow2n(ctx: GoldenCtx, n: int) -> float:
    p = ctx.omega_pow_float(n)
    return p * p


def check_discrepancy(cfg: _Cfg) -> tuple[bool, str]:
    n_max, n_thetas = _q(cfg, (15, 100), (25, 1000))
    worst = 0.0
    for i in range(2, n_max + 1):
        hi, lo = bk.discrepancy_scan(fc.fib(i), n_thetas, cfg.seed + i, cfg.ctx)
        worst = max(worst, hi, -lo)
        if worst >= 1.5:
            return False, f"|sum| = {worst:.4f} >= 3/2 at q = F_{i}"
    return True, (
        f"max |sum({{theta+i omega}}-1/2)| = {worst:.4f} < 1.5 over q = F_2..F_{n_max}, "
        f"{n_thetas} thetas each"
    )


def check_partial_sums(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    lo, hi = _q(cfg, (8, 13), (8, 18))
    K = bk.PARTIAL_SUM_K
    worst_ratio = 0.0
    worst_split = 0.0
    for n in range(2, hi + 1):
        fn = fc.fib(n)
        series = bk.sum_series(n, fn - 1, 0.0, ctx)
        splits = bk.S_nt_splits(n, range(1, fn), ctx)
        pw = ctx.omega_pow_float(n)
        for t, (v, split) in enumerate(zip(series.values, splits), start=1):
            worst_split = max(worst_split, abs(split - v))
            if n >= lo:
                worst_ratio = max(worst_ratio, abs(v) / (K * pw * (math.log(t) + 1.0)))
    ok = worst_ratio < 1.0 and worst_split < 1e-12
    return ok, (
        f"max |S_nt|/bound = {worst_ratio:.3f} (n = {lo}..{hi}); max direct/split "
        f"disagreement = {worst_split:.2e} (n <= {hi})"
    )


def check_power_law(cfg: _Cfg) -> tuple[bool, str]:
    k_hi = fc.fib(_q(cfg, 14, 20))
    # extrema must be monotone in k_max: compare against a shorter prefix
    rep_half = bd.power_law_scan(k_hi // 2, cfg.ctx)
    rep = bd.power_law_scan(k_hi, cfg.ctx)
    monotone = rep.K1_emp <= rep_half.K1_emp and rep.K2_emp >= rep_half.K2_emp
    argmax_at_peak = any(rep.argmax == fc.fib(n) - 1 for n in range(3, 22))
    ok = rep.K2_emp >= 1.0 and monotone and argmax_at_peak
    return ok, (
        f"K2_emp = {rep.K2_emp:.4f} (argmax k={rep.argmax}, an F_n - 1) >= 1: "
        f"{rep.K2_emp >= 1.0}; extrema monotone in k_max: {monotone}"
    )


def check_power_law_k1_sign(cfg: _Cfg) -> tuple[bool, str]:
    k_hi = fc.fib(_q(cfg, 14, 20))
    rep = bd.power_law_scan(k_hi, cfg.ctx)
    ok = rep.K1_emp <= 0.0
    return ok, (
        f"K1_emp = min ln P_k/ln k = {rep.K1_emp:.4f} at k={rep.argmin} (<= 0 required; "
        f"P_k > 1 throughout the range, so the finite-scan minimum is ln Q_n/ln F_n > 0 "
        f"and approaches 0 only as k_max grows without bound)"
    )


def _prefix_logs(targets: list[int], ctx: GoldenCtx) -> dict[int, float]:
    """log P_k for every k in the sorted list targets, from one stride-1
    prefix pass up to targets[-1]; each chunk's targets are picked by
    index, k - ks.start."""
    logs: dict[int, float] = {}
    for ks, chunk in pr._log_prefix_iter(targets[-1], 1, ctx):
        lo = bisect.bisect_left(targets, ks.start)
        hi = bisect.bisect_left(targets, ks.stop, lo)
        for k in targets[lo:hi]:
            logs[k] = chunk[k - ks.start]
    return logs


def check_split_product(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    k_max = _q(cfg, 1000, 10_000)
    # every k <= k_max plus random large k up to F_25, from one prefix pass
    rng_ks = sorted(
        {2 + (hash((cfg.seed, i)) % (fc.fib(25) - 2)) for i in range(_q(cfg, 10, 100))}
    )
    ks = [*range(1, k_max + 1), *rng_ks]
    directs = _prefix_logs(sorted(set(ks)), ctx)
    worst = 0.0
    for k, (_segments, log_split, _err) in zip(ks, bd.split_logs(ks, ctx)):
        rel = abs(math.expm1(log_split - directs[k]))
        worst = max(worst, rel)
        if worst > 1e-10:
            return False, f"rel dev {rel:.2e} at k={k}"
    return True, (
        f"max rel dev split vs direct = {worst:.2e} over k <= {k_max} plus "
        f"{len(rng_ks)} random k <= F_25"
    )


def check_identity_suite(cfg: _Cfg) -> tuple[bool, str]:
    n_max, phis = _q(cfg, (60, 4), (200, 20))
    checks = bk.identity_suite(n_max, seed=cfg.seed, phis_per_n=phis)
    worst = max(checks, key=lambda c: c.max_rel_dev)
    ok = worst.max_rel_dev < 1e-11
    return ok, (
        f"{len(checks)} identities, n <= {n_max}, {phis} phases each; worst "
        f"{worst.name} = {worst.max_rel_dev:.2e} at n={worst.worst_n}"
    )


def check_inequality_toolkit(cfg: _Cfg) -> tuple[bool, str]:
    import random as _random

    samples = _q(cfg, 10_000, 100_000)
    convex = bd.convex_sine_check(samples, seed=cfg.seed)
    if not convex.passed:
        return False, "convex sine sandwich violated"
    rng = _random.Random(cfg.seed)
    for _ in range(_q(cfg, 1000, 10_000)):
        m = rng.randint(1, 50)
        raw = [rng.uniform(-1.0, 1.0) for _ in range(m)]
        scale = rng.uniform(0.1, 0.95) / max(1e-12, sum(abs(x) for x in raw))
        report = bd.prod_bounds_check([x * scale for x in raw])
        if not report.passed:
            return False, f"product sandwich violated: {report}"
    log_report = bd.log_lower_check()
    ok = (
        log_report.passed
        and log_report.root_hi - log_report.root_lo < 1e-6
        and -0.684 < log_report.root_lo
    )
    return ok, (
        f"convex-sine margins ({convex.worst_lower_margin:.2e}, {convex.worst_upper_margin:.2e}); "
        f"product sandwich on random sequences; log(1+x) >= x-x^2 with root in "
        f"({log_report.root_lo:.7f}, {log_report.root_hi:.7f})"
    )


def check_csv_reproducibility(cfg: _Cfg) -> tuple[bool, str]:
    from . import cli

    for sub, args in (
        ("profile", ["profile", "12", "--stride", "3"]),
        ("cotprofile", ["cotprofile", "10"]),
        ("scan", ["scan", "610"]),
    ):
        blobs = set()
        for workers in (1, 4, 8):
            buf = io.StringIO()
            status = cli.run(args + ["--workers", str(workers), "--precision", str(cfg.ctx.P)], stdout=buf)
            if status != 0:
                return False, f"{sub} exited {status}"
            blobs.add(buf.getvalue())
        if len(blobs) != 1:
            return False, f"{sub} differs across workers"
    return True, "profile/cotprofile/scan byte-identical for workers 1, 4, 8"


# ---------------------------------------------------------------------------
# remaining module invariants
# ---------------------------------------------------------------------------


def check_multiplicativity(cfg: _Cfg) -> tuple[bool, str]:
    import random as _random

    ctx = cfg.ctx
    n_hi, n_samples = _q(cfg, (20, 1000), (30, 10_000))
    k_max = fc.fib(n_hi)
    rng = _random.Random(cfg.seed)
    targets = sorted({rng.randrange(1, k_max - 1) for _ in range(n_samples)})
    logs = _prefix_logs(sorted(set(targets) | {t + 1 for t in targets}), ctx)
    worst = 0.0
    for k in targets:
        term = math.log(abs(2.0 * math.sin(math.pi * frac_r_omega(k + 1, ctx).to_float())))
        worst = max(worst, abs(logs[k + 1] - logs[k] - term))
    ok = worst < 1e-9
    return ok, (
        f"max |log P_(k+1) - log P_k - log|2 sin pi(k+1)omega|| = {worst:.2e} "
        f"over {len(targets)} random k <= F_{n_hi}"
    )


def check_b_factor(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    n_max = _q(cfg, 18, 25)
    worst = 0.0
    for n in range(10, n_max + 1):
        drift = abs(math.log(pr.B_n(n, ctx)) - math.log(pr.B_star(n, ctx)))
        worst = max(worst, drift / ctx.omega_pow_float(n))
    ok = worst < 2.0
    return ok, f"max |log B_n - log B*_n| / omega^n = {worst:.3f} <= 2, n <= {n_max}"


def check_a_factor(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    limit = 2.0 * math.pi / math.sqrt(5.0)
    worst_hi = 0.0
    worst_lo = math.inf
    for n in range(5, 31):
        ratio = abs(pr.A_n(n, ctx) - limit) / _pow2n(ctx, n)
        worst_hi = max(worst_hi, ratio)
        worst_lo = min(worst_lo, ratio)
    ok = 1.5 < worst_lo and worst_hi < 8.0
    return ok, f"|A_n - 2pi/sqrt5| / omega^2n in ({worst_lo:.3f}, {worst_hi:.3f}) for n = 5..30"


def check_perturbed_ratio(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    n_max = _q(cfg, 12, 20)
    lo_seen = math.inf
    hi_seen = 0.0
    per_n_lo = []
    for n in range(4, n_max + 1):
        qn = pr.Q_n(n, ctx).value
        m_1 = ctx.omega_pow_mantissa(n + 1)
        n_lo = math.inf
        for fracpos in (-1.0, -0.7, -0.35, 0.35, 0.7, 1.0):
            am = int(fracpos * m_1)
            log_v, _err = pr.log_abs_sin_product(
                fc.fib(n), ctx, alpha_mantissa=am, alpha_err=2.0 ** (-ctx.P)
            )
            ratio = math.exp(log_v) / qn
            lo_seen = min(lo_seen, ratio)
            hi_seen = max(hi_seen, ratio)
            n_lo = min(n_lo, ratio)
        per_n_lo.append(n_lo)
    stable = all(r > bd.PERTURBED_RATIO_LOWER for r in per_n_lo)
    ok = hi_seen < bd.PERTURBED_RATIO_UPPER and lo_seen > bd.PERTURBED_RATIO_LOWER and stable
    if abs(bd.n1_alpha_counterexample(ctx)) > 1e-30:
        return False, "n=1 counterexample not zero"
    return ok, (
        f"ratio to Q_n in ({lo_seen:.4f}, {hi_seen:.4f}) for n = 4..{n_max}, "
        f"|alpha| <= omega^(n+1); proven upper e^(omega(1/sqrt5+omega)) = "
        f"{bd.PERTURBED_RATIO_UPPER:.4f}, recorded empirical floor {bd.PERTURBED_RATIO_LOWER}"
    )


def check_segment_factors(cfg: _Cfg) -> tuple[bool, str]:
    """Every Zeckendorf segment factor over k <= k_max sits inside the
    perturbed-product range around its Q_s."""
    ctx = cfg.ctx
    k_max = _q(cfg, 1000, 10_000)
    qn_cache: dict[int, float] = {}
    lo_seen = math.inf
    hi_seen = 0.0
    for segments, _log, _err in bd.split_logs(range(1, k_max + 1), ctx):
        for seg in segments:
            if seg.s not in qn_cache:
                qn_cache[seg.s] = pr.Q_n(seg.s, ctx).value
            ratio = seg.factor / qn_cache[seg.s]
            lo_seen = min(lo_seen, ratio)
            hi_seen = max(hi_seen, ratio)
    ok = lo_seen > bd.PERTURBED_RATIO_LOWER and hi_seen < bd.PERTURBED_RATIO_UPPER
    return ok, f"segment/Q_s ratios in ({lo_seen:.4f}, {hi_seen:.4f}) over k <= {k_max}"


def check_peak_ratio_form(cfg: _Cfg) -> tuple[bool, str]:
    """P_{F_n - 1}/F_n approaches c sqrt(5)/(2 pi), not c/(2 pi sqrt(5));
    the two candidate closed forms differ by a factor 5, and the scan
    reports which one the data matches."""
    ctx = cfg.ctx
    n = _q(cfg, 16, 22)
    c = pr.Q_n(n, ctx).value
    ratio = pr.ratio_PFn_minus1(n, ctx)
    form_a = c * math.sqrt(5.0) / (2.0 * math.pi)
    form_b = c / (2.0 * math.pi * math.sqrt(5.0))
    dev_a = abs(ratio - form_a)
    dev_b = abs(ratio - form_b)
    matched = "c*sqrt(5)/(2 pi)" if dev_a < dev_b else "c/(2 pi sqrt(5))"
    identity = abs(ratio * pr.A_n(n, ctx) - c) < 1e-9 * c
    ok = identity and min(dev_a, dev_b) < 1e-2
    return ok, (
        f"P_(F_{n}-1)/F_{n} = {ratio:.6f} matches {matched} (dev {min(dev_a, dev_b):.2e}; "
        f"other form dev {max(dev_a, dev_b):.2e}); ratio * A_n = Q_n identity: {identity}"
    )


def check_profile_consistency(cfg: _Cfg) -> tuple[bool, str]:
    ctx = cfg.ctx
    n_ref = _q(cfg, 14, 18)
    want = {fc.fib(n): n for n in range(3, n_ref + 1)}
    peaks: dict[int, float] = {}
    run_max, run_arg = 0.0, 1
    mismatch = 0.0
    for ks, ps, _logs in pr.profile(n_ref, 1, ctx):
        for k, p_k in zip(ks, ps):
            if p_k > run_max:
                run_max, run_arg = p_k, k
            if k in want:
                direct = pr.Q_n(want[k], ctx).value
                mismatch = max(mismatch, abs(p_k - direct))
                peaks[k] = run_max
    # peaks grow roughly linearly: max over k <= F_n sits near F_n - 1 and
    # scales like the running index
    ratios = [peaks[fc.fib(n)] / fc.fib(n) for n in range(8, n_ref + 1)]
    linearish = max(ratios) / min(ratios) < 2.0
    ok = mismatch == 0.0 and linearish and run_arg in {fc.fib(n) - 1 for n in range(3, n_ref + 2)}
    return ok, (
        f"profile at k=F_n bit-identical to Q_n (n <= {n_ref}); peak/F_n ratios within "
        f"factor {max(ratios) / min(ratios):.2f}; running argmax k={run_arg} is an F_n - 1"
    )


_MODULE_CHECKS: list[tuple[str, Callable[[_Cfg], tuple[bool, str]]]] = [
    ("fib-identities", check_fib_identities),
    ("fib-closed-form", check_fib_closed_form),
    ("zeckendorf-roundtrip", check_zeckendorf_roundtrip),
    ("fib-length-bounds", check_fib_length_bounds),
    ("fib-mod-inverse", check_fib_mod_inverse),
    ("omega-constants", check_omega_constants),
    ("frac-error-model", check_frac_error_model),
    ("seq-lemmas", check_seq_lemmas),
    ("rational-product-exactness", check_rational_exactness),
    ("decomposition-identity", check_decomposition_identity),
    ("subsequence-convergence", check_subsequence_convergence),
    ("c-limit-bounds", check_c_limit),
    ("accumulation-point-zero", check_accumulation_point_zero),
    ("accumulation-point-two", check_accumulation_point_two),
    ("cot-sum-enclosures", check_cot_enclosures),
    ("discrepancy-bound", check_discrepancy),
    ("partial-sum-bounds", check_partial_sums),
    ("power-law-envelope", check_power_law),
    ("power-law-k1-sign", check_power_law_k1_sign),
    ("split-product-agreement", check_split_product),
    ("identity-suite", check_identity_suite),
    ("inequality-toolkit", check_inequality_toolkit),
    ("multiplicativity", check_multiplicativity),
    ("b-factor-comparison", check_b_factor),
    ("a-factor-limit", check_a_factor),
    ("perturbed-ratio-range", check_perturbed_ratio),
    ("segment-factor-range", check_segment_factors),
    ("peak-ratio-form", check_peak_ratio_form),
    ("profile-consistency", check_profile_consistency),
    ("csv-reproducibility", check_csv_reproducibility),
]

CHECK_NAMES = [name for name, _fn in _MODULE_CHECKS]


def run_checks(
    level: str = "quick",
    seed: int = 0,
    precision: int = 192,
    workers: int = 1,
    only: set[str] | None = None,
) -> list[CheckResult]:
    """Run the verification suite, or the checks named in ``only``, and
    return one CheckResult per check.  ``workers`` is accepted and ignored."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    unknown = sorted(set(only or ()) - set(CHECK_NAMES))
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(unknown)}")
    cfg = _Cfg(level=level, seed=seed, ctx=make_ctx(precision))
    results = []
    for name, fn in _MODULE_CHECKS:
        if only is not None and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(cfg)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results
