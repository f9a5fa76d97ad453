"""Sum-side machinery: partial sums of sin(pi omega^n xi), the 3/2
discrepancy bound at convergent denominators, cotangent sums with their
enclosures, the Birkhoff sum 2 log P_k, and the executable suite of
sine/cosine sum and product identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from ._engine import block_spans, cot_block, map_blocks, merge_partials, neumaier, orbit, orbit_err
from .errors import PrecisionExhausted
from .fibcore import zeckendorf
from .goldenangle import GoldenCtx
from .products import sudler_P

__all__ = [
    "SumSeries",
    "CotSum",
    "sum_series",
    "S_nt",
    "S_nt_split",
    "frac_sum_convergent",
    "discrepancy_scan",
    "cot_sum",
    "cot2_sum",
    "cot2_bound",
    "cot_profile",
    "birkhoff_S",
    "lagrange_sin_sum",
    "lagrange_k_sin_sum",
    "direct_sin_sum",
    "direct_k_sin_sum",
    "IdentityCheck",
    "identity_suite",
    "PARTIAL_SUM_K",
]

_EPS = 2.0**-53

# Fixed constant for the partial-sum growth bound |S_nt| < K omega^n (ln t + 1):
# (3/2) pi / ln(2 + omega) plus 1 to absorb the O(n omega^2n) remainder.
_OMEGA = (math.sqrt(5.0) - 1.0) / 2.0
PARTIAL_SUM_K = 1.5 * math.pi / math.log(2.0 + _OMEGA) + 1.0


@dataclass(frozen=True)
class SumSeries:
    """Partial sums S_nt(theta) = sum_{r<=t} sin(pi omega^n ({theta + r omega} - 1/2))
    for t = 1..t_max; values[t-1] holds S_nt."""

    n: int
    theta: float
    values: tuple[float, ...]
    err: float


def _theta_mantissa(theta, ctx: GoldenCtx) -> int:
    frac = Fraction(theta) % 1
    return round(frac * (1 << ctx.P))


def sum_series(n: int, t_max: int, theta, ctx: GoldenCtx) -> SumSeries:
    """All partial sums S_nt(theta) for 1 <= t <= t_max in one pass."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    pw = ctx.omega_pow_float(n)
    pi_pw = math.pi * pw
    s = comp = 0.0
    values: list[float] = []
    for _lo, x, neg in orbit(_theta_mantissa(theta, ctx), ctx.omega.mantissa, ctx.P, t_max):
        run_s, run_c = neumaier(np.sin(pi_pw * np.where(neg, 0.5 - x, x - 0.5)), s, comp)
        s, comp = run_s[-1], run_c[-1]
        values += (run_s + run_c).tolist()
    ang_err = (t_max + 2) * 2.0 ** (-ctx.P) + orbit_err(ctx.P)
    err = t_max * (4.0 * _EPS * pw + ang_err * pi_pw)
    return SumSeries(n=n, theta=float(theta), values=tuple(values), err=err)


def S_nt(n: int, t: int, theta, ctx: GoldenCtx, check_split: bool = False) -> float:
    """S_nt(theta) by direct summation.

    With check_split=True (theta = 0 only) the Zeckendorf-split evaluation
    is computed as well and the two values must agree to 1e-12.
    """
    series = sum_series(n, t, theta, ctx)
    value = series.values[-1] if t > 0 else 0.0
    if check_split:
        if Fraction(theta) % 1 != 0:
            raise ValueError("the Zeckendorf split applies to theta = 0")
        split = S_nt_split(n, t, ctx)
        if abs(split - value) > 1e-12:
            raise PrecisionExhausted(
                f"direct/split disagreement {abs(split - value):.3e} at n={n}, t={t}"
            )
    return value


def S_nt_split(n: int, t: int, ctx: GoldenCtx, memo: dict | None = None) -> float:
    """S_nt(0) assembled from its Zeckendorf segments,

        S_nt = sum_s b_s S_{n, F_s}(t_s omega),  t_s = sum_{u > s} b_u F_u,

    with every segment summed afresh from its own phase t_s omega.  ``memo``
    (keyed by (n, s, t_s)) lets bulk scans share segment sums.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0.0
    parts = []
    tail = 0
    w = ctx.omega.mantissa
    one = 1 << ctx.P
    for s in zeckendorf(t, ctx.fibs).indices():
        fs = ctx.fibs.fib(s)
        key = (n, s, tail)
        if memo is not None and key in memo:
            seg = memo[key]
        else:
            seg = sum_series(n, fs, Fraction((tail * w) % one, one), ctx).values[-1]
            if memo is not None:
                memo[key] = seg
        parts.append(seg)
        tail += fs
    return math.fsum(parts)


def frac_sum_convergent(q: int, alpha, theta) -> float:
    """sum_{i=1}^{q} ({theta + i alpha} - 1/2), evaluated in exact rational
    arithmetic; below 3/2 in absolute value whenever q is a convergent
    denominator of alpha."""
    if q < 1:
        raise ValueError("q must be >= 1")
    a = Fraction(alpha)
    th = Fraction(theta)
    total = Fraction(0)
    x = th
    for _ in range(q):
        x += a
        total += x % 1
    return float(total - Fraction(q, 2))


def discrepancy_scan(
    q: int, n_thetas: int, seed: int, ctx: GoldenCtx
) -> tuple[float, float]:
    """(max, min) over random theta of the centered fractional-part sum
    sum_{i=1}^q ({theta + i omega'} - 1/2) at a 62-bit dyadic omega'.

    omega' and the thetas are exact dyadics, and each sum is evaluated in
    exact integer arithmetic (a sorted-count identity), so the discrepancy
    bound applies to the computed values verbatim: F_{n-1}/F_n stays a
    convergent of omega' up to q ~ 2e9.
    """
    bits = 62
    one = 1 << bits
    w62 = (ctx.omega.mantissa + (1 << (ctx.P - bits - 1))) >> (ctx.P - bits)
    angles = np.empty(q, dtype=np.int64)
    a = 0
    for i in range(q):
        a += w62
        if a >= one:
            a -= one
        angles[i] = a
    base_sum = int(sum(angles.tolist()))
    angles.sort()
    rng = np.random.default_rng(seed)
    thetas = rng.integers(0, one, size=n_thetas, dtype=np.int64)
    hi = -math.inf
    lo = math.inf
    scale = 2.0 ** (-bits)
    half_term = q * (one >> 1)
    for th in thetas.tolist():
        wraps = q - int(np.searchsorted(angles, one - th))
        s_int = base_sum + q * th - wraps * one - half_term
        val = s_int * scale
        if val > hi:
            hi = val
        if val < lo:
            lo = val
    return hi, lo


class CotSum(NamedTuple):
    value: float
    normalized: float


def cot_sum(n: int, ctx: GoldenCtx, workers: int = 1) -> CotSum:
    """sum_{r=1}^{F_n} cot(pi r omega) and the normalized omega^n * sum.

    The three-distance minimum (distance omega^n at r = F_n) is asserted
    at runtime rather than trusted.
    """
    if n < 2:
        raise ValueError("level n must be >= 2")
    value, _err, min_u = _cot_sum_raw(ctx.fibs.fib(n), ctx, workers, square=False)
    pw = ctx.omega_pow_float(n)
    if min_u * 2.0 ** (-ctx.P) < 0.5 * pw:
        raise PrecisionExhausted(
            f"closest approach {min_u * 2.0 ** (-ctx.P):.3e} undercuts the "
            f"three-distance floor at n={n}"
        )
    return CotSum(value=value, normalized=pw * value)


def _cot_sum_raw(
    count: int, ctx: GoldenCtx, workers: int, square: bool
) -> tuple[float, float, int]:
    P = ctx.P
    w = ctx.omega.mantissa
    one = 1 << P
    ang_err = (count + 1) * 2.0 ** (-P)
    jobs = [
        ((s * w) % one, w, P, cnt, ang_err, (), square) for s, cnt in block_spans(count)
    ]
    results = map_blocks(cot_block, jobs, workers)
    value = merge_partials([(s, c) for s, c, _e, _m, _sn in results])
    err = math.fsum(e for _s, _c, e, _m, _sn in results)
    min_u = min(m for _s, _c, _e, m, _sn in results)
    return value, err, min_u


def cot2_sum(n: int, ctx: GoldenCtx, workers: int = 1) -> float:
    """sum_{r=1}^{F_n} cot^2(pi r omega); asserted against cot2_bound."""
    if n < 4:
        raise ValueError("the squared-cotangent bound starts at n = 4")
    value, _err, _min_u = _cot_sum_raw(ctx.fibs.fib(n), ctx, workers, square=True)
    bound = cot2_bound(n, ctx)
    if value > bound:
        raise PrecisionExhausted(
            f"cot^2 sum {value:.6e} exceeds its bound {bound:.6e} at n={n}"
        )
    return value


def cot2_bound(n: int, ctx: GoldenCtx) -> float:
    """F_n^2 / 3 + (1 + omega^2) / (pi^2 omega^{2n}).

    The non-singular terms fold onto two copies of the half-period grid
    sum 2 sum_{s<=F_n/2} (F_n / pi s)^2 < (2/pi^2) F_n^2 (pi^2/6) = F_n^2/3;
    the trailing part covers the two closest approaches r = F_n, F_{n-1}.
    (Dropping the doubling would give F_n^2/6, which the actual sums
    overtake from n = 9 on: the measured non-singular mass is about
    0.174 F_n^2.)
    """
    fn = ctx.fibs.fib(n)
    pw = ctx.omega_pow_float(n)
    om2 = ctx.omega_float**2
    return fn * fn / 3.0 + (1.0 + om2) / (math.pi**2 * pw * pw)


def cot_profile(n: int, ctx: GoldenCtx) -> Iterator[tuple[int, float]]:
    """(k, (-1)^n sum_{r<=k} cot(pi r omega)) for k = 1..F_n - 1."""
    if n < 3:
        raise ValueError("level n must be >= 3")
    count = ctx.fibs.fib(n) - 1
    P = ctx.P
    w = ctx.omega.mantissa
    one = 1 << P
    sign = -1.0 if n % 2 else 1.0
    ang_err = (count + 1) * 2.0 ** (-P)
    done: list[float] = []
    for start, cnt in block_spans(count):
        s, c, _e, _m, snaps = cot_block(
            (start * w) % one, w, P, cnt, ang_err, emit_at=np.arange(1, cnt + 1)
        )
        for i, s_at, c_at in zip(*(col.tolist() for col in snaps)):
            yield (start + i, sign * math.fsum(done + [s_at, c_at]))
        done.append(s)
        done.append(c)


def birkhoff_S(k: int, ctx: GoldenCtx, workers: int = 1) -> float:
    """The Birkhoff sum 2 log P_k(omega)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 * sudler_P(k, ctx, workers=workers).log_value


# ---------------------------------------------------------------------------
# Closed-form sums of sines and the identity suite
# ---------------------------------------------------------------------------


def lagrange_sin_sum(theta: float, x: float, n: int) -> float:
    """Closed form of sum_{k=1}^{n} sin(theta + k x); x must avoid 2 pi Z."""
    s = math.sin(0.5 * x)
    if s == 0.0:
        raise ValueError("singular angle: x is a multiple of 2*pi")
    return (math.cos(theta + 0.5 * x) - math.cos(theta + (n + 0.5) * x)) / (2.0 * s)


def lagrange_k_sin_sum(theta: float, x: float, n: int) -> float:
    """Closed form of the weighted sum sum_{k=1}^{n} k sin(theta + k x)."""
    s = math.sin(0.5 * x)
    if s == 0.0:
        raise ValueError("singular angle: x is a multiple of 2*pi")
    num = (
        math.sin(theta + n * x)
        - math.sin(theta)
        - 2.0 * n * math.cos(theta + (n + 0.5) * x) * s
    )
    return num / (4.0 * s * s)


def direct_sin_sum(theta: float, x: float, n: int) -> float:
    k = np.arange(1, n + 1)
    return math.fsum(np.sin(theta + k * x))


def direct_k_sin_sum(theta: float, x: float, n: int) -> float:
    k = np.arange(1, n + 1)
    return math.fsum(k * np.sin(theta + k * x))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    max_rel_dev: float
    worst_n: int
    samples: int


def _dev(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def identity_suite(
    n_max: int, seed: int = 0, phis_per_n: int = 4
) -> list[IdentityCheck]:
    """Check every sum/product identity for 2 <= n <= n_max at randomized
    phases kept away from the singular grids; returns per-identity maxima
    of the relative deviation."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    rng = np.random.default_rng(seed)
    worst: dict[str, tuple[float, int, int]] = {}

    def record(name: str, dev: float, n: int) -> None:
        d, wn, cnt = worst.get(name, (-1.0, 0, 0))
        if dev > d:
            worst[name] = (dev, n, cnt + 1)
        else:
            worst[name] = (d, wn, cnt + 1)

    def rand_u(size: int) -> np.ndarray:
        u = rng.uniform(0.1, 0.3, size=size)
        return u * rng.choice([-1.0, 1.0], size=size)

    def red(numerator: int, shift: int) -> float:
        # exact reduction of numerator/2^shift modulo 2
        return float(numerator & ((1 << (shift + 1)) - 1)) * 2.0**-shift

    for n in range(2, n_max + 1):
        r = np.arange(n)
        # Lagrange sums at x = pi q for dyadic q; every phase theta + k x is
        # reduced mod 2 pi through exact integer arithmetic on q's mantissa,
        # so neither side loses accuracy to large-argument rounding.
        for _ in range(phis_per_n):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            qm = int(rng.integers(int(0.064 * 2**52), int(1.936 * 2**52)))
            terms = [math.sin(theta + math.pi * red(k * qm, 52)) for k in range(1, n + 1)]
            direct = math.fsum(terms)
            direct_k = math.fsum(k * t for k, t in zip(range(1, n + 1), terms))
            half_x = math.pi * (qm * 2.0**-53)
            s = math.sin(half_x)
            closed = (
                math.cos(theta + half_x)
                - math.cos(theta + math.pi * red((2 * n + 1) * qm, 53))
            ) / (2.0 * s)
            closed_k = (
                math.sin(theta + math.pi * red(n * qm, 52))
                - math.sin(theta)
                - 2.0 * n * math.cos(theta + math.pi * red((2 * n + 1) * qm, 53)) * s
            ) / (4.0 * s * s)
            record("sin-sum-closed-form", _dev(direct, closed), n)
            record("weighted-sin-sum-closed-form", _dev(direct_k, closed_k), n)
        # shifted products/sums on the pi/n grid
        for u in rand_u(phis_per_n):
            phi = (math.pi / n) * (0.5 + u)
            shift = phi + math.pi * r / n
            record("sine-shift-product", _dev(float(np.prod(2.0 * np.sin(shift))), 2.0 * math.sin(n * phi)), n)
            record("cot-shift-sum", _dev(float(np.sum(1.0 / np.tan(shift))), n / math.tan(n * phi)), n)
            cosprod = float(np.prod(2.0 * np.cos(shift)))
            if n % 2:
                rhs = (-1.0) ** ((n - 1) // 2) * 2.0 * math.cos(n * phi)
                record("cos-shift-product-odd", _dev(cosprod, rhs), n)
            else:
                rhs = (-1.0) ** (n // 2) * 2.0 * math.sin(n * phi)
                record("cos-shift-product-even", _dev(cosprod, rhs), n)
            double = phi + 2.0 * math.pi * r / n
            sinprod = float(np.prod(2.0 * np.sin(double)))
            if n % 2:
                rhs = (-1.0) ** ((n - 1) // 2) * 2.0 * math.sin(n * phi)
                record("sine-double-shift-product-odd", _dev(sinprod, rhs), n)
            else:
                rhs = (-1.0) ** (n // 2) * 2.0 * (1.0 - math.cos(n * phi))
                record("sine-double-shift-product-even", _dev(sinprod, rhs), n)
        # the three evaluations at the integer points
        rr = np.arange(1, n)
        record("sine-roots-product", _dev(float(np.prod(2.0 * np.sin(math.pi * rr / n))), float(n)), n)
        if n % 2:
            rhs = (-1.0) ** ((n - 1) // 2) * n
            record("sine-double-roots-odd", _dev(float(np.prod(2.0 * np.sin(2.0 * math.pi * rr / n))), rhs), n)
        else:
            rs = rr[rr != n // 2]
            rhs = (-1.0) ** (n // 2 - 1) * (n * n / 4.0)
            record("sine-double-roots-even", _dev(float(np.prod(2.0 * np.sin(2.0 * math.pi * rs / n))), rhs), n)

    return [
        IdentityCheck(name=k, max_rel_dev=v[0], worst_n=v[1], samples=v[2])
        for k, v in sorted(worst.items())
    ]
