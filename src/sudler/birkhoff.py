"""Sum-side machinery: partial sums of sin(pi omega^n xi), whole and split
into Zeckendorf segments (``goldenangle.zeckendorf_segments``), the 3/2
discrepancy bound at convergent denominators, cotangent sums with their
enclosures, the Birkhoff sum 2 log P_k, and the executable suite of
sine/cosine sum and product identities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._engine import cot_block, cot_terms, merge_partials, orbit_sums, prefix_sums
from .errors import PrecisionExhausted
from .fibcore import OMEGA
from .goldenangle import GoldenCtx, phase_mantissa, zeckendorf_segments
from .products import sudler_P

__all__ = [
    "SumSeries",
    "CotSum",
    "sum_series",
    "S_nt_splits",
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
PARTIAL_SUM_K = 1.5 * math.pi / math.log(2.0 + OMEGA) + 1.0


@dataclass(frozen=True)
class SumSeries:
    """Partial sums S_nt(theta) = sum_{r<=t} sin(pi omega^n ({theta + r omega} - 1/2))
    for t = 1..t_max; values[t-1] holds S_nt."""

    n: int
    theta: float
    values: tuple[float, ...]


def _sine_partials(
    n: int, anchors: list[int], count: int, ctx: GoldenCtx
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, partials) chunk by chunk, where row j of partials holds
    the compensated running sums of sin(pi omega^n ({a + r omega} - 1/2))
    over r = 1..count for the anchor a = anchors[rows][j] / 2^P."""
    pi_pw = math.pi * ctx.omega_pow_float(n)

    def terms(x, neg, _ang_err, out, _tmp):  # the partial sums carry no bound
        np.sin(pi_pw * np.where(neg, 0.5 - x, x - 0.5), out=out)
        return 0.0, 0.0

    for rows, _lo, _x, run_s, run_c, _err, _ang in orbit_sums(
        terms, anchors, ctx.omega.mantissa, ctx.P, count, 0.0
    ):
        yield rows, run_s + run_c


def sum_series(n: int, t_max: int, theta, ctx: GoldenCtx) -> SumSeries:
    """All partial sums S_nt(theta) for 1 <= t <= t_max in one pass."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    values: list[float] = []
    for _rows, partials in _sine_partials(n, [phase_mantissa(theta, ctx)[0]], t_max, ctx):
        values += partials[0].tolist()
    return SumSeries(n=n, theta=float(theta), values=tuple(values))


def S_nt_splits(n: int, ts: Iterable[int], ctx: GoldenCtx) -> list[float]:
    """S_nt(0) for every t in ts, assembled from its Zeckendorf segments,

        S_nt = sum_s b_s S_{n, F_s}(t_s omega),  t_s = sum_{u > s} b_u F_u,

    with every segment summed afresh from its own phase t_s omega, and the
    distinct segment sums of each index s (all F_s terms long) computed in
    one orbit pass (``goldenangle.zeckendorf_segments``).
    """
    if n < 1:
        raise ValueError("level n must be >= 1")

    def totals(s: int, phases: list[int], _tails: list[int]) -> list[float]:
        sums = np.empty(len(phases))
        for rows, partials in _sine_partials(n, phases, ctx.fibs.fib(s), ctx):
            sums[rows] = partials[:, -1]
        return sums.tolist()

    return [math.fsum([seg[3] for seg in walk]) for walk in zeckendorf_segments(ts, ctx, totals)]


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
    # i w62 wraps mod 2^64 in uint64, which 2^62 divides, so the mask
    # leaves i w62 mod 2^62 exactly; every angle fits an int64.
    angles = (np.arange(1, q + 1, dtype=np.uint64) * np.uint64(w62)) & np.uint64(one - 1)
    angles = np.sort(angles.astype(np.int64))
    base_sum = sum(angles.tolist()) - q * (one >> 1)
    thetas = np.random.default_rng(seed).integers(0, one, size=n_thetas, dtype=np.int64)
    # theta + a_i wraps past 1 exactly for the angles a_i >= 1 - theta
    wraps = q - np.searchsorted(angles, one - thetas)
    # Python ints: a wrapping int64 sum is exact only while |sum| < 2
    sums = [base_sum + q * th - wr * one for th, wr in zip(thetas.tolist(), wraps.tolist())]
    scale = 2.0 ** (-bits)
    return max(sums) * scale, min(sums) * scale


class CotSum(NamedTuple):
    """A cotangent sum, its normalized omega^n * sum, and a bound on the
    absolute error of each."""

    value: float
    normalized: float
    err: float
    normalized_err: float


def cot_sum(n: int, ctx: GoldenCtx) -> CotSum:
    """sum_{r=1}^{F_n} cot(pi r omega) and the normalized omega^n * sum,
    with their error bounds.

    The sum's bound is the kernel's charge.  The normalized value's bound
    is omega^n times that plus |normalized| times omega^n's relative
    error: the P-bit omega's F_n 2^-P / omega^n, and 3 eps for the
    rounding of omega^n and of the product and for second-order terms.
    The three-distance minimum (distance omega^n at r = F_n) is asserted
    at runtime rather than trusted.
    """
    if n < 2:
        raise ValueError("level n must be >= 2")
    fn = ctx.fibs.fib(n)
    s, comp, err, min_u = cot_block(0, ctx.omega.mantissa, ctx.P, fn, (fn + 1) * 2.0 ** (-ctx.P))
    value = merge_partials([(s, comp)])
    pw = ctx.omega_pow_float(n)
    if min_u * 2.0 ** (-ctx.P) < 0.5 * pw:
        raise PrecisionExhausted(
            f"closest approach {min_u * 2.0 ** (-ctx.P):.3e} undercuts the "
            f"three-distance floor at n={n}"
        )
    normalized = pw * value
    pw_err = 3.0 * _EPS + fn * 2.0 ** (-ctx.P) / pw
    return CotSum(value, normalized, err, pw * err + pw_err * abs(normalized))


def cot2_sum(n: int, ctx: GoldenCtx) -> float:
    """sum_{r=1}^{F_n} cot^2(pi r omega), certified against cot2_bound: the
    sum plus the kernel's error bound must stay within it."""
    if n < 4:
        raise ValueError("the squared-cotangent bound starts at n = 4")
    fn = ctx.fibs.fib(n)
    s, comp, err, _min_u = cot_block(0, ctx.omega.mantissa, ctx.P, fn, (fn + 1) * 2.0 ** (-ctx.P), True)
    value = merge_partials([(s, comp)])
    bound = cot2_bound(n, ctx)
    if value + err > bound:
        raise PrecisionExhausted(
            f"cot^2 sum {value:.6e} (error bound {err:.1e}) exceeds its bound {bound:.6e} at n={n}"
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


def cot_profile(n: int, ctx: GoldenCtx) -> Iterator[tuple[range, list[float]]]:
    """Yield (ks, partials) per orbit chunk, the columns k and
    (-1)^n sum_{r<=k} cot(pi r omega) for k = 1..F_n - 1."""
    if n < 3:
        raise ValueError("level n must be >= 3")
    count = ctx.fibs.fib(n) - 1
    for _end, ks, partials, _err, _ang in prefix_sums(cot_terms, ctx.omega.mantissa, ctx.P, count, 1):
        yield ks, [-v for v in partials] if n % 2 else partials


def birkhoff_S(k: int, ctx: GoldenCtx) -> float:
    """The Birkhoff sum 2 log P_k(omega)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 * sudler_P(k, ctx).log_value


# ---------------------------------------------------------------------------
# Closed-form sums of sines and the identity suite
# ---------------------------------------------------------------------------


def _red(numerator: int, shift: int) -> float:
    """numerator / 2^shift reduced modulo 2, exactly: only the integer
    reduction happens before the one rounding to float."""
    return float(numerator & ((1 << (shift + 1)) - 1)) * 2.0**-shift


def _dyadic(q: float) -> tuple[int, int]:
    """q = qm / 2^shift exactly (a float is a dyadic rational); rejects
    q = 0 (mod 2), where x = pi q is a multiple of 2 pi, in integers."""
    qm, den = float(q).as_integer_ratio()
    if qm & (2 * den - 1) == 0:
        raise ValueError("singular angle: x = pi q is a multiple of 2*pi")
    return qm, den.bit_length() - 1


def lagrange_sin_sum(theta: float, q: float, n: int) -> float:
    """Closed form of sum_{k=1}^{n} sin(theta + k x) at x = pi q, q not in 2Z.

    Every multiple of q is reduced modulo 2 in integers before pi
    multiplies it, so no phase loses accuracy to large-argument rounding.
    """
    qm, shift = _dyadic(q)
    half_x = math.pi * _red(qm, shift + 1)
    end_x = math.pi * _red((2 * n + 1) * qm, shift + 1)
    return (math.cos(theta + half_x) - math.cos(theta + end_x)) / (2.0 * math.sin(half_x))


def lagrange_k_sin_sum(theta: float, q: float, n: int) -> float:
    """Closed form of the weighted sum sum_{k=1}^{n} k sin(theta + k x) at
    x = pi q, with the phases reduced as in ``lagrange_sin_sum``."""
    qm, shift = _dyadic(q)
    s = math.sin(math.pi * _red(qm, shift + 1))
    num = (
        math.sin(theta + math.pi * _red(n * qm, shift))
        - math.sin(theta)
        - 2.0 * n * math.cos(theta + math.pi * _red((2 * n + 1) * qm, shift + 1)) * s
    )
    return num / (4.0 * s * s)


def direct_sin_sum(theta: float, x: float, n: int) -> float:
    k = np.arange(1, n + 1)
    return math.fsum(np.sin(theta + k * x).tolist())


def direct_k_sin_sum(theta: float, x: float, n: int) -> float:
    k = np.arange(1, n + 1)
    return math.fsum((k * np.sin(theta + k * x)).tolist())


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

    low53 = np.uint64(2**53 - 1)
    for n in range(2, n_max + 1):
        r = np.arange(n)
        ks = np.arange(1, n + 1, dtype=np.uint64)
        # Lagrange sums at x = pi q for dyadic q = qm / 2^52; every phase
        # theta + k x is reduced mod 2 pi through exact integer arithmetic
        # on qm, on both sides: k qm wraps mod 2^64 in uint64, which keeps
        # its low 53 bits (``_red(k * qm, 52)``) exact for every n.
        for _ in range(phis_per_n):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            qm = int(rng.integers(int(0.064 * 2**52), int(1.936 * 2**52)))
            x = ((ks * np.uint64(qm)) & low53).astype(np.float64) * 2.0**-52
            # math.sin per term: np.sin may round a term one ulp apart
            terms = list(map(math.sin, (theta + math.pi * x).tolist()))
            direct = math.fsum(terms)
            direct_k = math.fsum(map(operator.mul, range(1, n + 1), terms))
            q = qm * 2.0**-52
            record("sin-sum-closed-form", _dev(direct, lagrange_sin_sum(theta, q, n)), n)
            record("weighted-sin-sum-closed-form", _dev(direct_k, lagrange_k_sin_sum(theta, q, n)), n)
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
