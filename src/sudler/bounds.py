"""Inequality toolkit, perturbed sine products, the Zeckendorf product
split, and the empirical power-law envelope of P_k and its ratio stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._engine import cot_terms, orbit_sums
from .errors import PrecisionExhausted
from .fibcore import OMEGA
from .goldenangle import GoldenCtx, phase_mantissa, zeckendorf_segments
from .products import ProductResult, _log_prefix_iter, log_abs_sin_product, sudler_P

__all__ = [
    "PowerLawReport",
    "ConvexSineReport",
    "ProdBoundsReport",
    "LogLowerReport",
    "SplitProduct",
    "SegmentFactor",
    "convex_sine_check",
    "prod_bounds_check",
    "log_lower_check",
    "perturbed_product",
    "n1_alpha_counterexample",
    "split_product",
    "split_logs",
    "power_law_scan",
    "power_law_ratios",
    "PERTURBED_RATIO_UPPER",
    "PERTURBED_RATIO_LOWER",
]

# Proven upper bound on log(perturbed/unperturbed): omega (1/sqrt(5) + omega).
PERTURBED_RATIO_UPPER = math.exp(OMEGA * (1.0 / math.sqrt(5.0) + OMEGA))

# The lower bound is only proven to exist; this is the recorded empirical
# infimum over the scanned range (n <= 20, |alpha| <= omega^{n+1}), with
# margin.  Asserted for positivity/stability, never used in computations.
PERTURBED_RATIO_LOWER = 0.25


@dataclass(frozen=True)
class ConvexSineReport:
    samples: int
    checked: int
    worst_upper_margin: float
    worst_lower_margin: float

    @property
    def passed(self) -> bool:
        return self.worst_upper_margin > 0.0 and self.worst_lower_margin > 0.0


def convex_sine_check(samples: int, seed: int = 0) -> ConvexSineReport:
    """Assert 2x/pi < sin(x) < x strictly on a deterministic grid plus
    random points of (0, pi/2)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    xs = [math.pi / 2.0 * (i + 0.5) / samples for i in range(samples)]
    xs += [rng.uniform(1e-12, math.pi / 2.0 * (1.0 - 1e-12)) for _ in range(samples)]
    xs.append(1e-6)
    xs.append(math.pi / 4.0)
    worst_up = math.inf
    worst_lo = math.inf
    for x in xs:
        s = math.sin(x)
        worst_up = min(worst_up, x - s)
        worst_lo = min(worst_lo, s - 2.0 * x / math.pi)
    return ConvexSineReport(
        samples=samples,
        checked=len(xs),
        worst_upper_margin=worst_up,
        worst_lower_margin=worst_lo,
    )


@dataclass(frozen=True)
class ProdBoundsReport:
    n_terms: int
    nonzero: int
    A: float
    product: float
    lower: float
    upper: float

    @property
    def passed(self) -> bool:
        # Strictness needs two or more nonzero perturbations; with fewer,
        # prod(1 + a_t) collapses onto a bound (e.g. a single negative term
        # gives exactly 1 - A), so the sandwich is checked non-strictly.
        if self.nonzero >= 2:
            return self.lower < self.product < self.upper
        return self.lower <= self.product <= self.upper


def prod_bounds_check(sequence: Sequence[float]) -> ProdBoundsReport:
    """Check 1 - A < prod(1 + a_t) < 1/(1 - A) for A = sum |a_t| < 1.

    Raises ValueError when the precondition |a_t| < 1, A < 1 fails.
    """
    a = list(sequence)
    if any(abs(x) >= 1.0 for x in a):
        raise ValueError("every |a_t| must be < 1")
    A = math.fsum(abs(x) for x in a)
    if A >= 1.0:
        raise ValueError(f"sum of |a_t| must be < 1, got {A}")
    product = 1.0
    for x in a:
        product *= 1.0 + x
    return ProdBoundsReport(
        n_terms=len(a),
        nonzero=sum(1 for x in a if x != 0.0),
        A=A,
        product=product,
        lower=1.0 - A,
        upper=1.0 / (1.0 - A),
    )


@dataclass(frozen=True)
class LogLowerReport:
    grid_points: int
    worst_margin: float
    root_lo: float
    root_hi: float

    @property
    def passed(self) -> bool:
        return self.worst_margin >= 0.0 and self.root_hi < -0.683


def log_lower_check() -> LogLowerReport:
    """Check log(1+x) >= x - x^2 on a 20000-point grid over (-0.683, 10] and
    bracket the crossover root of log(1+x) - (x - x^2) below -0.683 by
    bisection."""
    grid_points = 20000

    def f(x: float) -> float:
        return math.log1p(x) - (x - x * x)

    worst = math.inf
    for i in range(grid_points):
        x = -0.683 + (10.0 + 0.683) * (i + 1) / grid_points
        worst = min(worst, f(x))
    lo, hi = -0.9, -0.5
    if not (f(lo) < 0.0 < f(hi)):
        raise ArithmeticError("bisection bracket lost")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return LogLowerReport(grid_points=grid_points, worst_margin=worst, root_lo=lo, root_hi=hi)


def perturbed_product(n: int, alpha, ctx: GoldenCtx) -> float:
    """prod_{r=1}^{F_n} |2 sin(pi (r omega + alpha))| for n >= 2 and
    |alpha| <= omega^{n+1}.

    The factored form P_{F_n} * prod(cos(pi alpha) + cot(pi r omega)
    sin(pi alpha)) is evaluated as well, and the two must agree within
    their combined error bounds.
    """
    if n < 2:
        raise ValueError("level n must be >= 2 (the bound fails at n = 1)")
    alpha_m, alpha_err = phase_mantissa(alpha, ctx)
    if abs(alpha_m) > ctx.omega_pow_mantissa(n + 1):
        raise ValueError(f"|alpha| must be <= omega^{n + 1}")
    fn = ctx.fibs.fib(n)
    log_value, err = log_abs_sin_product(fn, ctx, alpha_mantissa=alpha_m, alpha_err=alpha_err)
    log_fact, err_fact = _log_factored_perturbed(n, alpha_m, ctx)
    if abs(log_fact - log_value) > err + err_fact + 1e-11:
        raise PrecisionExhausted(
            f"perturbed product paths disagree by {abs(log_fact - log_value):.3e} at n={n}"
        )
    return math.exp(log_value)


def _log_factored_perturbed(n: int, alpha_m: int, ctx: GoldenCtx) -> tuple[float, float]:
    """log of the factored form: log P_{F_n} + sum log(cos(pi alpha) +
    cot(pi r omega) sin(pi alpha)); every factor must stay positive."""
    fn = ctx.fibs.fib(n)
    base, base_err = log_abs_sin_product(fn, ctx)
    alpha = alpha_m * 2.0 ** (-ctx.P)
    ca = math.cos(math.pi * alpha)
    sa = math.sin(math.pi * alpha)

    def terms(x, neg, _ang_err, out, cot):
        cot_terms(x, neg, 0.0, cot, out)  # the signed cot, with out as scratch
        factor = ca + cot * sa
        if factor.min() <= 0.0:
            raise ArithmeticError("factored perturbation term is nonpositive")
        np.log(factor, out=out)
        rel = np.abs(cot * sa) / factor
        return 2.0**-53 * (6.0 * x.shape[-1] + np.abs(out).sum(axis=-1) + rel.sum(axis=-1)), 0.0

    total = comp = err = 0.0
    for _rows, _lo, _x, run_s, run_c, e, _ang in orbit_sums(terms, [0], ctx.omega.mantissa, ctx.P, fn, 0.0):
        total, comp, err = run_s[0, -1], run_c[0, -1], err + e[0]
    return float(base + total + comp), base_err + float(err)


def n1_alpha_counterexample(ctx: GoldenCtx) -> float:
    """The excluded case n = 1, alpha = omega^2: the single factor is
    |2 sin(pi (omega + omega^2))| = |2 sin(pi)| = 0, which is why the
    perturbed-product bound starts at n = 2."""
    m = (ctx.omega.mantissa + ctx.omega_pow_mantissa(2)) & ctx.mask
    u = min(m, (1 << ctx.P) - m)
    return 2.0 * math.sin(math.pi * (u / (1 << ctx.P)))


class SegmentFactor(NamedTuple):
    """One Zeckendorf segment of P_k: the F_s-term product from phase
    alpha = k_s omega (mod 1, nearest 0), with its log and value."""

    s: int
    k_s: int
    alpha: float
    log_factor: float
    factor: float


@dataclass(frozen=True)
class SplitProduct:
    k: int
    segments: tuple[SegmentFactor, ...]
    log_value: float
    value: float
    direct: ProductResult
    err: float

    @property
    def rel_residual(self) -> float:
        return (self.value - self.direct.value) / self.direct.value


def _assemble_split(walk: list, ctx: GoldenCtx) -> tuple[tuple[SegmentFactor, ...], float, float]:
    one = 1 << ctx.P
    segments = []
    logs = []
    err = 0.0  # left to right: sum() compensates floats from Python 3.12 on
    for s, tail, phase, (log_f, seg_err) in walk:
        segments.append(SegmentFactor(s, tail, phase / one, log_f, math.exp(log_f)))
        logs.append(log_f)
        err += seg_err
    return tuple(segments), math.fsum(logs), err


def _split_log(k: int, ctx: GoldenCtx) -> tuple[tuple[SegmentFactor, ...], float, float]:
    """Zeckendorf segment factors of P_k with their combined log and error:
    the one-k case of ``split_logs``."""
    return next(split_logs([k], ctx))


def split_logs(
    ks: Iterable[int], ctx: GoldenCtx
) -> Iterator[tuple[tuple[SegmentFactor, ...], float, float]]:
    """Zeckendorf segment factors of P_k with their combined log and error,
    for every k in ks.

    Every distinct segment factor, keyed by (s, k_s), is computed once and
    first (``zeckendorf_segments``): the segments with index s all have F_s
    terms, so they are the rows of one batched product per s.  The per-k
    results are assembled lazily: a scan over many k holds one at a time.
    """

    def totals(s: int, phases: list[int], tails: list[int]) -> list[tuple[float, float]]:
        alpha_err = [(tail + 1) * 2.0 ** (-ctx.P) for tail in tails]
        return log_abs_sin_product(ctx.fibs.fib(s), ctx, alpha_mantissa=phases, alpha_err=alpha_err)

    return (_assemble_split(walk, ctx) for walk in zeckendorf_segments(ks, ctx, totals))


def split_product(k: int, ctx: GoldenCtx) -> SplitProduct:
    """P_k as the product of its Zeckendorf segments,

        P_k = prod_s prod_{r=1}^{b_s F_s} |2 sin(pi (r omega + k_s omega))|,

    computed alongside the direct product; the two paths must agree within
    their combined error bounds.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    segments, log_value, err = _split_log(k, ctx)
    direct = sudler_P(k, ctx)
    result = SplitProduct(
        k=k,
        segments=segments,
        log_value=log_value,
        value=math.exp(log_value),
        direct=direct,
        err=err,
    )
    if abs(log_value - direct.log_value) > err + direct.err + 1e-11:
        raise PrecisionExhausted(
            f"split/direct disagreement {abs(log_value - direct.log_value):.3e} at k={k}"
        )
    return result


@dataclass(frozen=True)
class PowerLawReport:
    """Empirical envelope of ln P_k / ln k over 2 <= k <= k_max."""

    k_max: int
    K1_emp: float
    K2_emp: float
    argmin: int
    argmax: int


def power_law_ratios(k_max: int, ctx: GoldenCtx) -> Iterator[tuple[range, list[float]]]:
    """Yield (ks, ln P_k / ln k) per orbit chunk for k = 2..k_max, from one
    incremental pass (k = 1 is excluded: ln 1 = 0)."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    for ks, logs in _log_prefix_iter(k_max, 1, ctx):
        if ks[0] == 1:
            ks, logs = ks[1:], logs[1:]
        yield ks, [log_p / math.log(k) for k, log_p in zip(ks, logs)]


def power_law_scan(k_max: int, ctx: GoldenCtx) -> PowerLawReport:
    """The extrema of ln P_k / ln k over k = 2..k_max (``power_law_ratios``)."""
    k1, a1, k2, a2 = math.inf, 0, -math.inf, 0
    for ks, ratios in power_law_ratios(k_max, ctx):
        for k, ratio in zip(ks, ratios):
            if ratio < k1:
                k1, a1 = ratio, k
            if ratio > k2:
                k2, a2 = ratio, k
    return PowerLawReport(k_max=k_max, K1_emp=k1, K2_emp=k2, argmin=a1, argmax=a2)
