"""The Sudler product P_k = prod_{r=1}^{k} |2 sin(pi r omega)| and its
renormalisation subsequence Q_n = P_{F_n}, together with the three-factor
splitting

    Q_n = A_n * B_n * C_n,
    A_n = 2 F_n sin(pi omega^n),
    B_n = prod_{t=1}^{F_n - 1} s_nt / (2 sin(pi t / F_n)),
    C_n = prod_{t=1}^{F_n / 2} (1 - s_n0^2 / s_nt^2),

where C_n uses the generalized product (half-exponent boundary term when
F_n is odd) and the limiting square-correction product

    U(T) = prod_{t=1}^{T} (1 - 1/u_t^2),
    u_t  = 2 sqrt(5) (t - ({t omega} - 1/2)/sqrt(5)).

Everything works in the log domain with compensated accumulation; direct
values are materialized only at the output boundary.  Each product carries
a rigorous bound on |log error|, enforced against ERR_BUDGET.

P_k and U(T) run on the orbit kernel of ``_engine``.  B_n and C_n run as
numpy array expressions over chunks of at most CHUNK terms, fed by the
exact residues t F_{n-1} mod F_n, and sum through the same Neumaier
primitive ``_engine.neumaier``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._engine import CHUNK, block_spans, log2sin_block, map_blocks, merge_partials, neumaier, orbit
from .errors import PrecisionExhausted
from .goldenangle import GoldenCtx

__all__ = [
    "ProductResult",
    "Decomposition",
    "ERR_BUDGET",
    "sudler_P",
    "sudler_P_rational",
    "Q_n",
    "A_n",
    "B_n",
    "B_star",
    "C_n",
    "C_infinity_trunc",
    "log_U_partials",
    "u_t",
    "decompose",
    "ratio_PFn_minus1",
    "profile",
    "log_abs_sin_product",
]

# Largest admissible |log error| for any supported product evaluation.
ERR_BUDGET = 1e-9

_EPS = 2.0**-53

_STEPS = np.arange(1, CHUNK + 1, dtype=np.int64)


@dataclass(frozen=True)
class ProductResult:
    """A sine product: term count, log value, value, and |log error| bound."""

    k: int
    log_value: float
    value: float
    err: float


@dataclass(frozen=True)
class Decomposition:
    """The quadruple (A_n, B_n, C_n, Q_n) and the residual Q - A*B*C."""

    n: int
    A: float
    B: float
    C: float
    Q: float
    residual: float

    @property
    def rel_residual(self) -> float:
        return self.residual / self.Q


def log_abs_sin_product(
    count: int,
    ctx: GoldenCtx,
    alpha_mantissa=0,
    alpha_err=0.0,
    start_r: int = 0,
    workers: int = 1,
):
    """(log, err) of prod_{r=start_r+1}^{start_r+count} |2 sin(pi(r omega + alpha))|.

    alpha enters as a signed mantissa in units of 2^-P.  Given a sequence of
    mantissas (rows) and a scalar or one alpha_err per row, it returns a
    list of (log, err), one per row, from one kernel call per block.
    Raises PrecisionExhausted when a rigorous error bound crosses ERR_BUDGET.
    """
    single = isinstance(alpha_mantissa, int)
    alphas = [alpha_mantissa] if single else list(alpha_mantissa)
    if count <= 0:
        out = [(0.0, 0.0)] * len(alphas)
        return out[0] if single else out
    P = ctx.P
    w = ctx.omega.mantissa
    one = 1 << P
    ang_err = (start_r + count + 1) * 2.0 ** (-P) + np.asarray(alpha_err, dtype=np.float64)
    jobs = [
        ([((start_r + s) * w + a) % one for a in alphas], w, P, cnt, ang_err)
        for s, cnt in block_spans(count)
    ]
    blocks = map_blocks(log2sin_block, jobs, workers)
    out = []
    # each row holds one anchor's (sum, compensation, err), block by block
    for row in zip(*(zip(s.tolist(), c.tolist(), e.tolist()) for s, c, e, _sn in blocks)):
        err = math.fsum(e for _s, _c, e in row)
        if err > ERR_BUDGET:
            raise PrecisionExhausted(
                f"log-product error bound {err:.3e} exceeds budget {ERR_BUDGET:.1e} "
                f"at count={count}, P={P}"
            )
        out.append((merge_partials([(s, c) for s, c, _e in row]), err))
    return out[0] if single else out


def sudler_P(k: int, ctx: GoldenCtx, workers: int = 1) -> ProductResult:
    """P_k(omega) for k >= 0; the empty product P_0 is 1."""
    if k < 0:
        raise ValueError(f"term count must be >= 0, got {k}")
    log_value, err = log_abs_sin_product(k, ctx, workers=workers)
    return ProductResult(k=k, log_value=log_value, value=math.exp(log_value), err=err)


def sudler_P_rational(p: int, q: int, n: int) -> float:
    """P_n(p/q) for a reduced fraction 0 < p < q, via exact residues r*p mod q.

    Exactly 0 for n >= q; P_{q-1}(p/q) recovers q.
    """
    if q < 2 or not 0 < p < q:
        raise ValueError(f"need 0 < p < q with q >= 2, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p/q not in lowest terms: gcd({p},{q}) = {math.gcd(p, q)}")
    if n < 0:
        raise ValueError(f"term count must be >= 0, got {n}")
    if n >= q:
        return 0.0
    if n == 0:
        return 1.0
    if (q - 1) * p >= 2**62:
        raise ValueError("q too large for the residue table")
    r = np.arange(1, n + 1, dtype=np.int64)
    j = (r * p) % q
    j = np.minimum(j, q - j)
    logs = np.log(2.0 * np.sin(np.pi * (j / q)))
    return math.exp(math.fsum(logs))


def Q_n(n: int, ctx: GoldenCtx, workers: int = 1) -> ProductResult:
    """The renormalisation subsequence Q_n = P_{F_n}."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    return sudler_P(ctx.fibs.fib(n), ctx, workers=workers)


def A_n(n: int, ctx: GoldenCtx) -> float:
    """Boundary factor 2 F_n sin(pi omega^n); tends to 2 pi / sqrt(5)."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    return 2.0 * ctx.fibs.fib(n) * math.sin(math.pi * ctx.omega_pow_float(n))


def _residue_chunks(start: int, count: int, fn1: int, fn: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (t, t F_{n-1} mod F_n) as int64 arrays for t = start+1..start+count,
    at most CHUNK at a time.

    Each chunk anchors exactly at (lo F_{n-1}) mod F_n in Python ints and adds
    i F_{n-1}, i <= CHUNK, in int64, so no product exceeds (CHUNK + 1) F_n.
    """
    for lo in range(start, start + count, CHUNK):
        i = _STEPS[: min(CHUNK, start + count - lo)]
        yield lo + i, ((lo * fn1) % fn + i * fn1) % fn


def _log_perturbation_product(
    n: int, ctx: GoldenCtx, include_quadratic: bool, workers: int
) -> tuple[float, float]:
    """Compensated log of prod_{t=1}^{F_n-1} (1 - alpha_nt - h_nt), the exact
    per-term form of s_nt / (2 sin(pi t/F_n)); omitting the quadratic
    alpha_nt = 2 sin^2(pi omega^n xi_nt / 2) gives the comparison product."""
    fn = ctx.fibs.fib(n)
    fn1 = ctx.fibs.fib(n - 1)
    count = fn - 1
    if count <= 0:
        return 0.0, 0.0
    pw = ctx.omega_pow_float(n)
    inv_fn = 1.0 / fn

    def block(t0: int, cnt: int) -> tuple[float, float, float]:
        s = comp = err = 0.0
        for t, res in _residue_chunks(t0, cnt, fn1, fn):
            xi = res * inv_fn - 0.5
            hz = 1.5707963267948966 * (pw * xi)  # pi z / 2
            s2 = np.sin(hz)
            c2 = np.cos(hz)
            alpha = 2.0 * s2 * s2 if include_quadratic else 0.0
            # folded cot(pi t / F_n), negated past the midpoint
            back = 2 * t > fn
            u = np.pi * (np.where(back, fn - t, t) * inv_fn)
            h = np.where(back, -1.0, 1.0) * (np.cos(u) / np.sin(u)) * (2.0 * s2 * c2)
            w_ = -alpha - h
            term = np.log1p(w_)
            err += _EPS * (8.0 * (alpha + np.abs(h)) / (1.0 + w_) + 2.0 * np.abs(term) + 3.0).sum()
            run_s, run_c = neumaier(term, s, comp)
            s, comp = run_s[-1], run_c[-1]
        return float(s), float(comp), float(err)

    results = map_blocks(block, block_spans(count), workers)
    log_value = merge_partials([(s, c) for s, c, _e in results])
    err = math.fsum(e for _s, _c, e in results)
    if err > ERR_BUDGET:
        raise PrecisionExhausted(f"perturbation-product error bound {err:.3e} over budget")
    return log_value, err


def B_n(n: int, ctx: GoldenCtx, workers: int = 1) -> float:
    """Perturbation ratio product prod s_nt / (2 sin(pi t/F_n)); empty (=1)
    for n = 1, 2."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    log_b, _err = _log_perturbation_product(n, ctx, True, workers)
    return math.exp(log_b)


def B_star(n: int, ctx: GoldenCtx, workers: int = 1) -> float:
    """The comparison product prod (1 - h_nt), i.e. B_n without the
    quadratic correction."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    log_b, _err = _log_perturbation_product(n, ctx, False, workers)
    return math.exp(log_b)


def C_n(n: int, ctx: GoldenCtx) -> float:
    """Square-correction product over half a period of s_nt, the exact
    square root of prod_{t=1}^{F_n-1} (1 - s_n0^2 / s_nt^2).

    Realized as the generalized product with upper bound (F_n - 1)/2: the
    s_{n, F_n - t} = s_nt symmetry pairs the full range into two copies of
    t = 1..(F_n-1)/2, with the self-paired midpoint t = F_n/2 (even F_n)
    carrying exponent 1/2.  Empty (=1) for n = 1, 2; in (0, 1) for n >= 3.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    fn = ctx.fibs.fib(n)
    fn1 = ctx.fibs.fib(n - 1)
    pw = ctx.omega_pow_float(n)
    s0 = 2.0 * math.sin(math.pi * pw * 0.5)
    half_fn = 0.5 * fn
    inv_fn = 1.0 / fn

    def terms(t: np.ndarray, res: np.ndarray) -> np.ndarray:
        ratio = s0 / (2.0 * np.sin(np.pi * ((t - pw * (res - half_fn)) * inv_fn)))
        a = 1.0 - ratio * ratio
        bad = np.flatnonzero(a <= 0.0)
        if len(bad):
            raise ValueError(f"C_n requires positive terms; term({t[bad[0]]}) = {a[bad[0]]}")
        return a

    s = comp = 0.0
    for t, res in _residue_chunks(0, (fn - 1) // 2, fn1, fn):
        run_s, run_c = neumaier(np.log(terms(t, res)), s, comp)
        s, comp = run_s[-1], run_c[-1]
    value = math.exp(s + comp)
    if fn % 2 == 0:  # the self-paired midpoint t = F_n/2, exponent 1/2
        value *= math.sqrt(terms(*next(_residue_chunks(fn // 2 - 1, 1, fn1, fn)))[0])
    return value


def u_t(t: int, ctx: GoldenCtx) -> float:
    """u_t = 2 sqrt(5) t - 2 ({t omega} - 1/2), the limiting scale of
    s_nt / s_n0."""
    frac = ((t * ctx.omega.mantissa) & ctx.mask) / (1 << ctx.P)
    return 2.0 * math.sqrt(5.0) * t - 2.0 * (frac - 0.5)


def log_U_partials(T: int, ctx: GoldenCtx) -> Iterator[np.ndarray]:
    """The compensated partial sums log U(t), t = 1..T, one orbit chunk at
    a time."""
    two_sqrt5 = 2.0 * math.sqrt(5.0)
    s = comp = 0.0
    for lo, x, neg in orbit(0, ctx.omega.mantissa, ctx.P, T):
        t = np.arange(lo + 1, lo + len(x) + 1, dtype=np.float64)
        u = two_sqrt5 * t - 2.0 * np.where(neg, 0.5 - x, x - 0.5)
        run_s, run_c = neumaier(np.log1p(-1.0 / (u * u)), s, comp)
        s, comp = run_s[-1], run_c[-1]
        yield run_s + run_c


def C_infinity_trunc(T: int, ctx: GoldenCtx) -> float:
    """Truncated limit product U(T) = prod_{t=1}^{T} (1 - 1/u_t^2).

    Every factor lies in (0, 1), so partial products decrease monotonically
    in T; the limit stays above 1 - sum 1/u_t^2 > 0.862.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    for partials in log_U_partials(T, ctx):
        pass
    return math.exp(partials[-1])


def decompose(n: int, ctx: GoldenCtx, workers: int = 1) -> Decomposition:
    """Compute Q_n directly and A_n, B_n, C_n by their own formulas, plus
    the residual Q - A*B*C."""
    q = Q_n(n, ctx, workers=workers).value
    a = A_n(n, ctx)
    b = B_n(n, ctx, workers=workers)
    c = C_n(n, ctx)
    return Decomposition(n=n, A=a, B=b, C=c, Q=q, residual=q - a * b * c)


def ratio_PFn_minus1(n: int, ctx: GoldenCtx, workers: int = 1) -> float:
    """P_{F_n - 1}(omega) / F_n, the peak-normalisation ratio."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    fn = ctx.fibs.fib(n)
    return sudler_P(fn - 1, ctx, workers=workers).value / fn


def _log_prefix_iter(
    count: int,
    stride: int,
    ctx: GoldenCtx,
    workers: int = 1,
) -> Iterator[tuple[int, float]]:
    """Yield (k, log P_k) for k = 1, 1 + stride, ... <= count in one
    incremental pass sharing its block arithmetic with sudler_P, so an
    emitted value at k is bit-identical to sudler_P(k).log_value for any
    worker count."""
    P = ctx.P
    w = ctx.omega.mantissa
    one = 1 << P
    spans = block_spans(count)

    def job(start: int, cnt: int):
        first = (-start) % stride + 1
        emit = np.arange(first, cnt + 1, stride)
        a0 = (start * w) % one
        ang_err = (start + cnt + 1) * 2.0 ** (-P)
        return log2sin_block(a0, w, P, cnt, ang_err, emit_at=emit)

    done: list[float] = []
    err_total = 0.0
    idx = 0
    while idx < len(spans):
        group = spans[idx : idx + max(workers, 1)]
        idx += len(group)
        results = map_blocks(job, group, workers)
        for (start, _cnt), (s, c, e, snaps) in zip(group, results):
            err_total += e
            if err_total > ERR_BUDGET:
                raise PrecisionExhausted(
                    f"prefix-pass error bound {err_total:.3e} exceeds budget at k~{start}"
                )
            for i, s_at, c_at in zip(*(col.tolist() for col in snaps)):
                yield (start + i, math.fsum(done + [s_at, c_at]))
            done.append(s)
            done.append(c)


def profile(
    n_max: int,
    stride: int,
    ctx: GoldenCtx,
    workers: int = 1,
) -> Iterator[tuple[int, float, float]]:
    """Yield (k, P_k, log P_k) for k = 1, 1 + stride, ... up to F_{n_max},
    computed incrementally in a single pass over the orbit (no re-products)."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for k, log_p in _log_prefix_iter(ctx.fibs.fib(n_max), stride, ctx, workers):
        yield (k, math.exp(log_p), log_p)
