"""The Sudler product P_k = prod_{r=1}^{k} |2 sin(pi r omega)| and its
renormalisation subsequence Q_n = P_{F_n}, together with the three-factor
splitting

    Q_n = A_n * B_n * C_n,
    A_n = 2 F_n sin(pi omega^n),
    B_n = prod_{t=1}^{F_n - 1} s_nt / (2 sin(pi t / F_n)),
    C_n = prod_{t=1}^{F_n / 2} (1 - s_n0^2 / s_nt^2),

where the midpoint t = F_n/2 of C_n (F_n even) is a half-weight term,
and the limiting square-correction product

    U(T) = prod_{t=1}^{T} (1 - 1/u_t^2),
    u_t  = 2 sqrt(5) (t - ({t omega} - 1/2)/sqrt(5)).

Everything works in the log domain with compensated accumulation; direct
values are materialized only at the output boundary.  Each product carries
a rigorous bound on |log error|, enforced against ERR_BUDGET.

P_k runs on the orbit-sum walk of ``_engine``; U(T), whose terms need the
index t, walks ``_engine.orbit`` itself and sums through its Neumaier
primitive ``_engine.neumaier``.  B_n and C_n run as numpy array
expressions over chunks of at most CHUNK values of t, fed by the exact
residues t F_{n-1} mod F_n.  Both need only t < F_n/2: the residues
satisfy xi_{F_n - t} = -xi_t, so B_n's log-terms pair up and C_n is the
square root of its full-period product.  One walk over those residues
(``_log_factors``) evaluates any of B_n, B*_n and C_n on the same chunks,
stacks their log-terms as rows and sums each chunk by the pinned tree
``_engine.pairwise_sum``, whose error is charged apart from the terms'.
Like the orbit walk, the factor walk evaluates every chunk in place: the
residues, each term function's scratch and the tree buffer are allocated
once per walk, and each log-term lands directly in its tree row.

The direct orbit sum charges every term a float64 rounding floor, so its
bound crosses ERR_BUDGET at F_32 whatever the precision.  The factors'
log-terms are small, O(1/t), and their charges are relative to each term,
so log A_n + log B_n + log C_n carries an error of O(eps ln F_n): Q_n
takes that route where the direct sum's floor does not fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._engine import (
    CHUNK,
    TERM_FLOOR,
    TREE_RATE,
    log2sin_block,
    log2sin_terms,
    map_blocks,
    merge_partials,
    neumaier,
    orbit,
    orbit_err,
    pairwise_sum,
    prefix_sums,
)
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
    "check_prefix",
    "log_abs_sin_product",
]

# Largest admissible |log error| for any supported product evaluation.
ERR_BUDGET = 1e-9

_EPS = 2.0**-53
_HALF_PI = 1.5707963267948966

# Charges on each B_n and C_n log-term per unit of its weight: the float64
# part and the factor on omega^n's relative error (_omega_pow_err), rounded
# up from the derivations at _b_terms (30.5 eps, 1.36) and _c_terms
# (66.6 eps, 4.12).
_B_RATE, _B_POW = 40.0 * _EPS, 2.0
_C_RATE, _C_POW = 80.0 * _EPS, 5.0
# Bounds on |term| per unit of weight (see _b_terms and _c_terms), which
# turn the weights into the sum |term| that the chunk tree's error needs.
_B_TERM, _C_TERM = 1.25, 1.0

_STEPS = np.arange(1, CHUNK + 1, dtype=np.float64)
_STEPS.flags.writeable = False
# Values of t per pairwise-sum buffer in the factor walk: the buffer holds
# every row of a batch at once, and all of F_40/2 would take about 800 MB.
_BATCH = 1 << 16


@dataclass(frozen=True)
class ProductResult:
    """A sine product: term count, log value, value, |log error| bound, and
    the route that computed it: "direct" (the orbit sum) or "factors"
    (log A_n + log B_n + log C_n, for Q_n only)."""

    k: int
    log_value: float
    value: float
    err: float
    route: str = "direct"


@dataclass(frozen=True)
class Decomposition:
    """The quadruple (A_n, B_n, C_n, Q_n), the residual Q - A*B*C, and the
    |log error| bound of each; Q is the direct orbit sum."""

    n: int
    A: float
    B: float
    C: float
    Q: float
    residual: float
    A_err: float
    B_err: float
    C_err: float
    Q_err: float

    @property
    def rel_residual(self) -> float:
        return self.residual / self.Q

    @property
    def abc_err(self) -> float:
        """Bound on |log(A*B*C) - log Q_n| from the three factors' bounds."""
        return self.A_err + self.B_err + self.C_err


def _direct_floor(count: int) -> float:
    """The float64 rounding floor of a count-term orbit sum's bound, which
    no precision lowers: log2sin_terms charges each term TERM_FLOOR eps."""
    return TERM_FLOOR * _EPS * count


def _check_floor(count: int) -> None:
    """Raise PrecisionExhausted, before any kernel work, when the float64
    floor of a count-term orbit sum alone exceeds ERR_BUDGET."""
    floor = _direct_floor(count)
    if floor > ERR_BUDGET:
        raise PrecisionExhausted(
            f"the float64 rounding floor of a {count}-term sum, {floor:.3e}, exceeds budget "
            f"{ERR_BUDGET:.1e}; no --precision lowers it"
        )


def _omega_pow_err(n: int, ctx: GoldenCtx) -> float:
    """Relative error of ctx.omega_pow_float(n) beyond its float64 rounding:
    the P-bit omega is within 2^-P, and omega^n = |F_{n-1} - F_n omega|
    scales that by F_n."""
    return ctx.fibs.fib(n) * 2.0 ** (-ctx.P) / ctx.omega_pow_float(n)


def _refuse(what: str, err: float, rounding: float, bits: float, bits_source: str, rounding_source: str):
    """Raise PrecisionExhausted for a bound err = rounding + bits over
    ERR_BUDGET, naming the larger part: rounding, which no precision lowers,
    or bits, the part that more precision bits lower."""
    if bits >= rounding:
        source = f"{bits:.3e} of it is {bits_source}, which more --precision bits lower"
    else:
        source = f"{rounding:.3e} of it is {rounding_source}, which no --precision lowers"
    raise PrecisionExhausted(f"{what} error bound {err:.3e} exceeds budget {ERR_BUDGET:.1e}: {source}")


def _refuse_direct(what: str, err: float, ang: float):
    """``_refuse`` for a direct orbit sum's bound err, whose part ang is the
    P-bit angle term and the rest the log terms' float64 rounding."""
    _refuse(what, err, err - ang, ang, "the P-bit angle term", "the log terms' float64 rounding")


def _charged(what: str, rounding: float, omega_pow: float) -> float:
    """The |log err| bound rounding + omega_pow of one factor; raises
    PrecisionExhausted past ERR_BUDGET, naming the larger part."""
    err = rounding + omega_pow
    if err > ERR_BUDGET:
        _refuse(what, err, rounding, omega_pow, "the P-bit omega^n error", "float64 rounding")
    return err


def log_abs_sin_product(
    count: int,
    ctx: GoldenCtx,
    alpha_mantissa=0,
    alpha_err=0.0,
):
    """(log, err) of prod_{r=1}^{count} |2 sin(pi(r omega + alpha))|.

    alpha enters as a signed mantissa in units of 2^-P.  Given a sequence of
    mantissas (rows) and a scalar or one alpha_err per row, it returns a
    list of (log, err), one per row, from one kernel call over all rows.
    Raises PrecisionExhausted when a rigorous error bound crosses ERR_BUDGET,
    before any kernel work when the bound's float64 floor alone does, and
    otherwise naming the larger part of the bound: the log terms' float64
    rounding or the P-bit angle term.
    """
    single = isinstance(alpha_mantissa, int)
    alphas = [alpha_mantissa] if single else list(alpha_mantissa)
    if count <= 0:
        out = [(0.0, 0.0)] * len(alphas)
        return out[0] if single else out
    _check_floor(count)
    P = ctx.P
    ang_err = (count + 1) * 2.0 ** (-P) + np.asarray(alpha_err, dtype=np.float64)
    sums = log2sin_block(alphas, ctx.omega.mantissa, P, count, ang_err)
    out = []
    for s, c, err, ang in zip(*(v.tolist() for v in sums)):
        if err > ERR_BUDGET:
            _refuse_direct(f"log-product at count={count}, P={P}", err, ang)
        out.append((merge_partials([(s, c)]), err))
    return out[0] if single else out


def sudler_P(k: int, ctx: GoldenCtx, workers: int = 1) -> ProductResult:
    """P_k(omega) for k >= 0; the empty product P_0 is 1.  ``workers`` is
    accepted and ignored, as on Q_n and decompose."""
    if k < 0:
        raise ValueError(f"term count must be >= 0, got {k}")
    log_value, err = log_abs_sin_product(k, ctx)
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
    """The renormalisation subsequence Q_n = P_{F_n}.

    Where the direct orbit sum's float64 floor fits ERR_BUDGET (n <= 31) it
    is sudler_P(F_n), bit for bit.  Above that it is
    exp(log A_n + log B_n + log C_n) with the sum of the factors' bounds
    (route "factors").  ``workers`` is accepted and ignored.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    fn = ctx.fibs.fib(n)
    if _direct_floor(fn) <= ERR_BUDGET:
        return sudler_P(fn, ctx)
    # A first: at low precision its omega^n charge refuses before the long walk
    log_a, err_a = _log_a(n, ctx)
    (log_b, err_b), (log_c, err_c) = _log_factors(n, ctx, ("B", "C"))
    log_q = math.fsum((log_a, log_b, log_c))
    err = math.fsum((err_a, err_b, err_c)) + _EPS * abs(log_q)
    if err > ERR_BUDGET:
        raise PrecisionExhausted(
            f"factor-route error bound {err:.3e} (A {err_a:.1e}, B {err_b:.1e}, C {err_c:.1e}) "
            f"exceeds budget {ERR_BUDGET:.1e} at n={n}: omega^n carries relative error "
            f"{_omega_pow_err(n, ctx):.1e} from the {ctx.P}-bit omega, which more --precision bits lower"
        )
    return ProductResult(k=fn, log_value=log_q, value=math.exp(log_q), err=err, route="factors")


def A_n(n: int, ctx: GoldenCtx) -> float:
    """Boundary factor 2 F_n sin(pi omega^n); tends to 2 pi / sqrt(5)."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    return 2.0 * ctx.fibs.fib(n) * math.sin(math.pi * ctx.omega_pow_float(n))


def _log_a(n: int, ctx: GoldenCtx) -> tuple[float, float]:
    """(log A_n, |log err| bound).

    With u = 2^-53 and delta = _omega_pow_err: pi * pw costs 3u + delta
    (the constant, pw's rounding, the product); the sine's condition
    x cot x <= 1 passes that on and adds 2u (one ulp); 2 F_n is exact and
    its product adds u; the log adds one ulp, 2u |log A_n|.  The omega^n
    part is delta itself, since d log sin(pi z)/d log z <= 1.
    """
    log_a = math.log(A_n(n, ctx))
    return log_a, _charged("A_n", _EPS * (8.0 + 2.0 * abs(log_a)), _omega_pow_err(n, ctx))


def _residue_chunks(start: int, count: int, fn1: int, fn: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (t, d) for t = start+1..start+count, at most CHUNK at a time:
    t and the centred residue d = (t F_{n-1} mod F_n) - F_n/2 as float64,
    both exact while CHUNK F_n < 2^63.  Every chunk is written into one set
    of buffers, so t and d are valid until the next chunk.

    Each chunk anchors exactly at (lo F_{n-1}) mod F_n in Python ints and
    adds the steps i F_{n-1} mod F_n, i <= CHUNK, taken once in int64 (no
    product exceeds CHUNK F_n) and held as float64, so the sum r < 2 F_n
    is exact and one conditional subtraction of F_n reduces it.  It is
    branch-free: on the float64 bits seen as uint64, a negative r - F_n
    lies above every non-negative r, so min(r, r - F_n) is r mod F_n.
    """
    width = min(CHUNK, count)
    steps = (_STEPS[:width].astype(np.int64) * fn1 % fn).astype(np.float64)
    t, res, d = np.empty((3, width))
    for lo in range(start, start + count, CHUNK):
        m = min(CHUNK, start + count - lo)
        np.add(steps[:m], (lo * fn1) % fn, out=res[:m])
        np.subtract(res[:m], fn, out=d[:m])
        r = res[:m].view(np.uint64)
        np.minimum(r, d[:m].view(np.uint64), out=r)
        np.add(_STEPS[:m], lo, out=t[:m])
        np.subtract(res[:m], 0.5 * fn, out=d[:m])
        yield t[:m], d[:m]


def _walk_half(n: int, ctx: GoldenCtx, terms: list) -> tuple[list[float], list[float]]:
    """Per term function, the sum of its log-terms and the sum of its
    weights over t < F_n/2, all from one walk over the residues.  A term
    function f(t, d, out, tmp) writes a chunk's log-terms into out, with
    tmp (2, len(t)) as scratch, and returns (out, weights).

    Each chunk's log-terms are written into their row of a tree buffer,
    zero-padded to CHUNK and summed by ``pairwise_sum``, each row within
    TREE_RATE sum |term|; one call sums all chunks of a batch of _BATCH
    values of t.  The batches run in index order, and every row's chunk
    sums merge by one math.fsum in that order.  The tree buffer, the
    residues and the terms' scratch are allocated once per walk.
    """
    fn = ctx.fibs.fib(n)
    fn1 = ctx.fibs.fib(n - 1)
    half = (fn - 1) // 2
    if half <= 0:
        return [0.0] * len(terms), [0.0] * len(terms)
    chunks = _residue_chunks(0, half, fn1, fn)
    tree = np.empty((len(terms), -(-min(_BATCH, half) // CHUNK), CHUNK))
    tmp = np.empty((2, min(CHUNK, half)))

    def batch(cnt: int) -> tuple[np.ndarray, np.ndarray]:
        # map_blocks runs the batches in order, so each takes the next chunks of the walk
        nch = -(-cnt // CHUNK)
        weights = np.zeros(len(terms))
        for j, (t, d) in enumerate(itertools.islice(chunks, nch)):
            m = len(t)
            tree[:, j, m:] = 0.0  # a short last chunk's stale tail
            for row, f in enumerate(terms):
                weights[row] += f(t, d, tree[row, j, :m], tmp[:, :m])[1].sum()
        return pairwise_sum(tree[:, :nch]), weights

    results = map_blocks(batch, [(min(_BATCH, half - t0),) for t0 in range(0, half, _BATCH)])
    chunk_sums = np.concatenate([sums for sums, _w in results], axis=1)
    log_sums = [math.fsum(row) for row in chunk_sums.tolist()]
    weights = [math.fsum(col) for col in zip(*(w.tolist() for _s, w in results))]
    return log_sums, weights


def _b_terms(
    t: np.ndarray,
    d: np.ndarray,
    fn: int,
    pw: float,
    include_quadratic: bool,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The log-terms log1p(w), w = -alpha_nt - h_nt, of B_n (w = -h_nt for
    B*_n) for ascending 0 < t < F_n/2, and the weights |w|/(1 + w),
    written into out and tmp[0] (a (2, len(t)) scratch; both allocated
    when not given).

    With tau = tan(pi z/2), z = omega^n xi_nt, alpha = 2 tau^2/(1 + tau^2)
    and sin(pi z) = 2 tau/(1 + tau^2), so w = -2 tau (tau + cot)/(1 + tau^2)
    (-2 tau cot/(1 + tau^2) for B*_n) is a product of relative-accurate
    factors.  Each term is within (_B_RATE + _B_POW delta) |w|/(1 + w) of
    its exact value, with delta = _omega_pow_err.  In units u = 2^-53, taking
    tan and log1p to one ulp (2u relative; measured at most 1.05u):
    - xi = d/F_n, with d = res - F_n/2 exact: the reciprocal and the
      product add 2u relative to xi;
    - hz = (pi/2)(pw xi) = pi z/2: pw's rounding, the constant and two
      products add 4u, so 6u + delta;
    - tau = tan hz: |hz| < pi omega^4/4 < 0.12, where tan's condition
      2x/sin 2x is below 1.01, plus 2u: 8.1u + 1.01 delta;
    - cot(pi t/F_n) is 1/tan(pi t/F_n) for t <= F_n/4 and
      tan(pi (F_n - 2t)/(2F_n)) above: an exact integer times the constant
      pi/(2F_n) (1.5u), rounded (u), lands in (0, pi/4], where tan's
      condition is at most pi/2: 5.9u, 6.9u with the reciprocal;
    - |tau| < tan(pi omega^n/4) <= 0.24 tan(pi/(2F_n)) <= 0.24 cot, so
      tau + cot costs 12.8u + 0.32 delta; times 2 tau: 21.9u + 1.33 delta;
    - 1 + tau^2 (tau^2 < 0.014): 1.3u; the quotient w: 24.2u + 1.36 delta;
    - log1p(w): |dw|/(1 + w) from w, one ulp of its own (2u |term|), and
      3u |term| for the fsum merge of the chunk sums (the chunk tree itself
      is charged apart, TREE_RATE sum |term|).  As
      |h| <= F_n omega^n/(2t) < 0.23 and alpha < 0.03 keep |w| < 1/4,
      |term| <= 1.25 |w|/(1 + w).
    In all (30.5u + 1.36 delta) |w|/(1 + w); B*_n's w costs less.
    """
    if out is None:
        out, tmp = np.empty(len(t)), np.empty((2, len(t)))
    tau, cot = tmp
    np.multiply(d, 1.0 / fn, out=tau)
    np.multiply(tau, pw, out=tau)
    np.multiply(tau, _HALF_PI, out=tau)
    np.tan(tau, out=tau)
    # t ascends, so the k values t <= F_n/4, whose cot is a reciprocal, come
    # first; a walk's chunk mostly lies on one side
    q = fn // 4
    k = len(t) if t[-1] <= q else 0 if t[0] > q else int(np.searchsorted(t, q, side="right"))
    # min(2t, F_n - 2t) pi/(2F_n) as min(t, F_n/2 - t) (2 pi/(2F_n)): both
    # round the same real product, since doubling is exact
    step = 2.0 * (_HALF_PI / fn)
    np.multiply(t[:k], step, out=cot[:k])
    np.subtract(0.5 * fn, t[k:], out=cot[k:])
    np.multiply(cot[k:], step, out=cot[k:])
    np.tan(cot, out=cot)
    np.divide(1.0, cot[:k], out=cot[:k])
    if include_quadratic:
        np.add(tau, cot, out=cot)
    np.multiply(tau, tau, out=out)
    np.add(out, 1.0, out=out)
    np.multiply(tau, -2.0, out=tau)
    np.multiply(tau, cot, out=tau)
    np.divide(tau, out, out=tau)  # w
    np.add(tau, 1.0, out=cot)
    np.log1p(tau, out=out)
    np.abs(tau, out=tau)
    np.divide(tau, cot, out=tau)
    return out, tau


def _log_factors(n: int, ctx: GoldenCtx, which: tuple[str, ...]) -> list[tuple[float, float]]:
    """(log, |log err| bound) of each factor named in which ("B" for B_n,
    "B*" for B*_n, "C" for C_n), all from one walk over t < F_n/2.

    xi_{F_n - t} = -xi_t flips h and keeps alpha, so B's term(F_n - t) =
    term(t), and an even F_n's midpoint has xi = 0, h = 0 and term 0: log B
    is twice the sum over t < F_n/2.  C's log is that sum plus, for even
    F_n, half the self-paired midpoint t = F_n/2.  Each bound adds the
    chunk tree's TREE_RATE sum |term| to the terms' own charges.
    """
    fn = ctx.fibs.fib(n)
    pw = ctx.omega_pow_float(n)
    s0 = 2.0 * math.sin(math.pi * pw * 0.5)
    term_fns = {
        "B": lambda t, d, out, tmp: _b_terms(t, d, fn, pw, True, out, tmp),
        "B*": lambda t, d, out, tmp: _b_terms(t, d, fn, pw, False, out, tmp),
        "C": lambda t, d, out, tmp: _c_terms(t, d, fn, pw, s0, out, tmp),
    }
    sums, weights = _walk_half(n, ctx, [term_fns[f] for f in which])
    delta = _omega_pow_err(n, ctx)
    out = []
    for f, log_value, weight in zip(which, sums, weights):
        if f == "C":
            if fn % 2 == 0:
                mid = next(_residue_chunks(fn // 2 - 1, 1, ctx.fibs.fib(n - 1), fn))
                term, g = _c_terms(*mid, fn, pw, s0)
                log_value += 0.5 * float(term[0])
                weight += 0.5 * float(g[0])
            rounding = (_C_RATE + _C_TERM * TREE_RATE) * weight
            out.append((log_value, _charged("C_n", rounding, _C_POW * delta * weight)))
        else:
            log_value, weight = 2.0 * log_value, 2.0 * weight
            rounding = (_B_RATE + _B_TERM * TREE_RATE) * weight
            out.append((log_value, _charged(f + "_n", rounding, _B_POW * delta * weight)))
    return out


def _log_perturbation_product(n: int, ctx: GoldenCtx, include_quadratic: bool) -> tuple[float, float]:
    """(log, |log err| bound) of prod_{t=1}^{F_n-1} (1 - alpha_nt - h_nt), the
    exact per-term form of s_nt / (2 sin(pi t/F_n)); omitting the quadratic
    alpha_nt = 2 sin^2(pi omega^n xi_nt / 2) gives the comparison product."""
    return _log_factors(n, ctx, ("B" if include_quadratic else "B*",))[0]


def B_n(n: int, ctx: GoldenCtx) -> float:
    """Perturbation ratio product prod s_nt / (2 sin(pi t/F_n)); empty (=1)
    for n = 1, 2."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    log_b, _err = _log_perturbation_product(n, ctx, True)
    return math.exp(log_b)


def B_star(n: int, ctx: GoldenCtx) -> float:
    """The comparison product prod (1 - h_nt), i.e. B_n without the
    quadratic correction."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    log_b, _err = _log_perturbation_product(n, ctx, False)
    return math.exp(log_b)


def _c_terms(
    t: np.ndarray,
    d: np.ndarray,
    fn: int,
    pw: float,
    s0: float,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The log-terms log1p(-q), q = (s_n0/s_nt)^2, of C_n for 0 < t <= F_n/2,
    and the weights q/(1 - q), written into out and tmp[1] (as at
    _b_terms).  Raises ValueError naming the first t unless s_n0/s_nt < 1.

    s_nt = 2 sin y with y = pi (t - pw d)/F_n in (0, pi/2], where d is the
    centred residue res - F_n/2, and with tau = tan(y/2), s_n0/s_nt = s0 (1 + tau^2)/(4 tau).  Each term is
    within (_C_RATE + _C_POW delta) q/(1 - q) of its exact value (u and delta as
    at _b_terms; s0 = 2 sin(pi pw/2) carries 5u + delta):
    - pw d: d is exact; pw and the product cost 2u + delta;
    - t minus that: |pw d| <= F_n omega^n/2 < 0.24 is at most a third of
      t - pw d, so u + (2u + delta)/3;
    - the reciprocal, pi/2 and two products add 4u: 5.7u + delta/3;
    - tau: y/2 lies in (0, pi/4], where tan's condition is at most pi/2,
      plus 2u: 10.9u + 0.53 delta; 1 + tau^2 (tau <= 1): 12.4u + 0.53 delta;
    - ratio: 30.3u + 2.06 delta; q = ratio^2: 61.6u + 4.12 delta;
    - log1p(-q): q/(1 - q) times q's relative error, one ulp of its own and
      3u for the merge and the midpoint (the chunk tree is charged apart),
      on |term| <= q/(1 - q).
    In all (66.6u + 4.12 delta) q/(1 - q).
    """
    if out is None:
        out, tmp = np.empty(len(t)), np.empty((2, len(t)))
    tau, ratio = tmp
    np.multiply(d, pw, out=tau)
    np.subtract(t, tau, out=tau)
    np.multiply(tau, 1.0 / fn, out=tau)
    np.multiply(tau, _HALF_PI, out=tau)
    np.tan(tau, out=tau)
    np.multiply(tau, tau, out=ratio)
    np.add(ratio, 1.0, out=ratio)
    # s0 (1 + tau^2)/(4 tau) as (s0/4)(1 + tau^2)/tau: quartering is exact
    np.multiply(ratio, 0.25 * s0, out=ratio)
    np.divide(ratio, tau, out=ratio)
    if not ratio.max() < 1.0:  # NaN fails it too
        bad = np.flatnonzero(~(ratio < 1.0))[0]
        raise ValueError(f"C_n requires positive terms; s_n0/s_nt = {ratio[bad]} at t = {int(t[bad])}")
    q = ratio
    np.multiply(q, q, out=q)
    np.negative(q, out=tau)
    np.log1p(tau, out=out)
    np.subtract(1.0, q, out=tau)
    np.divide(q, tau, out=q)
    return out, q


def C_n(n: int, ctx: GoldenCtx) -> float:
    """Square-correction product over half a period of s_nt, the exact
    square root of prod_{t=1}^{F_n-1} (1 - s_n0^2 / s_nt^2).

    The s_{n, F_n - t} = s_nt symmetry pairs the full range into two
    copies of t = 1..(F_n-1)/2, and the self-paired midpoint t = F_n/2
    (even F_n) enters as a half-weight log-term.  Empty (=1) for n = 1, 2; in (0, 1) for n >= 3.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    return math.exp(_log_factors(n, ctx, ("C",))[0][0])


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
    for _r0, lo, x, neg in orbit([0], ctx.omega.mantissa, ctx.P, T):
        x, neg = x[0], neg[0]
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
    """Compute Q_n by the direct orbit sum (never the factor route, so the
    two stay independent) and A_n, B_n, C_n by their own formulas, plus
    the residual Q - A*B*C and every bound.  ``workers`` is accepted and
    ignored."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    q = sudler_P(ctx.fibs.fib(n), ctx)
    err_a = _log_a(n, ctx)[1]
    (log_b, err_b), (log_c, err_c) = _log_factors(n, ctx, ("B", "C"))
    a, b, c = A_n(n, ctx), math.exp(log_b), math.exp(log_c)
    return Decomposition(
        n=n, A=a, B=b, C=c, Q=q.value, residual=q.value - a * b * c,
        A_err=err_a, B_err=err_b, C_err=err_c, Q_err=q.err,
    )


def ratio_PFn_minus1(n: int, ctx: GoldenCtx) -> float:
    """P_{F_n - 1}(omega) / F_n, the peak-normalisation ratio."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    fn = ctx.fibs.fib(n)
    return sudler_P(fn - 1, ctx).value / fn


def _log_prefix_iter(count: int, stride: int, ctx: GoldenCtx) -> Iterator[tuple[range, list[float]]]:
    """Yield (ks, logs) per orbit chunk: the range of k = 1, 1 + stride, ...
    <= count inside it and the list of log P_k at those k, from one
    incremental pass (``_engine.prefix_sums``), so an emitted value at k is
    bit-identical to sudler_P(k).log_value.

    Raises PrecisionExhausted before the first chunk when the float64 floor
    of count terms exceeds ERR_BUDGET, and otherwise at the first chunk
    whose running bound does, naming its last k and the bound's larger part.
    """
    _check_floor(count)
    P = ctx.P
    err = ang = 0.0
    for end, ks, logs, e, a in prefix_sums(log2sin_terms, ctx.omega.mantissa, P, count, stride):
        err += e
        ang += a
        if err > ERR_BUDGET:
            _refuse_direct(f"prefix pass at k={end}, P={P}", err, ang)
        yield ks, logs


def check_prefix(count: int, ctx: GoldenCtx) -> None:
    """Raise the PrecisionExhausted of a count-term prefix pass
    (``_log_prefix_iter``), same k and same source, before a caller formats
    any row of it.

    An a-priori bound clears most counts with no orbit work.  For
    F_m <= count < F_{m+1}, every ||r omega|| with r <= count is at least
    omega^m (best approximation), and so are the gaps between the folded
    angles on either side of 0.  Less the P-bit drift and orbit_err(P),
    that floor s caps each |log term| at L = max(ln 2, -ln(2 sin(pi s)))
    and sum 1/x at 2 (1 + ln count)/s.  A count that this bound does not
    clear runs the pass itself, unformatted (one value per pass): it
    refuses up front past the float64 floor, and otherwise at the chunk
    where its charges cross the budget.
    """
    m = 2
    while ctx.fibs.fib(m + 1) <= count:
        m += 1
    ang_err = (count + 1) * 2.0 ** (-ctx.P) + orbit_err(ctx.P)
    s = ctx.omega_pow_float(m) * (1.0 - 2.0**-50) - 2.0 * ang_err
    if s > 0.0:
        log_term = max(math.log(2.0), -math.log(2.0 * math.sin(math.pi * s)))
        bound = _EPS * (TERM_FLOOR + 2.0 * log_term) * count + ang_err * 2.0 * (1.0 + math.log(count)) / s
        if bound * 1.01 <= ERR_BUDGET:  # 1% for the float64 evaluation of the charges
            return
    for _chunk in _log_prefix_iter(count, count, ctx):
        pass


def profile(n_max: int, stride: int, ctx: GoldenCtx) -> Iterator[tuple[range, list[float], list[float]]]:
    """Yield (ks, ps, logs) per orbit chunk, the columns k, P_k and log P_k
    for k = 1, 1 + stride, ... up to F_{n_max}, computed incrementally in a
    single pass over the orbit (no re-products)."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for ks, logs in _log_prefix_iter(ctx.fibs.fib(n_max), stride, ctx):
        yield ks, list(map(math.exp, logs)), logs
