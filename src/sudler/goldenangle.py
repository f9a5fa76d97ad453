"""Fixed-point arithmetic at the golden rotation omega = (sqrt(5)-1)/2.

The angle engine keeps every fractional part as an integer mantissa of P
bits, so {r*omega} is computed exactly as (r*W) mod 2^P where W is the
rounded mantissa of omega.  Transcendental evaluations round the exact
mantissa to a float64 hi/lo pair; every public quantity carries, or can
bound, the absolute error this introduces.

Also defined here: the derived sequences

    s_nt  = 2 sin pi (t/F_n - omega^n ([t F_{n-1}]/F_n - 1/2))
    xi_nt = [t F_{n-1}]/F_n - 1/2   (0 when t = 0 mod F_n)
    xi_inf_t = {t omega} - 1/2
    h_nt  = cot(pi t / F_n) sin(pi omega^n xi_nt)

and generalized sums/products with real (possibly fractional) bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from ._engine import neumaier
from .errors import PrecisionExhausted, PrecisionTooLow
from .fibcore import TABLE, FibTable

__all__ = [
    "FixedFrac",
    "GoldenCtx",
    "SeqTerm",
    "make_ctx",
    "frac_r_omega",
    "xi_inf",
    "xi_n",
    "s_nt",
    "h_nt",
    "seq_term",
    "gen_sum",
    "gen_prod",
    "two_sin_pi",
]

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 192

# Any tracked absolute error reaching 2^-16 means the representation no
# longer carries usable information.
_ERR_CEILING = Fraction(1, 1 << 16)

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class FixedFrac:
    """A value in [0, 1) stored as ``mantissa / 2^bits`` with an absolute
    error bound ``err`` (a dyadic rational)."""

    mantissa: int
    bits: int
    err: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not 0 <= self.mantissa < (1 << self.bits):
            raise ValueError("mantissa out of range for the stated precision")
        if self.err < 0:
            raise ValueError("error bound must be nonnegative")
        if self.err >= _ERR_CEILING:
            raise PrecisionExhausted(
                f"error bound {float(self.err):.3e} reached the 2^-16 ceiling"
            )

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.bits)

    def to_float(self) -> float:
        return self.mantissa / (1 << self.bits)

    @property
    def value(self) -> float:
        return self.to_float()

    def hi_lo(self) -> tuple[float, float]:
        """Round to a float64 pair (hi, lo) with hi + lo within 2^-107-ish
        of the stored value."""
        return _mantissa_hi_lo(self.mantissa, self.bits)


def _mantissa_hi_lo(u: int, bits: int) -> tuple[float, float]:
    if bits <= 53:
        return (u / (1 << bits), 0.0)
    sh = bits - 53
    top = u >> sh
    hi = top * 2.0**-53
    rem = u - (top << sh)
    # second limb: up to 54 more bits of the remainder
    if sh <= 54:
        lo = rem * 2.0**-bits
    else:
        sh2 = sh - 54
        lo = (rem >> sh2) * 2.0 ** -(53 + 54)
    return (hi, lo)


def _isqrt_scaled(m: int, bits: int) -> int:
    """floor(sqrt(m) * 2^bits) computed exactly."""
    return math.isqrt(m << (2 * bits))


@dataclass
class GoldenCtx:
    """Working context: precision and omega, with a lazily filled cache of
    the powers of omega.

    ``powers[n]`` (n >= 1) is built from the exact identity
    omega^n = |F_{n-1} - F_n omega|, so the only error in the cache is the
    rounding of the omega mantissa itself, scaled by F_n.
    """

    P: int
    omega: FixedFrac
    _pow_mantissa: list[int] = field(default_factory=lambda: [0], init=False, repr=False)
    _pow_float: list[float] = field(default_factory=lambda: [0.0], init=False, repr=False)

    @property
    def fibs(self) -> FibTable:
        """The package's one Fibonacci table, ``fibcore.TABLE``."""
        return TABLE

    @property
    def mask(self) -> int:
        return (1 << self.P) - 1

    @property
    def omega_float(self) -> float:
        return self.omega.to_float()

    def _extend_powers(self, n: int) -> None:
        mant = self._pow_mantissa
        w = self.omega.mantissa
        one = 1 << self.P
        while len(mant) <= n:
            k = len(mant)
            d = TABLE.fib(k - 1) * one - TABLE.fib(k) * w
            m = d if k % 2 == 0 else -d
            mant.append(m)
            self._pow_float.append(m / one)

    def omega_pow(self, n: int) -> FixedFrac:
        """omega^n as a FixedFrac, n >= 1."""
        if n < 1:
            raise ValueError("omega_pow is defined for n >= 1")
        self._extend_powers(n)
        err = Fraction(self.fibs.fib(n), 1 << self.P)
        return FixedFrac(self._pow_mantissa[n], self.P, err)

    def omega_pow_float(self, n: int) -> float:
        if n < 1:
            raise ValueError("omega_pow_float is defined for n >= 1")
        self._extend_powers(n)
        return self._pow_float[n]

    def omega_pow_mantissa(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be >= 0")
        self._extend_powers(max(n, 1))
        return (1 << self.P) if n == 0 else self._pow_mantissa[n]


def make_ctx(P: int = DEFAULT_PRECISION_BITS) -> GoldenCtx:
    """Build a golden-rotation context at P fractional bits (P >= 64).

    omega = (sqrt(5) - 1)/2 is realized by an exact integer square root
    with 16 guard bits, then rounded to nearest; the mantissa error is
    below one unit in the last place.
    """
    if P < MIN_PRECISION_BITS:
        raise PrecisionTooLow(f"precision must be at least {MIN_PRECISION_BITS} bits, got {P}")
    guard = 16
    scale = P + guard
    # (sqrt(5) - 1) / 2 at `scale` bits, floor error < 1 unit.
    num = _isqrt_scaled(5, scale) - (1 << scale)
    w_guard = num >> 1
    w = (w_guard + (1 << (guard - 1))) >> guard
    err = Fraction(1, 1 << P)  # covers isqrt floor + the two roundings
    return GoldenCtx(P=P, omega=FixedFrac(w, P, err))


def frac_r_omega(r: int, ctx: GoldenCtx) -> FixedFrac:
    """{r * omega} with error at most (r + 1) / 2^P."""
    if r < 0:
        raise ValueError("r must be >= 0")
    err = Fraction(r + 1, 1 << ctx.P)
    if err >= _ERR_CEILING:
        raise PrecisionExhausted(f"{{r omega}} error budget exhausted at r={r}, P={ctx.P}")
    return FixedFrac((r * ctx.omega.mantissa) & ctx.mask, ctx.P, err)


def xi_inf(t: int, ctx: GoldenCtx) -> float:
    """{t omega} - 1/2; equals -1/2 at t = 0."""
    if t == 0:
        return -0.5
    return frac_r_omega(t, ctx).to_float() - 0.5


def xi_n(n: int, t: int, ctx: GoldenCtx) -> Fraction:
    """Exact rational [t F_{n-1}]/F_n - 1/2, or 0 when t = 0 (mod F_n)."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    fn = ctx.fibs.fib(n)
    if t % fn == 0:
        return Fraction(0)
    res = (t * ctx.fibs.fib(n - 1)) % fn
    return Fraction(res, fn) - Fraction(1, 2)


def two_sin_pi(q: Fraction, delta: float = 0.0) -> float:
    """2 sin(pi (q + delta)) for exact rational q and a small float delta.

    The rational part is reduced modulo 2 and folded into [0, 1/2] by the
    exact identities sin(pi(1+x)) = -sin(pi x) and sin(pi(1-x)) = sin(pi x)
    before any rounding happens, so the result keeps full relative
    accuracy even when q is within a few ulps of an integer.
    """
    q = q % 2
    sign = 1.0
    if q >= 1:
        q -= 1
        sign = -1.0
    if 2 * q > 1:
        q = 1 - q
        delta = -delta
    x = float(q) + delta
    return sign * 2.0 * math.sin(math.pi * x)


def s_nt(n: int, t: int, ctx: GoldenCtx) -> float:
    """The perturbed sine sequence

        s_nt = 2 sin pi (t/F_n - omega^n ([t F_{n-1}]/F_n - 1/2)).

    The bracket always uses the raw residue expression (-1/2 at residue 0),
    so s_n0 = 2 sin(pi omega^n / 2) > 0.
    """
    if n < 1:
        raise ValueError("level n must be >= 1")
    fn = ctx.fibs.fib(n)
    res = (t * ctx.fibs.fib(n - 1)) % fn
    # (2 res - F_n)/(2 F_n) = res/F_n - 1/2 with a single rounding, and with
    # exact sign flip under res -> F_n - res (the t -> F_n - t mirror).
    delta = -ctx.omega_pow_float(n) * ((2 * res - fn) / (2 * fn))
    return two_sin_pi(Fraction(t, fn), delta)


def h_nt(n: int, t: int, ctx: GoldenCtx) -> float:
    """cot(pi t / F_n) sin(pi omega^n xi_nt); undefined at t = 0 (mod F_n)."""
    if n < 1:
        raise ValueError("level n must be >= 1")
    fn = ctx.fibs.fib(n)
    tr = t % fn
    if tr == 0:
        raise ValueError(f"h_nt is undefined for t = 0 (mod F_{n})")
    res = (t * ctx.fibs.fib(n - 1)) % fn
    z = ctx.omega_pow_float(n) * ((2 * res - fn) / (2 * fn))
    # cot(pi u) folded into (0, 1/2] for conditioning: cot(pi(1-u)) = -cot(pi u)
    sign = 1.0
    if 2 * tr > fn:
        tr = fn - tr
        sign = -1.0
    u = math.pi * (tr / fn)
    cot = sign * math.cos(u) / math.sin(u)
    return cot * math.sin(math.pi * z)


@dataclass(frozen=True)
class SeqTerm:
    """One row of the derived sequences at level n, index t."""

    n: int
    t: int
    s: float
    xi: Fraction
    h: float | None


def seq_term(n: int, t: int, ctx: GoldenCtx) -> SeqTerm:
    fn = ctx.fibs.fib(n)
    defined = t % fn != 0
    return SeqTerm(
        n=n,
        t=t,
        s=s_nt(n, t, ctx),
        xi=xi_n(n, t, ctx),
        h=h_nt(n, t, ctx) if defined else None,
    )


# ---------------------------------------------------------------------------
# Generalized sums and products with real bounds
# ---------------------------------------------------------------------------


def _as_fraction(x: Real) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _gen_parts(lower: Real, upper: Real):
    """Split sum_{r=lower}^{upper} with real bounds into boundary cells and
    a full-weight integer range.

    The range is the step-function integral over (lower - 1, upper]: an
    upper bound y = k + f with 0 < f < 1 contributes the boundary term
    a_{k+1} with weight f, matching sum_{1}^{(2k+1)/2} a_r =
    sum_{1}^{k} a_r + a_{k+1}/2.  Returns None for an empty range
    (upper < lower), else (boundaries, full_start, full_end) with
    boundaries a list of (r, weight) pairs.
    """
    lo = _as_fraction(lower)
    hi = _as_fraction(upper)
    if hi < lo:
        return None
    r0 = math.floor(lo)
    r1 = math.ceil(hi)
    boundaries: list[tuple[int, float]] = []
    full_start, full_end = r0, r1
    if lo != r0:
        boundaries.append((r0, float(1 - (lo - r0))))
        full_start = r0 + 1
    if hi != r1:
        full_end = r1 - 1
        boundaries.append((r1, float(hi - (r1 - 1))))
    return boundaries, full_start, full_end


def gen_sum(series: Callable[[int], float], lower: Real, upper: Real) -> float:
    """Generalized sum sum_{r=lower}^{upper} series(r) with real bounds;
    integer bounds reduce to the ordinary sum, an empty range to 0."""
    parts = _gen_parts(lower, upper)
    if parts is None:
        return 0.0
    boundaries, full_start, full_end = parts
    rs = range(full_start, full_end + 1)
    total = comp = 0.0
    if rs:
        run_s, run_c = neumaier(np.fromiter(map(series, rs), np.float64, len(rs)), 0.0, 0.0)
        total, comp = float(run_s[-1]), float(run_c[-1])
    for r, w in boundaries:
        total += w * series(r)
    return total + comp


def gen_prod(series: Callable[[int], float], lower: Real, upper: Real) -> float:
    """Generalized product: exp of the generalized sum of log-terms, so a
    fractional upper bound raises the boundary term to the fractional
    power.  An empty range gives 1; nonpositive terms raise ValueError.
    """

    def log_term(r: int) -> float:
        a = series(r)
        if a <= 0.0:
            raise ValueError(f"gen_prod requires positive terms; series({r}) = {a}")
        return math.log(a)

    return math.exp(gen_sum(log_term, lower, upper))
