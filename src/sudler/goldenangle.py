"""Fixed-point arithmetic at the golden rotation omega = (sqrt(5)-1)/2.

The angle engine keeps every fractional part as an integer mantissa of P
bits, so {r*omega} is computed exactly as (r*W) mod 2^P where W is the
rounded mantissa of omega.  Transcendental evaluations round the exact
mantissa to float64; every public quantity carries, or can bound, the
absolute error this introduces.

Phases live here too: ``phase_mantissa`` rounds an outside phase to a
signed mantissa, and ``zeckendorf_segments``, the one segment route of the
split product and the split partial sums, phases every Zeckendorf segment
of k.  Also defined here: the derived sequences

    s_nt  = 2 sin pi (t/F_n - omega^n ([t F_{n-1}]/F_n - 1/2))
    xi_nt = [t F_{n-1}]/F_n - 1/2   (0 when t = 0 mod F_n)
    xi_inf_t = {t omega} - 1/2
    h_nt  = cot(pi t / F_n) sin(pi omega^n xi_nt)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PrecisionExhausted, PrecisionTooLow
from .fibcore import TABLE, FibTable, zeckendorf

__all__ = [
    "FixedFrac",
    "GoldenCtx",
    "make_ctx",
    "frac_r_omega",
    "xi_inf",
    "xi_n",
    "s_nt",
    "h_nt",
    "two_sin_pi",
    "phase_mantissa",
    "zeckendorf_segments",
]

MIN_PRECISION_BITS = 64
DEFAULT_PRECISION_BITS = 192

# Any tracked absolute error reaching 2^-16 means the representation no
# longer carries usable information.
_ERR_CEILING = Fraction(1, 1 << 16)


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


def phase_mantissa(alpha, ctx: GoldenCtx) -> tuple[int, float]:
    """The signed P-bit mantissa m = round(alpha 2^P) of a phase alpha
    (a float, Fraction or decimal string) and the absolute error of
    m 2^-P, plus 2^-P.  Rounding is half to even, so any alpha + N gives
    m + N 2^P, the same angle mod 2^P."""
    frac = Fraction(alpha)
    m = round(frac * (1 << ctx.P))
    err = abs(float(frac - Fraction(m, 1 << ctx.P)))
    return m, err + 2.0 ** (-ctx.P)


def zeckendorf_segments(ks, ctx: GoldenCtx, totals):
    """The Zeckendorf segments of every k in ks, each with its phase and
    the value ``totals`` gives it.

    Segment s of k = sum_s b_s F_s is the F_s-term orbit from k_s omega,
    k_s = sum_{u > s} b_u F_u.  Each distinct (s, k_s) gets its phase once,
    the signed representative of k_s W mod 2^P, whose geometric-series
    bound |phase| < omega^{s+1} is asserted, not assumed.  Then
    ``totals(s, phases, tails)`` runs once per s on that index's distinct
    rows, in first-seen order, and returns one value per row.  All of this
    happens at call time; the result yields, lazily per k, the list of
    (s, k_s, phase, value)."""
    one, half = 1 << ctx.P, 1 << (ctx.P - 1)
    rows: dict[int, dict[int, int]] = {}
    walks = []
    for k in ks:
        walk = zeckendorf(k).segments()  # ValueError for k < 0
        for s, tail in walk:
            phases = rows.setdefault(s, {})
            if tail in phases:
                continue
            phase = (tail * ctx.omega.mantissa + half) % one - half  # the representative nearest 0
            if abs(phase) >= ctx.omega_pow_mantissa(s + 1) + tail + 1:
                raise ArithmeticError(f"segment phase |{phase / one:.3e}| >= omega^{s + 1} at k={k}, s={s}")
            phases[tail] = phase
        walks.append(walk)
    segs = {}
    for s, phases in rows.items():
        values = totals(s, list(phases.values()), list(phases))
        segs.update(((s, t), (s, t, phase, v)) for (t, phase), v in zip(phases.items(), values))
    return ([segs[seg] for seg in walk] for walk in walks)


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
