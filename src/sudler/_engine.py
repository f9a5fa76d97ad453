"""Fixed-block evaluation engine for sums over the rotation orbit {r omega}.

Angles are exact P-bit integers a_i = (a0 + i*w) mod 2^P.  ``orbit`` walks
them in chunks of at most CHUNK terms; each chunk starts from one exact
big-integer anchor, and inside it numpy holds the top 144 bits of every a_i
as three 48-bit uint64 limbs.  Since i <= CHUNK < 2^16, every product
i*limb stays below 2^64, so the limb arithmetic and its carries are exact:
for P <= 144 the limbs are the P-bit orbit itself, and above that the
dropped low bits are fewer than CHUNK + 1 units of 2^-144, charged to the
angle error.  Each angle is folded into (0, 1/2] by exact negation across
the limbs before it is rounded to float64, as
x = u2 2^-48 + (u1 2^-96 + u0 2^-144), so x keeps full *relative*
precision even at the closest approaches to 0.

Sums use Neumaier compensation in prefix-sum form (``neumaier``): one
cumulative sum for the running values, the exact TwoSum error of each
step, and a second cumulative sum for the compensation.  Both sums run
strictly left to right, so the result is bit-identical to the scalar
recurrence, and a sum carried from chunk to chunk does not depend on where
the chunks are cut.

Work is cut into fixed blocks of BLOCK terms.  Blocks are pure functions of
their start index, so they can be evaluated by any number of workers; the
merge is math.fsum over the per-block (sum, compensation) pairs in index
order, which makes every result bit-identical for any worker count.

Per-term rigorous error bounds are accumulated alongside every sum.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PrecisionExhausted

BLOCK = 1 << 16
CHUNK = 1 << 13

_EPS = 2.0**-53

_LIMB = 48
_LIMB_MASK = (1 << _LIMB) - 1
_TOP = 3 * _LIMB
_HALF_LIMB = 1 << (_LIMB - 1)  # 1/2 in the top limb
# Limb rows are (low, mid, high).  2^144 - r, limb by limb, is
# (2^48 - r0, M - r1, M - r2) with M = 2^48 - 1: no borrows to propagate.
_COMPLEMENT = np.array([[1 << _LIMB], [_LIMB_MASK], [_LIMB_MASK]], dtype=np.uint64)
_SCALE = np.array([[2.0**-_TOP], [2.0 ** (-2 * _LIMB)], [2.0**-_LIMB]])
# Rounding u1 2^-96 + u0 2^-144 (at most 2^-48) costs at most 2^-101
# absolute on top of the relative rounding of x itself.
_CONVERT_ERR = 2.0**-101


def _dropped_err(P: int) -> float:
    """Bound on the bits below the top 144 that the limbs drop: the chunk
    anchor's and i*w's low parts add up to fewer than CHUNK + 1 units."""
    return 0.0 if P <= _TOP else (CHUNK + 1) * 2.0**-_TOP


def orbit_err(P: int) -> float:
    """Absolute error ``orbit`` adds to every folded angle beyond the exact
    P-bit orbit."""
    return _CONVERT_ERR + _dropped_err(P)


def _top_limbs(v: int, P: int) -> np.ndarray:
    """The top 144 bits of the P-bit integer v as a (3, 1) column of limbs."""
    t = v << (_TOP - P) if P <= _TOP else v >> (P - _TOP)
    limbs = (t & _LIMB_MASK, (t >> _LIMB) & _LIMB_MASK, t >> (2 * _LIMB))
    return np.array(limbs, dtype=np.uint64)[:, None]


def orbit(a0: int, w: int, P: int, count: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (lo, x, neg) chunk by chunk for the orbit a_i = (a0 + i*w)/2^P
    mod 1, i = 1..count; a chunk covers i = lo+1..lo+len(x).

    x is the distance of a_i from the nearest integer, in (0, 1/2], and neg
    marks the a_i above 1/2, whose fold negated them (so {a_i} - 1/2 is
    0.5 - x there and x - 0.5 elsewhere).  Raises PrecisionExhausted when a
    folded angle cannot be told apart from an integer.
    """
    one = 1 << P
    floor = _dropped_err(P)
    iw = np.arange(1, min(count, CHUNK) + 1, dtype=np.uint64) * _top_limbs(w, P)
    for lo in range(0, count, CHUNK):
        m = min(CHUNK, count - lo)
        x, neg = _fold(iw[:, :m] + _top_limbs((a0 + lo * w) % one, P))
        if x.min() <= floor:
            raise PrecisionExhausted("rotation angle indistinguishable from an integer")
        yield lo, x, neg


def _fold(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, neg) from the unnormalised limb sums r = anchor + i*w, mod 2^144."""
    r[1] += r[0] >> _LIMB
    r[2] += r[1] >> _LIMB
    r &= _LIMB_MASK
    neg = r[2] >= _HALF_LIMB
    np.subtract(_COMPLEMENT, r, out=r, where=neg)
    f = r * _SCALE
    return f[2] + (f[1] + f[0]), neg


def neumaier(terms: np.ndarray, s: float, comp: float) -> tuple[np.ndarray, np.ndarray]:
    """Running Neumaier sums of ``terms`` continued from a carried (s, comp).

    Returns the arrays (s_i, comp_i) after each term; s_i + comp_i is the
    compensated partial sum.  Bit-identical to the scalar recurrence

        t = s + term
        comp += (s - t) + term if |s| >= |term| else (term - t) + s
        s = t

    because both cumulative sums run left to right and TwoSum yields the
    same exact rounding error as either branch.
    """
    n = len(terms)
    run = np.empty(n + 1)
    run[0] = s
    run[1:] = terms
    np.add.accumulate(run, out=run)
    prev, cur = run[:-1], run[1:]
    b = cur - prev
    e = np.empty(n + 1)
    e[0] = comp
    e[1:] = (prev - (cur - b)) + (terms - b)
    np.add.accumulate(e, out=e)
    return cur, e[1:]


class _Snapshots:
    """Collects (i, sum, compensation) at the requested 1-based indices."""

    def __init__(self, emit_at: Sequence[int]) -> None:
        self.emit = np.asarray(emit_at, dtype=np.int64)
        self.parts: list[tuple[np.ndarray, ...]] = []

    def take(self, lo: int, run_s: np.ndarray, run_c: np.ndarray) -> None:
        j0, j1 = np.searchsorted(self.emit, (lo, lo + len(run_s)), side="right")
        if j1 > j0:
            i = self.emit[j0:j1]
            self.parts.append((i, run_s[i - lo - 1], run_c[i - lo - 1]))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.parts:
            return np.empty(0, np.int64), np.empty(0), np.empty(0)
        return tuple(np.concatenate(col) for col in zip(*self.parts))


def log2sin_block(
    a0: int,
    w: int,
    P: int,
    count: int,
    ang_err: float,
    emit_at: Sequence[int] = (),
) -> tuple[float, float, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sum log|2 sin(pi a_i)| for a_i = (a0 + i*w)/2^P, i = 1..count.

    Returns (sum, compensation, err_bound, snapshots) where snapshots holds
    the arrays (i, sum, compensation) at each index in emit_at (ascending).
    ``ang_err`` is the caller's absolute bound on the angle error of every
    a_i; it enters the error bound through the cot-conditioned term.
    """
    ang_err += orbit_err(P)
    snaps = _Snapshots(emit_at)
    s = comp = err = 0.0
    for lo, x, _neg in orbit(a0, w, P, count):
        sn = np.sin(np.pi * x)
        term = np.log(sn + sn)
        # Per-term budget: x keeps relative 2^-53 and |arg cot arg| <= 1 on
        # (0, pi/2], so the sine keeps ~4.5 eps relative accuracy however
        # small x is; the log adds up to an ulp of its own magnitude.
        # ang_err covers the gap between the computed angle and the true
        # orbit point, cot-conditioned.
        err += _EPS * (4.5 * len(x) + 2.0 * np.abs(term).sum()) + ang_err * (1.0 / x).sum()
        run_s, run_c = neumaier(term, s, comp)
        s, comp = run_s[-1], run_c[-1]
        snaps.take(lo, run_s, run_c)
    return float(s), float(comp), float(err), snaps.arrays()


def cot_block(
    a0: int,
    w: int,
    P: int,
    count: int,
    ang_err: float,
    emit_at: Sequence[int] = (),
    square: bool = False,
) -> tuple[float, float, float, int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sum cot(pi {a_i}) (or cot^2 with square=True) over i = 1..count.

    Also returns the minimum folded distance seen (in mantissa units) so
    callers can assert the three-distance precision guard at runtime.
    """
    one = 1 << P
    ang_err += orbit_err(P)
    snaps = _Snapshots(emit_at)
    s = comp = err = 0.0
    min_u = one
    for lo, x, neg in orbit(a0, w, P, count):
        # the chunk's closest approach, exactly in P-bit units
        a = (a0 + (lo + int(x.argmin()) + 1) * w) % one
        min_u = min(min_u, a, one - a)
        arg = np.pi * x
        c = np.cos(arg) / np.sin(arg)
        c2 = c * c
        abs_c, sq = np.abs(c).sum(), c2.sum()
        # arg (1 + cot^2 arg) <= pi/2 + |cot arg| on (0, pi/2], so the
        # relative-accurate angle keeps the cot error at O(eps |cot|).
        if square:
            term = c2
            err += _EPS * (6.0 * sq + 8.0 * abs_c + 4.0 * len(x))
            err += ang_err * 2.0 * np.pi * (sq + abs_c)
        else:
            term = np.where(neg, -c, c)
            err += _EPS * (8.0 * abs_c + 4.0 * len(x)) + ang_err * np.pi * (len(x) + sq)
        run_s, run_c = neumaier(term, s, comp)
        s, comp = run_s[-1], run_c[-1]
        snaps.take(lo, run_s, run_c)
    return float(s), float(comp), float(err), min_u, snaps.arrays()


def map_blocks(fn, jobs: Iterable[tuple], workers: int = 1) -> list:
    """Evaluate fn(*job) for each job, in order, optionally on a thread pool.

    Results always come back in job order, so the downstream fsum merge is
    independent of the worker count.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda job: fn(*job), jobs))


def merge_partials(parts: Sequence[tuple[float, float]]) -> float:
    """Exact merge of (sum, compensation) pairs in fixed order."""
    flat: list[float] = []
    for s, c in parts:
        flat.append(s)
        flat.append(c)
    return math.fsum(flat)


def block_spans(count: int) -> list[tuple[int, int]]:
    """Fixed partition of 1..count into (start, length) spans of BLOCK terms."""
    spans = []
    start = 0
    while start < count:
        spans.append((start, min(BLOCK, count - start)))
        start += BLOCK
    return spans
