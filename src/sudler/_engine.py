"""Evaluation engine for sums over the rotation orbit {r omega}.

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
precision even at the closest approaches to 0.  Every limb is at most
M = 2^48 - 1, so the negation is branch-free: M - v = v ^ M, and the low
limb's 2^48 - v = (v ^ M) + 1.

Every walk evaluates its chunks in place: it allocates one set of chunk
buffers when it starts, and every numpy operation of every chunk writes
into them with out=, in the order of the plain expressions, so the
values are those of fresh temporaries bit for bit.  The arrays a walk
yields are valid until its next chunk.  Buffers belong to one walk, never
to the module, so a walk may run between the chunks of another, and the
module's own arrays are read-only.

``orbit`` takes a sequence of anchors that share one term count: each
anchor is a row, rows are cut into slabs of at most CHUNK angles, and every
row comes out bit-identical to a one-row call, so many short sums (the
Zeckendorf segments) share one call's fixed cost.

Every orbit sum is one walk, ``orbit_sums``: it runs ``orbit`` over the
rows, has a term function write each chunk's terms into the walk's
buffer and return their rigorous error charge, and carries one running
Neumaier pair per row in prefix-sum form (``neumaier``, whose in-place
core runs on the walk's buffers): one cumulative sum for the running
values, the exact TwoSum error of each step, and a second cumulative sum
for the compensation.  Both sums run strictly left to right, so the result is
bit-identical to the scalar recurrence, and a sum carried from chunk to
chunk does not depend on where the chunks are cut.  A total
(``log2sin_block``, ``cot_block``) is the running pair after the last
chunk, rounded once; a prefix pass (``prefix_sums``) reads the running
pair at the requested indices of every chunk, so each of its values is
bit-identical to the total over that many terms, and a streamed caller
can stop at the first chunk past its budget.  The term functions
(``log2sin_terms``, ``cot_terms``) are shared by both.

Sums that need no prefixes and whose terms are small and charged relative
to their size can instead use ``pairwise_sum``, a pinned halving tree over
one zero-padded chunk, whose error is charged as TREE_RATE per unit of
sum |term|.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PrecisionExhausted

CHUNK = 1 << 13

_EPS = 2.0**-53
# A fixed summation tree of depth d = log2 CHUNK = 13 errs by at most
# gamma_d sum |x| with gamma_d = d u/(1 - d u) < (d + 1) u, u = 2^-53
# (Higham's bound for pairwise summation, cited from memory).
TREE_RATE = CHUNK.bit_length() * _EPS
# The float64 part of log2sin_block's per-term charge, in eps, that holds
# for any angle: a floor on its bound that no precision lowers.
TERM_FLOOR = 4.5

_LIMB = 48
_LIMB_MASK = (1 << _LIMB) - 1
_TOP = 3 * _LIMB
_SCALE = np.array([2.0**-_TOP, 2.0 ** (-2 * _LIMB), 2.0**-_LIMB])[:, None, None]
_SCALE.flags.writeable = False
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


def _top_limbs(vs: Sequence[int], P: int) -> np.ndarray:
    """The top 144 bits of each P-bit integer in vs as a (3, len(vs), 1)
    column of limbs."""
    ts = [v << (_TOP - P) if P <= _TOP else v >> (P - _TOP) for v in vs]
    limbs = [[(t >> shift) & _LIMB_MASK for t in ts] for shift in (0, _LIMB, 2 * _LIMB)]
    return np.array(limbs, dtype=np.uint64)[:, :, None]


def _chunk_shape(rows: int, count: int) -> tuple[int, int]:
    """(slab, width) of the largest chunk ``orbit`` yields for that many
    anchors of count terms each: at most CHUNK // width rows of at most
    CHUNK angles."""
    width = min(count, CHUNK)
    return min(rows, CHUNK // max(width, 1)), width


def orbit(anchors: Sequence[int], w: int, P: int, count: int) -> Iterator[tuple]:
    """Yield (r0, lo, x, neg) chunk by chunk for the orbits
    a_i = (a0 + i*w)/2^P mod 1, i = 1..count, of the anchors a0, as rows:
    x and neg have shape (rows, m) for the anchors r0, r0 + 1, ..., and a
    chunk covers i = lo+1..lo+m.  Rows are cut into slabs of at most
    CHUNK // min(count, CHUNK), so no chunk holds more than CHUNK angles.

    x is the distance of a_i from the nearest integer, in (0, 1/2], and neg
    is 1 at the a_i above 1/2, whose fold negated them (so {a_i} - 1/2 is
    0.5 - x there and x - 0.5 where neg is 0).  Raises PrecisionExhausted
    when a folded angle cannot be told apart from an integer.

    Every chunk is computed in one set of buffers that the walk allocates
    when it starts, so x and neg are valid until the next chunk: a caller
    that keeps them copies them.
    """
    anchors = list(anchors)
    one = 1 << P
    floor = _dropped_err(P)
    slab, width = _chunk_shape(len(anchors), count)
    iw = np.arange(1, width + 1, dtype=np.uint64) * _top_limbs([w], P)
    limbs = np.empty((3, slab, width), dtype=np.uint64)
    bufs = _fold_buffers((slab, width))
    for r0 in range(0, len(anchors), max(slab, 1)):
        rows = anchors[r0 : r0 + slab]
        k = len(rows)
        for lo in range(0, count, CHUNK):
            m = min(CHUNK, count - lo)
            r = limbs[:, :k, :m]
            np.add(iw[:, :, :m], _top_limbs([(a + lo * w) % one for a in rows], P), out=r)
            x, neg = _fold(r, tuple(b[..., :k, :m] for b in bufs))
            if x.min() <= floor:
                raise PrecisionExhausted("rotation angle indistinguishable from an integer")
            yield r0, lo, x, neg


def _fold_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The buffers (x, neg, word, f) of ``_fold`` for limb sums of that shape."""
    return np.empty(shape), np.empty(shape, np.uint64), np.empty(shape, np.uint64), np.empty((3, *shape))


def _fold(r: np.ndarray, bufs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(x, neg) from the unnormalised limb sums r = anchor + i*w, mod 2^144,
    written into bufs (``_fold_buffers``).  Overwrites r."""
    x, neg, word, f = bufs
    np.right_shift(r[0], _LIMB, out=word)
    np.add(r[1], word, out=r[1])
    np.right_shift(r[1], _LIMB, out=word)
    np.add(r[2], word, out=r[2])
    np.bitwise_and(r, _LIMB_MASK, out=r)
    # The top limb is below 2^48, so its bit 47 is the flag a_i > 1/2.
    np.right_shift(r[2], _LIMB - 1, out=neg)
    # Limb rows are (low, mid, high).  2^144 - r, limb by limb, is
    # (2^48 - r0, M - r1, M - r2) with M = 2^48 - 1: no borrows to
    # propagate.  As every limb is at most M, M - v = v ^ M and
    # 2^48 - r0 = (r0 ^ M) + 1, so the complement needs no branch: the
    # flag times M is the mask, and the flag itself the low limb's 1.
    np.multiply(neg, _LIMB_MASK, out=word)
    np.bitwise_xor(r, word, out=r)
    np.add(r[0], neg, out=r[0])
    np.multiply(r, _SCALE, out=f)
    np.add(f[1], f[0], out=x)
    np.add(f[2], x, out=x)
    return x, neg


def _neumaier(run: np.ndarray, e: np.ndarray, s, comp, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The in-place core of ``neumaier``: e[..., 1:] holds the terms on
    entry, and run and e (length m + 1 along the last axis) and b (length
    m) are overwritten.  Returns the views (run[..., 1:], e[..., 1:])."""
    e[..., 0] = s
    np.add.accumulate(e, axis=-1, out=run)
    prev, cur, terms = run[..., :-1], run[..., 1:], e[..., 1:]
    np.subtract(cur, prev, out=b)
    np.subtract(terms, b, out=terms)
    np.subtract(cur, b, out=b)
    np.subtract(prev, b, out=b)
    np.add(b, terms, out=terms)  # TwoSum: (prev - (cur - b)) + (term - b)
    e[..., 0] = comp
    np.add.accumulate(e, axis=-1, out=e)
    return cur, terms


def neumaier(terms: np.ndarray, s, comp) -> tuple[np.ndarray, np.ndarray]:
    """Running Neumaier sums of ``terms`` continued from a carried (s, comp),
    along the last axis; for 2-D terms, s and comp carry one value per row.

    Returns the arrays (s_i, comp_i) after each term; s_i + comp_i is the
    compensated partial sum.  Bit-identical to the scalar recurrence

        t = s + term
        comp += (s - t) + term if |s| >= |term| else (term - t) + s
        s = t

    because both cumulative sums run left to right and TwoSum yields the
    same exact rounding error as either branch.
    """
    shape = terms.shape[:-1] + (terms.shape[-1] + 1,)
    run, e = np.empty(shape), np.empty(shape)
    e[..., 1:] = terms
    return _neumaier(run, e, s, comp, np.empty(terms.shape))


def pairwise_sum(buf: np.ndarray) -> np.ndarray:
    """Sums along the last axis of buf, whose length is a power of two, by a
    pinned halving tree: at each level element i gains element i + h, for
    h = len/2, len/4, ..., 1.  Overwrites buf.

    The order depends only on the length, so a chunk zero-padded to CHUNK
    (adding 0 is exact) sums bit for bit the same wherever its values came
    from; for a length up to CHUNK its error is at most TREE_RATE sum |x|.
    """
    h = buf.shape[-1]
    while h > 1:
        h //= 2
        np.add(buf[..., :h], buf[..., h : 2 * h], out=buf[..., :h])
    return buf[..., 0].copy()  # not a view, which would keep all of buf alive


def log2sin_terms(x: np.ndarray, neg: np.ndarray, ang_err, out: np.ndarray, tmp: np.ndarray) -> tuple:
    """Write log|2 sin(pi x)| of folded angles x into out, and return the
    chunk's error charge and its angle part, each summed along the last
    axis (per row for 2-D x).  tmp, shaped like x, is overwritten.

    ``ang_err`` bounds the absolute error of every angle (one bound per row
    for 2-D x); it enters the charge through the cot-conditioned term, and
    the angle part is that term alone: the charge minus the angle part is
    float64 rounding, which no precision lowers.  neg is not needed.
    """
    np.multiply(x, np.pi, out=out)
    np.sin(out, out=out)
    np.add(out, out, out=out)
    np.log(out, out=out)
    # Per-term budget: x keeps relative 2^-53 and |arg cot arg| <= 1 on
    # (0, pi/2], so the sine keeps ~4.5 eps relative accuracy however
    # small x is; the log adds up to an ulp of its own magnitude.
    # ang_err covers the gap between the computed angle and the true
    # orbit point, cot-conditioned.
    np.divide(1.0, x, out=tmp)
    ang = ang_err * tmp.sum(axis=-1)
    np.abs(out, out=tmp)
    return _EPS * (TERM_FLOOR * x.shape[-1] + 2.0 * tmp.sum(axis=-1)) + ang, ang


def cot_terms(
    x: np.ndarray, neg: np.ndarray, ang_err, out: np.ndarray, tmp: np.ndarray, square: bool = False
) -> tuple:
    """Write cot(pi {a}) of folded angles x, negated where neg (or cot^2
    with square=True), into out, and return the chunk's error charge and
    its angle part, each summed along the last axis, as in
    ``log2sin_terms``."""
    np.multiply(x, np.pi, out=tmp)
    np.cos(tmp, out=out)
    np.sin(tmp, out=tmp)
    np.divide(out, tmp, out=out)
    m = x.shape[-1]
    np.abs(out, out=tmp)
    abs_c = tmp.sum(axis=-1)
    # arg (1 + cot^2 arg) <= pi/2 + |cot arg| on (0, pi/2], so the
    # relative-accurate angle keeps the cot error at O(eps |cot|).
    if square:
        np.multiply(out, out, out=out)
        sq = out.sum(axis=-1)
        ang = ang_err * 2.0 * np.pi * (sq + abs_c)
        return _EPS * (6.0 * sq + 8.0 * abs_c + 4.0 * m) + ang, ang
    np.multiply(out, out, out=tmp)
    sq = tmp.sum(axis=-1)
    ang = ang_err * np.pi * (m + sq)
    # negate where neg: flip the sign bit
    sign = tmp.view(np.uint64)
    np.left_shift(neg, 63, out=sign)
    np.bitwise_xor(out.view(np.uint64), sign, out=out.view(np.uint64))
    return _EPS * (8.0 * abs_c + 4.0 * m) + ang, ang


def orbit_sums(
    terms, anchors: Sequence[int], w: int, P: int, count: int, ang_err, drift: float = 0.0
) -> Iterator[tuple]:
    """The one orbit-sum walk: running sums of terms over the orbits
    a_i = (a0 + i*w)/2^P, i = 1..count, of the anchors a0 (rows).

    Yields (rows, lo, x, run_s, run_c, err, ang) per chunk of ``orbit``:
    the slice of anchors it covers, its first index lo and folded angles
    x, the running Neumaier pair (s_i, c_i) after each of its terms, and
    its error charge and the charge's angle part, one per row.

    ``terms(x, neg, ang_err, out, tmp)`` writes a chunk's terms into out,
    with tmp (shaped like x) as scratch, and returns their charge and its
    angle part (``log2sin_terms``, ``cot_terms``) from a bound on the
    absolute error of every angle of a row: the caller's ``ang_err`` (a
    scalar or one per row) plus drift (end + 1), with end the chunk's last
    index, plus orbit_err(P).  drift is the P-bit omega's error 2^-P where
    the bound must grow with the index (a prefix pass); a total charges
    its whole (count + 1) 2^-P up front in ang_err.  The pair carries from chunk to
    chunk, so s_i + c_i rounded once is the compensated sum of the first
    lo + i terms, whatever the chunk cuts.

    The terms, the running pair and the scratch live in one set of
    buffers per walk, like ``orbit``'s: x, run_s and run_c are valid until
    the next chunk, so a caller that keeps them copies them.
    """
    anchors = list(anchors)
    ang_err = np.broadcast_to(np.asarray(ang_err, dtype=np.float64), len(anchors))
    s, comp = np.zeros((2, len(anchors)))
    slab, width = _chunk_shape(len(anchors), count)
    run, e = np.empty((2, slab, width + 1))
    tmp = np.empty((slab, width))
    for r0, lo, x, neg in orbit(anchors, w, P, count):
        k, m = x.shape
        rows = slice(r0, r0 + k)
        bound = ang_err[rows] + drift * (lo + m + 1) + orbit_err(P)
        err, ang = terms(x, neg, bound, e[:k, 1 : m + 1], tmp[:k, :m])
        run_s, run_c = _neumaier(run[:k, : m + 1], e[:k, : m + 1], s[rows], comp[rows], tmp[:k, :m])
        s[rows], comp[rows] = run_s[:, -1], run_c[:, -1]
        yield rows, lo, x, run_s, run_c, err, ang


def log2sin_block(a0, w: int, P: int, count: int, ang_err) -> tuple:
    """Sum log|2 sin(pi a_i)| for a_i = (a0 + i*w)/2^P, i = 1..count.

    Returns (sum, compensation, err_bound, ang_part).  ``ang_err`` is the
    caller's absolute bound on the angle error of every a_i; ang_part is
    the part of err_bound it causes (see ``log2sin_terms``).

    With a sequence of anchors a0 (rows), ang_err is a scalar or one bound
    per row, and every entry returned is an array with one value per row.
    """
    single = isinstance(a0, int)
    anchors = [a0] if single else list(a0)
    s, comp, err, ang = np.zeros((4, len(anchors)))
    for rows, _lo, _x, run_s, run_c, e, a in orbit_sums(log2sin_terms, anchors, w, P, count, ang_err):
        s[rows], comp[rows] = run_s[:, -1], run_c[:, -1]
        err[rows] += e
        ang[rows] += a
    if single:
        return float(s[0]), float(comp[0]), float(err[0]), float(ang[0])
    return s, comp, err, ang


def cot_block(
    a0: int, w: int, P: int, count: int, ang_err: float, square: bool = False
) -> tuple[float, float, float, int]:
    """Sum cot(pi {a_i}) (or cot^2 with square=True) over i = 1..count.

    Returns (sum, compensation, err_bound, min_u): min_u is the minimum
    folded distance seen (in mantissa units), so callers can assert the
    three-distance precision guard at runtime.
    """
    one = 1 << P
    s = comp = err = 0.0
    min_u = one
    walk = orbit_sums(
        lambda x, neg, ang, out, tmp: cot_terms(x, neg, ang, out, tmp, square), [a0], w, P, count, ang_err
    )
    for _rows, lo, x, run_s, run_c, e, _ang in walk:
        # the chunk's closest approach, exactly in P-bit units
        a = (a0 + (lo + int(x.argmin()) + 1) * w) % one
        min_u = min(min_u, a, one - a)
        s, comp, err = run_s[0, -1], run_c[0, -1], err + e[0]
    return float(s), float(comp), float(err), min_u


def prefix_sums(terms, w: int, P: int, count: int, stride: int) -> Iterator[tuple]:
    """Running sums of terms over the orbit a_i = i w/2^P, i = 1..count,
    chunk by chunk.  Yields (end, ks, values, err, ang) per chunk: its last
    index; the range of every k = 1, 1 + stride, ... inside it and the
    list of sum_{i<=k} term_i at those k; its error charge and the
    charge's angle part.

    The angle bound is the P-bit omega's drift at the chunk's last index,
    (end + 1) 2^-P, plus orbit_err(P) (``orbit_sums`` with drift 2^-P).
    The value at k is the running Neumaier pair (s_k, c_k) rounded once,
    s_k + c_k, as every total rounds, so it is bit-identical to the total
    over k terms.
    """
    for _rows, lo, x, run_s, run_c, err, ang in orbit_sums(terms, [0], w, P, count, 0.0, 2.0 ** (-P)):
        end = lo + x.shape[-1]
        at = slice((-lo) % stride, None, stride)
        values = (run_s[0, at] + run_c[0, at]).tolist()
        yield end, range(lo + 1, end + 1)[at], values, float(err[0]), float(ang[0])


def map_blocks(fn, jobs: Iterable[tuple], workers: int = 1) -> list:
    """[fn(*job) for job in jobs], in job order.  ``workers`` is accepted
    and ignored: threads were measured at no speed-up over one."""
    return [fn(*job) for job in jobs]


def merge_partials(parts: Sequence[tuple[float, float]]) -> float:
    """Exact merge of (sum, compensation) pairs in fixed order."""
    flat: list[float] = []
    for s, c in parts:
        flat.append(s)
        flat.append(c)
    return math.fsum(flat)

