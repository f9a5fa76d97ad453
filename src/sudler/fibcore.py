"""Fibonacci numbers, their identities, and the Zeckendorf representation.

Indexing convention: F_0 = 0, F_1 = F_2 = 1, F_{n+1} = F_n + F_{n-1}.
All arithmetic is exact (Python big integers).

F_n does not depend on any working precision, so the package keeps one
table, the module-level ``TABLE``: every function here reads it, and every
``GoldenCtx`` hands it out as ``ctx.fibs``.

A Zeckendorf representation is one Python-int bit mask (``ZeckRep``), so
building and reading it costs integer operations, not an object per bit,
and n has no size limit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

__all__ = [
    "OMEGA",
    "FibTable",
    "TABLE",
    "ZeckRep",
    "fib",
    "zeckendorf",
    "fib_length_bounds",
    "fib_mod_inverse",
]

# omega = (sqrt(5)-1)/2 as a float, the package's one copy; ln(1+omega) and
# ln(2+omega) for the index/length bounds.
OMEGA = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_GOLDEN = math.log(1.0 + OMEGA)
_LOG_GOLDEN_SQ = math.log(2.0 + OMEGA)


class FibTable:
    """Lazily extended cache of Fibonacci numbers.

    Entries are written once and never mutated, so a table may be shared
    freely between readers once built.
    """

    def __init__(self) -> None:
        self._values: list[int] = [0, 1]

    def fib(self, n: int) -> int:
        """Return F_n, extending the cache as needed."""
        if n < 0:
            raise ValueError(f"Fibonacci index must be >= 0, got {n}")
        values = self._values
        while len(values) <= n:
            values.append(values[-1] + values[-2])
        return values[n]

    def floor(self, n: int) -> tuple[int, int]:
        """Largest F_i <= n as (index, value), highest index on ties.

        The tie at value 1 resolves to index 2, so floor(1) = (2, 1);
        floor(0) = (0, 0).
        """
        if n < 0:
            raise ValueError(f"the Fibonacci floor requires n >= 0, got {n}")
        if n == 0:
            return (0, 0)
        values = self._values
        while values[-1] <= n:
            values.append(values[-1] + values[-2])
        # bisect_right lands after the final F_i <= n; index 1 (the low
        # copy of value 1) is never returned because index 2 follows it.
        i = bisect_right(values, n) - 1
        return (i, values[i])

    def check_identities(self, n_max: int) -> None:
        """Raise AssertionError unless the cached prefix satisfies the
        defining recurrence, F_{n+1}F_{n-1} - F_n^2 = (-1)^n, and the
        parity rule (F_n even iff 3 | n)."""
        f = self.fib
        f(n_max + 1)
        for n in range(1, n_max + 1):
            assert f(n + 1) == f(n) + f(n - 1), f"recurrence fails at {n}"
            assert f(n + 1) * f(n - 1) - f(n) ** 2 == (-1) ** n, (
                f"product identity fails at {n}"
            )
            assert (f(n) % 2 == 0) == (n % 3 == 0), f"parity rule fails at {n}"


TABLE = FibTable()


def _values(n: int) -> list[int]:
    """TABLE's value list, extended to cover index n, for loops that read
    many entries without a method call each."""
    TABLE.fib(n)
    return TABLE._values


def fib(n: int) -> int:
    """F_n for n >= 0."""
    return TABLE.fib(n)


class ZeckRep(NamedTuple):
    """Zeckendorf representation n = sum b_s F_s with no two adjacent ones,
    held as one integer bit mask: bit s - 1 of ``mask`` is b_s.

    ``m`` is the top index (b_m = 1 whenever n >= 1) and ``length`` counts
    the ones; index 1 is never used.  ``bits`` spells the mask out as the
    tuple (b_1, ..., b_m).  Every reader walks the set bits from the top.
    """

    n: int
    mask: int

    @property
    def m(self) -> int:
        return self.mask.bit_length()

    @property
    def length(self) -> int:
        return self.mask.bit_count()

    @property
    def bits(self) -> tuple[int, ...]:
        """(b_1, ..., b_m); empty for n = 0."""
        return tuple(map(int, reversed(f"{self.mask:b}"))) if self.mask else ()

    def indices(self) -> tuple[int, ...]:
        """Indices s with b_s = 1, in decreasing order."""
        out = []
        mask = self.mask
        while mask:
            s = mask.bit_length()
            out.append(s)
            mask ^= 1 << (s - 1)
        return tuple(out)

    def segments(self) -> list[tuple[int, int]]:
        """(s, n_s) for each index s with b_s = 1, in decreasing order, where
        n_s = sum_{u > s} b_u F_u is the part of n above segment s."""
        values = _values(self.m)
        out = []
        tail = 0
        for s in self.indices():
            out.append((s, tail))
            tail += values[s]
        return out

    def value(self) -> int:
        values = _values(self.m)
        return sum(values[s] for s in self.indices())

    def bit(self, s: int) -> int:
        """b_s, defined as 0 beyond the top index."""
        return (self.mask >> (s - 1)) & 1 if s >= 1 else 0


def zeckendorf(n: int) -> ZeckRep:
    """Greedy decomposition of n >= 0 into non-adjacent Fibonacci numbers.

    Each step takes the Fibonacci floor F_i of the remainder by one
    ``bisect_right`` into the table, sets bit i - 1 of the mask and
    subtracts F_i; the remainder is then below F_{i-1}, so the next search
    stops short of index i - 1.  This is the greedy choice of the largest
    Fibonacci floor at every step, one search per one bit.  0 maps to the
    empty representation (mask 0).
    """
    if n < 0:
        raise ValueError(f"zeckendorf requires n >= 0, got {n}")
    values = TABLE._values
    if values[-1] <= n:
        TABLE.floor(n)  # extends the table past n
    mask = 0
    remaining = n
    hi = len(values)
    while remaining:
        i = bisect_right(values, remaining, 0, hi) - 1
        mask |= 1 << (i - 1)
        remaining -= values[i]
        hi = i - 1
    return ZeckRep(n, mask)


def fib_length_bounds(n: int) -> tuple[int, int]:
    """Bounds (m_bound, FL_bound) on the top index and on the Zeckendorf
    length of n >= 1:

        m(n)   <= floor((ln n + 1) / ln(1 + omega))
        F_L(n) <= floor((ln n + 1) / ln(2 + omega))
    """
    if n < 1:
        raise ValueError(f"fib_length_bounds requires n >= 1, got {n}")
    ln = math.log(n)
    return (
        math.floor((ln + 1.0) / _LOG_GOLDEN),
        math.floor((ln + 1.0) / _LOG_GOLDEN_SQ),
    )


def fib_mod_inverse(n: int) -> int:
    """The inverse of F_{n-1} modulo F_n, namely [(-1)^n F_{n-1}] mod F_n.

    For n = 1, 2 the modulus is 1 and the inverse is 0 by convention.
    """
    if n < 1:
        raise ValueError(f"fib_mod_inverse requires n >= 1, got {n}")
    fn = TABLE.fib(n)
    if fn == 1:
        return 0
    return ((-1) ** n * TABLE.fib(n - 1)) % fn
