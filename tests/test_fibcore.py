"""Fibonacci table, floor, Zeckendorf representation, and modular inverses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import fibcore as fc


def test_fib_base_cases():
    assert fc.fib(0) == 0
    assert fc.fib(1) == 1
    assert fc.fib(6) == 8


def test_fib_against_recurrence_oracle():
    # independent direct recurrence
    a, b = 0, 1
    for n in range(1, 80):
        a, b = b, a + b
        assert fc.fib(n) == a
    assert fc.fib(40) == 102334155


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fc.fib(-1)


def test_fib_floor_examples():
    assert fc.TABLE.floor(7) == (5, 5)
    assert fc.TABLE.floor(1) == (2, 1)
    assert fc.TABLE.floor(0) == (0, 0)
    assert fc.TABLE.floor(4) == (4, 3)
    assert fc.TABLE.floor(5) == (5, 5)


def test_zeckendorf_examples():
    rep = fc.zeckendorf(7)
    assert rep.indices() == (5, 3)
    assert rep.length == 2
    assert rep.m == 5
    rep0 = fc.zeckendorf(0)
    assert rep0.bits == ()
    assert rep0.length == 0
    assert rep0.value() == 0


def test_zeckendorf_uniqueness_against_enumeration():
    """Exhaustively enumerate all non-adjacent subsets of {F_2..F_16} and
    confirm each n <= 1000 has exactly one representation, the one the
    greedy algorithm returns."""
    reps: dict[int, tuple[int, ...]] = {}

    def extend(index: int, total: int, chosen: tuple[int, ...]):
        if total > 1000:
            return
        if total in reps and chosen:
            raise AssertionError(f"duplicate representation for {total}")
        if chosen:
            reps[total] = chosen
        for s in range(index + 2, 17):
            extend(s, total + fc.fib(s), chosen + (s,))

    extend(0, 0, ())
    for n in range(1, 1001):
        assert n in reps, f"no representation found for {n}"
        assert tuple(sorted(fc.zeckendorf(n).indices())) == reps[n]


def greedy_zeckendorf_bits(n: int) -> tuple[int, ...]:
    """The repeated-Fibonacci-floor loop the table walk replaces, kept as
    the reference."""
    bits: list[int] = []
    remaining = n
    while remaining > 0:
        i, v = fc.TABLE.floor(remaining)
        if not bits:
            bits = [0] * i
        bits[i - 1] = 1
        remaining -= v
    return tuple(bits)


def test_zeckendorf_walk_matches_greedy_oracle():
    for n in range(20_001):
        assert fc.zeckendorf(n).bits == greedy_zeckendorf_bits(n), n
    for m in range(1, 61):
        for n in (fc.fib(m) - 1, fc.fib(m), fc.fib(m) + 1):
            assert fc.zeckendorf(n).bits == greedy_zeckendorf_bits(n), n


def test_zeckendorf_segments():
    rep = fc.zeckendorf(7 + 144)  # F_12 + F_5 + F_3
    assert rep.segments() == [(12, 0), (5, 144), (3, 149)]
    assert fc.zeckendorf(0).segments() == []


@given(st.integers(min_value=0, max_value=10**15))
@settings(max_examples=300, deadline=None)
def test_zeckendorf_roundtrip_property(n):
    rep = fc.zeckendorf(n)
    assert rep.value() == n
    bits = rep.bits
    assert all(not (bits[i] and bits[i + 1]) for i in range(len(bits) - 1))
    assert rep.bit(1) == 0
    assert rep.length <= rep.m // 2


def test_fib_length_bounds_examples():
    m_bound, fl_bound = fc.fib_length_bounds(7)
    assert fl_bound >= 2 and m_bound >= 5
    m1, fl1 = fc.fib_length_bounds(1)
    assert m1 >= 2 and fl1 >= 1
    with pytest.raises(ValueError):
        fc.fib_length_bounds(0)


def test_fib_length_bounds_scan():
    for n in range(1, 10_001):
        m_bound, fl_bound = fc.fib_length_bounds(n)
        rep = fc.zeckendorf(n)
        assert rep.m <= m_bound
        assert rep.length <= fl_bound


def test_fib_mod_inverse_examples():
    assert fc.fib_mod_inverse(5) == 2
    assert (3 * 2) % 5 == 1
    assert fc.fib_mod_inverse(1) == 0
    assert fc.fib_mod_inverse(2) == 0


def test_fib_mod_inverse_matches_extended_euclid():
    for n in range(3, 31):
        fn = fc.fib(n)
        inv = fc.fib_mod_inverse(n)
        assert inv == pow(fc.fib(n - 1), -1, fn)


def test_fib_identities_exact():
    fc.FibTable().check_identities(200)


def test_fib_closed_form_high_precision():
    """F_n vs (omega^-n - (-omega)^n)/sqrt(5) using 128-bit integer
    arithmetic, independent of the golden-angle module."""
    from fractions import Fraction

    P = 128
    sqrt5 = Fraction(math.isqrt(5 << (2 * P)), 1 << P)
    w = (sqrt5 - 1) / 2
    for n in range(1, 61):
        approx = ((1 / w) ** n - (-w) ** n) / sqrt5
        assert abs(float(approx) - fc.fib(n)) < 1e-6
