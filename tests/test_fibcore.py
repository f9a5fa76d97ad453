"""Fibonacci table, floor, Zeckendorf representation, and modular inverses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import fibcore as fc
from sudler import verify


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


@pytest.mark.parametrize("n", [0, 7, 151, 10**30, 2**200 + 12345])
def test_mask_readers_agree(n):
    """The mask holds any n, far past 64 bits, and every reader of it tells
    the same representation as the greedy oracle."""
    rep = fc.zeckendorf(n)
    assert rep == (n, rep.mask)
    bits = greedy_zeckendorf_bits(n)
    assert rep.bits == bits
    assert rep.mask == sum(b << s for s, b in enumerate(bits))
    assert (rep.m, rep.length) == (len(bits), sum(bits))
    assert rep.indices() == tuple(s for s in range(len(bits), 0, -1) if bits[s - 1])
    tails = [sum(fc.fib(u) for u in rep.indices() if u > s) for s in rep.indices()]
    assert rep.segments() == list(zip(rep.indices(), tails))
    assert rep.value() == n
    assert [rep.bit(s) for s in range(0, len(bits) + 3)] == [0, *bits, 0, 0]


def test_zeckendorf_rejects_negative():
    with pytest.raises(ValueError, match="n >= 0"):
        fc.zeckendorf(-1)


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


# 4321 = F_19 + F_11 + F_9 + F_7 + F_4 + F_2.  Each mutant hands 4321 alone a
# rep that is wrong in one way, which verify's fibcore checks must name.
MASK_4321 = 0b1000000010101001010
MUTANTS = {
    "value": lambda mask: mask ^ 0b10,  # drops F_2: 4320
    "adjacent": lambda mask: mask ^ 0b1110000,  # F_7 -> F_6 + F_5, same value
    "index-1": lambda mask: mask ^ 0b11,  # F_2 -> F_1, same value
    "extra-top": lambda mask: mask | 1 << 19,  # F_20 on top: m = 20
}


def _mutate_4321(monkeypatch, mutant):
    real = fc.zeckendorf
    assert real(4321).mask == MASK_4321

    def zeckendorf(n):
        rep = real(n)
        return rep._replace(mask=MUTANTS[mutant](rep.mask)) if n == 4321 else rep

    monkeypatch.setattr(verify.fc, "zeckendorf", zeckendorf)


@pytest.mark.parametrize(
    "mutant, detail",
    [
        ("value", "reconstruction fails at 4321"),
        ("adjacent", "adjacent ones at 4321"),
        ("index-1", "index 1 used at 4321"),
        ("extra-top", "reconstruction fails at 4321"),
    ],
)
def test_roundtrip_check_names_a_wrong_rep(monkeypatch, mutant, detail):
    _mutate_4321(monkeypatch, mutant)
    [res] = verify.run_checks(level="quick", only={"zeckendorf-roundtrip"})
    assert (res.passed, res.detail) == (False, detail)


def test_length_bounds_check_names_an_extra_top_bit(monkeypatch):
    _mutate_4321(monkeypatch, "extra-top")
    [res] = verify.run_checks(level="quick", only={"fib-length-bounds"})
    assert (res.passed, res.detail) == (False, "n=4321: m=20 vs 19, F_L=7 vs 9")


def test_fibcore_checks_pass_unmutated():
    results = verify.run_checks(level="quick", only={"zeckendorf-roundtrip", "fib-length-bounds"})
    assert [(r.passed, r.detail) for r in results] == [
        (True, "roundtrip + non-adjacency, n <= 10000"),
        (True, "index/length bounds hold, n <= 10000"),
    ]
