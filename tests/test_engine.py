"""The orbit kernel and the cumsum-form Neumaier primitive."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import sudler
from sudler import PrecisionExhausted, make_ctx
from sudler._engine import (
    CHUNK,
    TREE_RATE,
    _fold,
    _fold_buffers,
    _top_limbs,
    cot_block,
    log2sin_block,
    log2sin_terms,
    neumaier,
    orbit,
    orbit_err,
    pairwise_sum,
    prefix_sums,
)
from sudler.fibcore import fib
from sudler.products import log_abs_sin_product

EPS = 2.0**-53
PRECISIONS = (64, 192, 512)


@pytest.fixture(scope="module", params=PRECISIONS)
def pctx(request):
    return make_ctx(request.param)


def exact_folds(a0, w, P, count):
    """(u, neg) of every a_i = (a0 + i*w) mod 2^P, folded by integer symmetry."""
    one = 1 << P
    half = one >> 1
    out = []
    a = a0 % one
    for _ in range(count):
        a = (a + w) % one
        out.append((a, False) if a <= half else (one - a, True))
    return out


def assert_orbit_matches(a0, w, P, count):
    """Every kernel angle is within its charged error of the exact P-bit fold:
    relative 2^-53 for the float conversion plus orbit_err(P) absolute."""
    want = exact_folds(a0, w, P, count)
    err = Fraction(orbit_err(P))
    got_x, got_neg = [], []
    for _r0, lo, x, neg in orbit([a0], w, P, count):
        assert lo == len(got_x)
        got_x += x[0].tolist()
        got_neg += neg[0].tolist()
    assert len(got_x) == count
    for (u, neg), x, g_neg in zip(want, got_x, got_neg):
        true = Fraction(u, 1 << P)
        assert abs(Fraction(x) - true) <= true * Fraction(EPS) + err
        if abs(true - Fraction(1, 2)) > err:
            assert g_neg == neg
    return want


class TestOrbitAngles:
    def test_near_closest_approaches(self, pctx):
        P, w, one = pctx.P, pctx.omega.mantissa, 1 << pctx.P
        for m in range(4, 41):  # r = F_m - 2 .. F_m + 4
            assert_orbit_matches(((fib(m) - 3) * w) % one, w, P, 7)

    def test_block_crossing_half_and_wrapping(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        a0 = (1 << P) - 3 * w // 2
        want = assert_orbit_matches(a0, w, P, 200)
        assert any(neg for _u, neg in want) and not all(neg for _u, neg in want)
        assert a0 + 200 * w >= 2 * (1 << P)  # wraps at 1 more than once

    @pytest.mark.parametrize("P", (64, 144))
    def test_tiny_angles_keep_relative_accuracy(self, P):
        """Angles a few units of 2^-P from an integer, on both sides, where
        an off-by-one in the fold would show at full relative size."""
        w = make_ctx(P).omega.mantissa
        for k in (1, 3, -1, -3):
            assert_orbit_matches((k - w) % (1 << P), w, P, 3)

    def test_partial_last_chunk(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        a0 = (123_456_789 * w) % (1 << P)
        assert_orbit_matches(a0, w, P, CHUNK + 77)

    def test_exact_hit_raises(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        a0 = (-5 * w) % (1 << P)
        with pytest.raises(PrecisionExhausted):
            log2sin_block(a0, w, P, 10, 0.0)
        with pytest.raises(PrecisionExhausted):
            cot_block(a0, w, P, 10, 0.0)

    def test_cot_min_u_is_the_exact_closest_approach(self, ctx128):
        P, w = ctx128.P, ctx128.omega.mantissa
        count = fib(18) + 5
        min_u = cot_block(0, w, P, count, 0.0)[3]
        assert min_u == min(u for u, _neg in exact_folds(0, w, P, count))


M = (1 << 48) - 1
MASKED_COMPLEMENT = np.array([1 << 48, M, M], dtype=np.uint64)[:, None, None]
SCALE = np.array([2.0**-144, 2.0**-96, 2.0**-48])[:, None, None]


def masked_fold(r):
    """The fold as a masked subtraction of the limbs from 2^144, kept as the
    reference for the branch-free complement."""
    r[1] += r[0] >> 48
    r[2] += r[1] >> 48
    r &= M
    neg = r[2] >= 1 << 47
    np.subtract(MASKED_COMPLEMENT, r, out=r, where=neg)
    f = r * SCALE
    return f[2] + (f[1] + f[0]), neg


def assert_folds_match(r):
    want_x, want_neg = masked_fold(r.copy())
    got_x, got_neg = _fold(r.copy(), _fold_buffers(r.shape[1:]))
    assert got_neg.tolist() == want_neg.tolist()
    assert bits(got_x) == bits(want_x)


class TestFold:
    def test_random_limb_sums(self, pctx):
        """The unnormalised limb sums anchor + i*w that orbit hands the fold,
        for random anchors at every precision."""
        P, w = pctx.P, pctx.omega.mantissa
        rng = random.Random(8)
        iw = np.arange(1, CHUNK + 1, dtype=np.uint64) * _top_limbs([w], P)
        for _ in range(4):
            assert_folds_match(iw + _top_limbs([rng.getrandbits(P)], P))

    def test_edge_rows(self):
        half = 1 << 47
        rows = [
            (0, 0, half),  # exactly 1/2
            (1 << 48, M, half - 1),  # 1/2 again, before its carries
            (0, 7, half),  # low limb 0 on the top limb 2^47: complement limb 2^48
            (0, 0, M),
            (0, 5, half + 3),
            (M, M, half - 1),  # the largest angle below 1/2
            (M, M, M),  # one unit below 1: folds to 2^-144
            (M - 2, M, M),
            (1, 0, 0),
        ]
        assert_folds_match(np.array(rows, dtype=np.uint64).T[:, None, :])


def scalar_neumaier(terms, s=0.0, comp=0.0):
    """The scalar recurrence the primitive replaces, kept as the reference."""
    out_s, out_c = [], []
    for term in terms:
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        out_s.append(s)
        out_c.append(comp)
    return out_s, out_c


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestNeumaier:
    def test_bit_identical_to_scalar_across_chunks(self):
        rng = np.random.default_rng(7)
        terms = rng.standard_normal(20_000) * 10.0 ** rng.integers(-12, 12, 20_000)
        terms[1::3] = -terms[0::3] * (1.0 + 1e-12)  # near-total cancellations
        want_s, want_c = scalar_neumaier(terms.tolist())
        got_s, got_c = [], []
        s = comp = 0.0
        cuts = [0, 1, 2, 4096, 8191, 8192, 8193, 13_000, 20_000]
        for lo, hi in zip(cuts, cuts[1:]):
            run_s, run_c = neumaier(terms[lo:hi], s, comp)
            s, comp = run_s[-1], run_c[-1]
            got_s += run_s.tolist()
            got_c += run_c.tolist()
        assert bits(got_s) == bits(want_s)
        assert bits(got_c) == bits(want_c)

    def test_seeded_carry(self):
        terms = [1e16, 1.0, -1e16, 3.5, 1e-8]
        want = scalar_neumaier(terms, 2.0**60, -3.0)
        got = neumaier(np.array(terms), 2.0**60, -3.0)
        assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])


def scalar_log2sin(a0, w, P, count):
    """The per-term big-integer loop the kernel replaces, kept as the reference."""
    total = comp = 0.0
    for u, _neg in exact_folds(a0, w, P, count):
        sn = math.sin(math.pi * (float(u) * 2.0**-P))
        term = math.log(sn + sn)
        t = total + term
        comp += (total - t) + term if abs(total) >= abs(term) else (term - t) + total
        total = t
    return total + comp


class TestLog2SinBlock:
    def test_against_scalar_loop(self, pctx):
        P, w = pctx.P, pctx.omega.mantissa
        for start, count in ((0, 3000), (fib(25) - 1500, 3000)):
            a0 = (start * w) % (1 << P)
            s, c, err, _ang = log2sin_block(a0, w, P, count, 0.0)
            assert abs((s + c) - scalar_log2sin(a0, w, P, count)) <= err

    @pytest.mark.parametrize("stride", [1, 7])
    def test_prefix_walk_equals_direct_sums(self, ctx, stride):
        """The walk's value at k is bit-identical to the total over k terms,
        wherever k falls relative to the chunk cuts, up to k past 2^16; at
        stride 7 the first emitted k at or after each cut is checked."""
        P, w = ctx.P, ctx.omega.mantissa
        k16 = 1 << 16
        count = k16 + 2 * CHUNK + 16  # 1 mod 7, so emitted at both strides
        ends, rows = [], {}
        for end, ks, values, _err, _ang in prefix_sums(log2sin_terms, w, P, count, stride):
            ends.append(end)
            rows.update(zip(ks, values))
        assert ends == [*range(CHUNK, count, CHUNK), count]
        assert list(rows) == list(range(1, count + 1, stride))
        for k in (1, CHUNK - 1, CHUNK, CHUNK + 1, k16 - 1, k16, k16 + 1, count):
            k += -(k - 1) % stride
            assert rows[k] == log_abs_sin_product(k, ctx)[0], k

    def test_dropped_bits_are_charged(self):
        """Above 144 bits the limbs drop the low bits; an angle 20001 units of
        2^-144 from an integer moves by a relative 1e-4, and the reported err
        must cover that."""
        P = 512
        w, one = make_ctx(P).omega.mantissa, 1 << P
        u = (20_001 << (P - 144)) - 1
        term, _c, err, _ang = log2sin_block((u - w) % one, w, P, 1, 0.0)
        with mpmath.workdps(40):
            want = float(mpmath.log(2 * mpmath.sin(mpmath.pi * mpmath.mpf(u) / one)))
        assert 1e-6 < abs(term - want) <= err

    def test_single_call_of_2_20_terms(self, ctx):
        P, w = ctx.P, ctx.omega.mantissa
        count = 1 << 20
        s, c, err, _ang = log2sin_block(0, w, P, count, (count + 1) * 2.0**-P)
        blockwise, block_err = log_abs_sin_product(count, ctx)
        assert math.isfinite(s + c) and 0.0 < err < 1e-9
        assert abs((s + c) - blockwise) <= err + block_err


class TestPairwiseSum:
    @pytest.mark.parametrize("m", [CHUNK, CHUNK - 1, 1000, 1])
    def test_within_the_tree_charge_of_fsum(self, m):
        """Full and zero-padded partial chunks, with mixed magnitudes and
        signs, two rows at a time."""
        rng = np.random.default_rng(m)
        terms = rng.standard_normal((2, m)) * 10.0 ** rng.integers(-8, 8, (2, m))
        terms[1, 1::2] = -terms[1, ::2][: m // 2] * (1.0 + 1e-9)
        buf = np.zeros((2, CHUNK))
        buf[:, :m] = terms
        got = pairwise_sum(buf)
        for row, total in zip(terms.tolist(), got.tolist()):
            assert abs(total - math.fsum(row)) <= TREE_RATE * math.fsum(map(abs, row))

    def test_rows_and_chunks_are_independent(self):
        """A row summed alone, or among other rows and chunks, gives the same bits."""
        x = np.random.default_rng(3).standard_normal((3, 4, CHUNK))
        together = pairwise_sum(x.copy())
        for row in range(3):
            for chunk in range(4):
                assert bits([together[row, chunk]]) == bits([pairwise_sum(x[row, chunk].copy())])


class TestRows:
    """A sequence of anchors runs through the same kernel as one anchor,
    row by row; every row must equal its own single-anchor call bit for
    bit, wherever the chunk and slab cuts fall."""

    @staticmethod
    def assert_rows_match(ctx, starts, count, seed):
        P, w, one = ctx.P, ctx.omega.mantissa, 1 << ctx.P
        anchors = [(st * w) % one for st in starts]
        ang_errs = (np.random.default_rng(seed).random(len(starts)) * 1e-12).tolist()
        s, c, err, ang = log2sin_block(anchors, w, P, count, ang_errs)
        assert s.shape == c.shape == err.shape == ang.shape == (len(starts),)
        want = [log2sin_block(a, w, P, count, e) for a, e in zip(anchors, ang_errs)]
        want_s, want_c, want_err, want_ang = zip(*want)
        assert bits(s) == bits(want_s)
        assert bits(c) == bits(want_c)
        assert bits(err) == bits(want_err)
        assert bits(ang) == bits(want_ang)

    def test_rows_crossing_a_chunk(self, pctx):
        self.assert_rows_match(pctx, [0, fib(20), 987_654_321], CHUNK + 5, 1)

    def test_rows_crossing_slabs(self, pctx):
        starts = np.random.default_rng(2).integers(0, 10**9, 1000).tolist()
        assert 1000 * 17 > CHUNK  # more rows than one slab holds
        self.assert_rows_match(pctx, starts, 17, 3)

    def test_orbit_rows_cover_every_anchor_once(self, ctx):
        P, w = ctx.P, ctx.omega.mantissa
        anchors = [(t * w) % (1 << P) for t in range(1000)]
        seen = np.zeros(len(anchors), dtype=int)
        for r0, lo, x, neg in orbit(anchors, w, P, 17):
            assert lo == 0 and x.shape == neg.shape and x.size <= CHUNK
            seen[r0 : r0 + len(x)] += 1
        assert seen.tolist() == [1] * len(anchors)

    def test_2d_neumaier_equals_rows(self):
        rng = np.random.default_rng(11)
        terms = rng.standard_normal((5, 300)) * 10.0 ** rng.integers(-12, 12, (5, 300))
        s0 = rng.standard_normal(5) * 1e10
        c0 = rng.standard_normal(5) * 1e-7
        run_s, run_c = neumaier(terms, s0, c0)
        for j in range(5):
            want_s, want_c = neumaier(terms[j], s0[j], c0[j])
            assert bits(run_s[j]) == bits(want_s) and bits(run_c[j]) == bits(want_c)

    def test_one_row_near_an_integer_raises(self, pctx):
        P, w, one = pctx.P, pctx.omega.mantissa, 1 << pctx.P
        anchors = [(t * w) % one for t in (3, 40, 500)] + [(-5 * w) % one]
        with pytest.raises(PrecisionExhausted):
            log2sin_block(anchors, w, P, 10, 0.0)


class TestRigour:
    """The rigorous err charges each log|2 sin(pi x)| term (4.5 + 2|term|)
    2^-53 for float rounding, plus orbit_err(P)/x for the kernel's angle.
    numpy documents no ulp bound for sin and log, so the assumption is
    checked against mpmath at the orbit's closest approaches r = F_m and at
    random r: the one-term err the kernel reports must cover the deviation
    from the exact P-bit angle."""

    def _check(self, ctx, rs):
        P, w, one = ctx.P, ctx.omega.mantissa, 1 << ctx.P
        with mpmath.workdps(40):
            for r in rs:
                a = (r * w) % one
                u = min(a, one - a)
                term, _c, err, _ang = log2sin_block(((r - 1) * w) % one, w, P, 1, 0.0)
                assert err <= (4.5 + 2.0 * abs(term)) * EPS * (1 + 1e-12) + orbit_err(P) * one / u
                want = mpmath.log(2 * mpmath.sin(mpmath.pi * mpmath.mpf(u) / one))
                dev = abs(term - float(want))
                assert dev <= err, f"r={r}: {dev:.3e} > {err:.3e}"

    def test_closest_approaches(self, ctx):
        self._check(ctx, [fib(m) for m in range(1, 41)])

    def test_random_orbit_points(self, ctx):
        rng = np.random.default_rng(2014)
        self._check(ctx, rng.integers(1, fib(40), 10_000).tolist())


def _rows_block(P):
    """A 3-row log2sin_block past one chunk, every entry of every row."""
    w, one = make_ctx(P).omega.mantissa, 1 << P
    anchors = [0, (fib(20) * w) % one, (987_654_321 * w) % one]
    sums = log2sin_block(anchors, w, P, CHUNK + 5, [0.0, 1e-13, 2e-12])
    return [v for entry in sums for v in entry.tolist()]


def _pinned_values(ctx):
    """name -> list of floats (and ints), for values that reach the
    orbit-sum walk or the factor walk through each of their consumers:
    Q_n on both routes, the factors of decompose, B*_n, a rows block at
    the lowest and highest tested precision and a whole cot_block."""
    from sudler import bounds, birkhoff, products

    rows = list(bounds.split_logs([10_000, fib(25) + 7], ctx))
    cs = birkhoff.cot_sum(30, ctx)
    d = products.decompose(30, ctx)
    w, fn25 = ctx.omega.mantissa, fib(25)
    return {
        "split_logs": [v for _segments, log, err in rows for v in (log, err)],
        "perturbed_product": [bounds.perturbed_product(20, 1e-6, ctx)],
        "sum_series": [birkhoff.sum_series(15, 500, 0.3, ctx).values[-1]],
        "S_nt_splits": birkhoff.S_nt_splits(15, [377, 600], ctx),
        "cot_sum": [cs.value, cs.err],
        "cot2_sum": [birkhoff.cot2_sum(20, ctx)],
        "C_infinity_trunc": [products.C_infinity_trunc(100_000, ctx)],
        **{f"Q_{n}": [q.log_value, q.err] for n in range(24, 34) for q in [products.Q_n(n, ctx)]},
        "decompose_30": [d.B, d.C, d.B_err, d.C_err, d.Q_err],
        "B*_31": list(products._log_factors(31, ctx, ("B*",))[0]),
        **{f"log2sin_rows_P{P}": _rows_block(P) for P in (64, 512)},
        "cot_block_F25": list(cot_block(0, w, ctx.P, fn25, (fn25 + 1) * 2.0 ** -ctx.P)),
    }


PINNED_HEX = {
    "split_logs": [
        "0x1.54894181ed83cp+2", "0x1.c472adeeac021p-38", "0x1.648f2e72b535cp+1", "0x1.a86a3da8fe058p-35"
    ],
    "perturbed_product": ["0x1.311527eb0b737p+1"],
    "sum_series": ["-0x1.255328155dd27p-11"],
    "S_nt_splits": ["0x1.4d0af14de9dccp-11", "0x1.3ee594dd99134p-10"],
    "cot_sum": ["-0x1.70b09c506657dp+18", "0x1.e79409e6c723bp-28"],
    "cot2_sum": ["0x1.3b74cf29f7bdep+25"],
    "C_infinity_trunc": ["0x1.d477d855a0b80p-1"],
    "Q_24": ["0x1.c1c0dde50361dp-1", "0x1.06477b8e94ba6p-35"],
    "Q_25": ["0x1.c1c1b9003e03ep-1", "0x1.a860b55e0ec49p-35"],
    "Q_26": ["0x1.c1c13196590e0p-1", "0x1.575450ae6384fp-34"],
    "Q_27": ["0x1.c1c185472e1ecp-1", "0x1.15c271cada259p-33"],
    "Q_28": ["0x1.c1c1518ded196p-1", "0x1.c16cb63e0b002p-33"],
    "Q_29": ["0x1.c1c171856e496p-1", "0x1.6b97a212807bdp-32"],
    "Q_30": ["0x1.c1c15dc3a7532p-1", "0x1.2627059fc96c9p-31"],
    "Q_31": ["0x1.c1c169f95eb20p-1", "0x1.dbf2ddb00ea1cp-31"],
    "Q_32": ["0x1.c1c1626dcf7ffp-1", "0x1.838767d23ca7dp-46"],
    "Q_33": ["0x1.c1c16717c5fc4p-1", "0x1.8fe7372650570p-46"],
    "decompose_30": [
        "0x1.df5c2a6a3ce6fp-1", "0x1.d477c8fbda8f2p-1", "0x1.43da8180e33fep-46", "0x1.109921d016130p-50",
        "0x1.2627059fc96c9p-31",
    ],
    "B*_31": ["-0x1.0dd015999c351p-4", "0x1.503a50d04825cp-46"],
    "log2sin_rows_P64": [
        "0x1.1ba106433a8a4p+2", "0x1.10b2c4a3961bcp+2", "-0x1.d5ff05cfff691p+0",
        "0x1.002a1c0000000p-46", "-0x1.f790800000000p-51", "0x1.ad1f000000000p-47",
        "0x1.72dc63d6314e5p-38", "0x1.180a081c5efa8p-26", "0x1.b6db6c684c4edp-21",
        "0x1.3092b1edd9ebbp-84", "0x1.17f2da4b38a95p-26", "0x1.b6dab2ed75322p-21",
    ],
    "log2sin_rows_P512": [
        "0x1.1ba106433a985p+2", "0x1.10b2c4a395f96p+2", "-0x1.d5ff116e446f2p+0",
        "0x1.cdca1c0000000p-46", "0x1.5176bc0000000p-46", "-0x1.3f04c00000000p-46",
        "0x1.72dc63d6314e5p-38", "0x1.180a081c5f17ap-26", "0x1.b6db792f296b6p-21",
        "0x1.3092b1f29c555p-84", "0x1.17f2da4b38c67p-26", "0x1.b6dabfb4524e9p-21",
    ],
    "cot_block_F25": [
        "0x1.09f53d7f52d6cp+15", "-0x1.21fb65ff80000p-33", "0x1.279b3b8bbf4d7p-31",
        "0x6401b3f75d47959710c251ede25a0fc32c041aa17172",
    ],
}


def test_walk_consumers_keep_their_bits(ctx):
    """The segment logs and their bounds, the perturbed product, the sine
    partial sums, the cot sums, U(T), Q_n on both routes, the factors and
    the rows kernel, pinned to the bit (an int, such as cot_block's min_u,
    as hex(int))."""
    got = {
        name: [hex(v) if isinstance(v, int) else v.hex() for v in values]
        for name, values in _pinned_values(ctx).items()
    }
    assert got == PINNED_HEX


def test_module_arrays_are_read_only():
    """Chunks are computed in place with out=, so every module-level array
    of the two walks' modules must refuse a write."""
    from sudler import _engine, products

    arrays = {
        f"{mod.__name__}.{name}": value
        for mod in (_engine, products)
        for name, value in vars(mod).items()
        if isinstance(value, np.ndarray)
    }
    assert set(arrays) == {"sudler._engine._SCALE", "sudler.products._STEPS"}
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            np.add(arr, 1, out=arr)


def test_import_loads_no_thread_pool():
    """Blocks run in one thread, so importing the package must not pull
    in concurrent.futures (about 5 ms of the import)."""
    src = str(Path(sudler.__file__).resolve().parents[1])
    code = "import sudler, sys; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
