"""Regenerate reference.json: independent mpmath values of log P_k.

P_k = prod_{r<=k} |2 sin(pi r omega)| is summed in the log domain at 30
significant digits, with {r omega} taken exactly from a 256-bit mantissa
of omega.  This shares no code with sudler.  The benchmark checks every
product it times against these values, within the program's own error
bound.

Run from the repository root (about a minute):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
from mpmath import mp, mpf

BITS = 256
DPS = 30
N_MAX = 32  # largest Fibonacci level, F_32 = 2178309
GRID = 256  # mirrored pairs (F_29 + d, F_30 - d) for the q-ladder


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def grid_offsets() -> list[int]:
    """Offsets d in (0, F_28): k = F_29 + d and F_30 - d are both strictly
    between F_29 and F_30, hence not Fibonacci numbers, and sum to F_31."""
    span = fib(28)
    return [1 + (j * (span - 2)) // (GRID - 1) for j in range(GRID)]


def main() -> None:
    mp.dps = DPS
    scale = BITS + 16
    # omega = (sqrt(5) - 1)/2 with 16 guard bits, rounded to BITS bits
    w = (((math.isqrt(5 << (2 * scale)) - (1 << scale)) >> 1) + (1 << 15)) >> 16
    one = 1 << BITS
    half = one >> 1
    ks = {fib(n): f"F{n}" for n in range(2, N_MAX + 1)}
    for d in grid_offsets():
        ks.setdefault(fib(29) + d, None)
        ks.setdefault(fib(30) - d, None)
    wanted = sorted(ks)
    out: dict[str, str] = {}
    log, sinpi, ldexp = mpmath.log, mpmath.sinpi, mpmath.ldexp
    total = mpf(0)
    a = 0
    nxt = 0
    for r in range(1, wanted[-1] + 1):
        a = (a + w) & (one - 1)
        u = a if a <= half else one - a
        total += log(2 * sinpi(ldexp(mpf(u), -BITS)))
        if r == wanted[nxt]:
            out[str(r)] = mpmath.nstr(total, 25)
            nxt += 1
    path = Path(__file__).with_name("reference.json")
    doc = {
        "what": "log P_k at the golden rotation, mpmath",
        "omega_bits": BITS,
        "dps": DPS,
        "grid_offsets": grid_offsets(),
        "log_P": out,
    }
    path.write_text(json.dumps(doc, indent=0) + "\n")


if __name__ == "__main__":
    main()
