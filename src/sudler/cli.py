"""Command-line surface.

Subcommands cover the computational objects (fib, zeck, p, q, decompose,
climit, cotsum, perturbed), CSV emission for plots (profile, cotprofile,
scan), and the verification suite (identities, verify).

Numerical outputs print 17 significant digits together with the rigorous
error bound where one is tracked.  CSV floats use shortest round-trip
decimals, so output is byte-identical for any worker count.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 precision exhaustion.  SUDLER_PRECISION_BITS overrides the default
working precision.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

from . import birkhoff as bk
from . import bounds as bd
from . import fibcore as fc
from . import products as pr
from . import verify as vf
from .errors import PrecisionExhausted, PrecisionTooLow
from .goldenangle import DEFAULT_PRECISION_BITS, make_ctx

__all__ = ["RunConfig", "run", "main"]

_ENV_PRECISION = "SUDLER_PRECISION_BITS"


@dataclass
class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    precision_bits: int = DEFAULT_PRECISION_BITS
    output: str = "-"
    workers: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.precision_bits < 64:
            raise PrecisionTooLow(f"precision must be >= 64 bits, got {self.precision_bits}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision",
        "-P",
        type=int,
        default=None,
        metavar="BITS",
        help=f"working precision in bits (default 192; env {_ENV_PRECISION})",
    )
    common.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument(
        "--output", "-o", default="-", metavar="PATH", help="CSV output path ('-' = stdout)"
    )
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sudler",
        description="Sine products over the golden rotation: computations and verification.",
    )
    common = [_common_flags()]
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("fib", parents=common, help="Fibonacci number F_N")
    sp.add_argument("n", type=int)
    sp = sub.add_parser("zeck", parents=common, help="Zeckendorf representation of N")
    sp.add_argument("n", type=int)
    sp = sub.add_parser("p", parents=common, help="Sudler product P_K")
    sp.add_argument("k", type=int)
    sp = sub.add_parser("q", parents=common, help="renormalisation value Q_N = P_(F_N)")
    sp.add_argument("n", type=int)
    sp = sub.add_parser("decompose", parents=common, help="Q_N = A_N B_N C_N with residual")
    sp.add_argument("n", type=int)
    sp = sub.add_parser("climit", parents=common, help="truncated limit product over T terms")
    sp.add_argument("t", type=int, metavar="T")
    sp = sub.add_parser("cotsum", parents=common, help="cotangent sum at level N")
    sp.add_argument("n", type=int)
    sp = sub.add_parser("cotprofile", parents=common, help="CSV of signed cot partial sums")
    sp.add_argument("n", type=int)
    sp = sub.add_parser("profile", parents=common, help="CSV of (k, P_k, log P_k) up to F_N")
    sp.add_argument("n", type=int)
    sp.add_argument("--stride", type=int, default=1)
    sp = sub.add_parser("scan", parents=common, help="CSV of ln P_k / ln k up to KMAX")
    sp.add_argument("kmax", type=int, metavar="KMAX")
    sp = sub.add_parser("perturbed", parents=common, help="product with phase offset ALPHA")
    sp.add_argument("n", type=int)
    sp.add_argument("alpha", metavar="ALPHA", help="decimal phase, |alpha| <= omega^(N+1)")
    sp = sub.add_parser("identities", parents=common, help="sum/product identity suite")
    sp.add_argument("nmax", type=int, metavar="NMAX")
    sp = sub.add_parser("verify", parents=common, help="run the verification suite")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def _resolve_precision(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(_ENV_PRECISION)
    return int(env) if env else DEFAULT_PRECISION_BITS


def _emit_csv(rows, header: str, cfg: RunConfig, stdout: IO[str]) -> None:
    """Write CSV with shortest round-trip float fields, newline-terminated."""

    def sink(fh: IO[str]) -> None:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")

    if cfg.output == "-":
        sink(stdout)
    else:
        with open(cfg.output, "w") as fh:
            sink(fh)


def _g(x: float) -> str:
    return f"{x:.17g}"


def run(argv: list[str] | None = None, stdout: IO[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit status."""
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig(
            precision_bits=_resolve_precision(args.precision),
            output=args.output,
            workers=args.workers,
            seed=args.seed,
        )
        return _dispatch(args, cfg, out)
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except (PrecisionTooLow, ValueError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, cfg: RunConfig, out: IO[str]) -> int:
    cmd = args.command
    if cmd == "fib":
        print(fc.fib(args.n), file=out)
        return 0
    if cmd == "zeck":
        rep = fc.zeckendorf(args.n)
        terms = " + ".join(f"F_{s}" for s in rep.indices()) or "0"
        print(f"{args.n} = {terms}", file=out)
        print(f"indices = {list(rep.indices())}  m = {rep.m}  length = {rep.length}", file=out)
        return 0

    ctx = make_ctx(cfg.precision_bits)
    if cmd == "p":
        res = pr.sudler_P(args.k, ctx, workers=cfg.workers)
        print(f"P_{args.k} = {_g(res.value)}  (log = {_g(res.log_value)}, |log err| <= {res.err:.3e})", file=out)
        return 0
    if cmd == "q":
        fn = ctx.fibs.fib(args.n)
        res = pr.Q_n(args.n, ctx, workers=cfg.workers)
        print(f"Q_{args.n} = P_{fn} = {_g(res.value)}  (log = {_g(res.log_value)}, |log err| <= {res.err:.3e})", file=out)
        return 0
    if cmd == "decompose":
        d = pr.decompose(args.n, ctx, workers=cfg.workers)
        print(f"A_{args.n} = {_g(d.A)}", file=out)
        print(f"B_{args.n} = {_g(d.B)}", file=out)
        print(f"C_{args.n} = {_g(d.C)}", file=out)
        print(f"Q_{args.n} = {_g(d.Q)}", file=out)
        print(f"residual = {_g(d.residual)}  (residual/Q = {d.rel_residual:.3e})", file=out)
        return 0
    if cmd == "climit":
        u = pr.C_infinity_trunc(args.t, ctx)
        closer = "U" if abs(u - 0.928) <= abs(u * u - 0.928) else "U^2"
        print(f"U({args.t}) = {_g(u)}", file=out)
        print(f"U({args.t})^2 = {_g(u * u)}", file=out)
        print(
            f"|U - 0.928| = {abs(u - 0.928):.6f}   |U^2 - 0.928| = {abs(u * u - 0.928):.6f}"
            f"   (closer form: {closer})",
            file=out,
        )
        return 0
    if cmd == "cotsum":
        cs = bk.cot_sum(args.n, ctx, workers=cfg.workers)
        print(f"sum cot(pi r omega), r <= F_{args.n} = {_g(cs.value)}", file=out)
        print(f"normalized omega^{args.n} * sum = {_g(cs.normalized)}", file=out)
        return 0
    if cmd == "cotprofile":
        _emit_csv(bk.cot_profile(args.n, ctx), "k,partial", cfg, out)
        return 0
    if cmd == "profile":
        rows = pr.profile(args.n, args.stride, ctx, workers=cfg.workers)
        _emit_csv(rows, "k,P,logP", cfg, out)
        return 0
    if cmd == "scan":
        rows = (
            (k, log_p / math.log(k))
            for k, log_p in pr._log_prefix_iter(args.kmax, 1, ctx, cfg.workers)
            if k >= 2
        )
        _emit_csv(rows, "k,logP_over_logk", cfg, out)
        return 0
    if cmd == "perturbed":
        alpha = Fraction(args.alpha)
        value = bd.perturbed_product(args.n, alpha, ctx, check_factored=True, workers=cfg.workers)
        q = pr.Q_n(args.n, ctx, workers=cfg.workers).value
        print(f"prod |2 sin pi(r omega + alpha)|, r <= F_{args.n} = {_g(value)}", file=out)
        print(f"ratio to Q_{args.n} = {_g(value / q)}", file=out)
        return 0
    if cmd == "identities":
        checks = bk.identity_suite(args.nmax, seed=cfg.seed)
        failed = False
        for c in checks:
            status = "ok" if c.max_rel_dev < 1e-11 else "FAIL"
            failed |= status == "FAIL"
            print(f"{c.name:36s} max rel dev {c.max_rel_dev:.3e} (n={c.worst_n})  {status}", file=out)
        return 1 if failed else 0
    if cmd == "verify":
        results = vf.run_checks(
            level=args.level, seed=cfg.seed, precision=cfg.precision_bits, workers=cfg.workers
        )
        width = max(len(r.name) for r in results)
        failures = 0
        for r in results:
            status = "pass" if r.passed else "FAIL"
            failures += not r.passed
            print(f"{r.name:{width}s}  {status}  [{r.seconds:6.2f}s]  {r.detail}", file=out)
        print(f"{len(results) - failures}/{len(results)} checks passed", file=out)
        return 1 if failures else 0
    raise ValueError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
