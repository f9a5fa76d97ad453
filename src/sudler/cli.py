"""Command-line surface.

Subcommands cover the computational objects (fib, zeck, p, q, decompose,
climit, cotsum, perturbed), CSV emission for plots (profile, cotprofile,
scan), and the verification suite (identities, verify).

Numerical outputs print 17 significant digits together with the rigorous
error bound where one is tracked.  The CSV commands take their values a
chunk of columns at a time and write one string per chunk; floats use
shortest round-trip decimals.  Nothing is written, and no output file
opened, before the first chunk is computed, so arguments and up-front
refusals are settled first; ``profile`` and ``scan`` also settle the
prefix pass's own refusal before any row (``products.check_prefix``).
Every sum runs in one fixed order, so output is reproducible bit for bit;
``--workers`` is accepted (N >= 1) and ignored.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 precision exhaustion.  SUDLER_PRECISION_BITS overrides the default
working precision.
"""

from __future__ import annotations

import argparse
import itertools
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
_ROUTES = {"direct": "direct orbit sum", "factors": "A_n B_n C_n factors"}


@dataclass
class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    precision_bits: int = DEFAULT_PRECISION_BITS
    output: str = "-"
    seed: int = 0


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
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and ignored; must be >= 1 (every sum runs in one thread)",
    )
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


def _emit_csv(chunks, header: str, cfg: RunConfig, stdout: IO[str]) -> None:
    """Write CSV from chunks of columns, one string per chunk: ints and
    shortest round-trip floats (``%r``; columns hold Python ints and
    floats), newline-terminated.

    The first chunk is drawn before the header is written or the output
    opened, so a refusal that comes before any row leaves neither.
    """
    chunks = iter(chunks)
    first = list(itertools.islice(chunks, 1))
    line = ",".join(["%r"] * (header.count(",") + 1)) + "\n"

    def sink(fh: IO[str]) -> None:
        fh.write(header + "\n")
        for cols in itertools.chain(first, chunks):
            fh.write("".join(map(line.__mod__, zip(*cols))))

    if cfg.output == "-":
        sink(stdout)
    else:
        try:
            fh = open(cfg.output, "w")
        except OSError as exc:
            raise ValueError(f"cannot open --output {cfg.output!r}: {exc.strerror}") from exc
        with fh:
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
        if args.workers < 1:
            raise ValueError("workers must be >= 1")
        cfg = RunConfig(
            precision_bits=_resolve_precision(args.precision), output=args.output, seed=args.seed
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
    ctx = make_ctx(cfg.precision_bits)  # rejects --precision below 64 for every command
    if cmd == "fib":
        print(fc.fib(args.n), file=out)
        return 0
    if cmd == "zeck":
        rep = fc.zeckendorf(args.n)
        terms = " + ".join(f"F_{s}" for s in rep.indices()) or "0"
        print(f"{args.n} = {terms}", file=out)
        print(f"indices = {list(rep.indices())}  m = {rep.m}  length = {rep.length}", file=out)
        return 0
    if cmd == "p":
        res = pr.sudler_P(args.k, ctx)
        print(f"P_{args.k} = {_g(res.value)}  (log = {_g(res.log_value)}, |log err| <= {res.err:.3e})", file=out)
        return 0
    if cmd == "q":
        fn = ctx.fibs.fib(args.n)
        res = pr.Q_n(args.n, ctx)
        print(
            f"Q_{args.n} = P_{fn} = {_g(res.value)}  (log = {_g(res.log_value)}, "
            f"|log err| <= {res.err:.3e}, route: {_ROUTES[res.route]})",
            file=out,
        )
        return 0
    if cmd == "decompose":
        d = pr.decompose(args.n, ctx)
        print(f"A_{args.n} = {_g(d.A)}  (|log err| <= {d.A_err:.3e})", file=out)
        print(f"B_{args.n} = {_g(d.B)}  (|log err| <= {d.B_err:.3e})", file=out)
        print(f"C_{args.n} = {_g(d.C)}  (|log err| <= {d.C_err:.3e})", file=out)
        print(f"Q_{args.n} = {_g(d.Q)}  ({_ROUTES['direct']}, |log err| <= {d.Q_err:.3e})", file=out)
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
        cs = bk.cot_sum(args.n, ctx)
        print(f"sum cot(pi r omega), r <= F_{args.n} = {_g(cs.value)}  (|err| <= {cs.err:.3e})", file=out)
        print(
            f"normalized omega^{args.n} * sum = {_g(cs.normalized)}  (|err| <= {cs.normalized_err:.3e})",
            file=out,
        )
        return 0
    if cmd == "cotprofile":
        _emit_csv(bk.cot_profile(args.n, ctx), "k,partial", cfg, out)
        return 0
    if cmd == "profile":
        if args.n >= 1 and args.stride >= 1:  # profile() rejects the other arguments
            pr.check_prefix(ctx.fibs.fib(args.n), ctx)
        _emit_csv(pr.profile(args.n, args.stride, ctx), "k,P,logP", cfg, out)
        return 0
    if cmd == "scan":
        if args.kmax < 2:
            raise ValueError(f"KMAX must be >= 2, got {args.kmax}")
        pr.check_prefix(args.kmax, ctx)
        _emit_csv(bd.power_law_ratios(args.kmax, ctx), "k,logP_over_logk", cfg, out)
        return 0
    if cmd == "perturbed":
        alpha = Fraction(args.alpha)
        value = bd.perturbed_product(args.n, alpha, ctx)
        q = pr.Q_n(args.n, ctx).value
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
        results = vf.run_checks(level=args.level, seed=cfg.seed, precision=cfg.precision_bits)
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
