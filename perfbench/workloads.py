"""The benchmark's four workloads: their operations, inputs and output checks.

A workload is a fixed list of operations.  One pass issues them in order,
each after the previous one returned (a closed loop with one caller and
``workers=1``).  ``check`` validates an operation's output after it was
timed and returns how many operations it stood for, how many of those
failed, and the messages of any output that is wrong.

Failures follow the sudler error model: a ``PrecisionExhausted`` refusal
and a red verification check both count as failed operations, but they are
outcomes the program is allowed to give, so they are not wrong outputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LADDER = tuple(range(24, 33))  # q-ladder rungs; the top one is refused today
DECOMP_LADDER = tuple(range(24, 31))
PROFILE_N = 27
COTPROFILE_M = 25
RESIDUAL_GATE = 1e-9  # the gate of the decomposition-identity check
# Checks that are red by design (README, ROADMAP aim 3); every other
# check of the full suite must pass.
EXPECTED_RED = frozenset({"accumulation-point-zero", "power-law-k1-sign"})
ORACLE_ROWS = 200  # leading CSV rows checked against mpmath
# A rung that costs more than this many million reference-loop iterations
# (about 4 s on the machine the benchmark was built on, ROADMAP's estimate
# for F_40 on a vectorised kernel) does not count toward max_level, and
# the probe does not start a rung projected to cost more.
LEVEL_CAP_MITER = 6.0
OMEGA = (math.sqrt(5.0) - 1.0) / 2.0


class Refused(Exception):
    """Marks an operation the program declined with PrecisionExhausted."""


@dataclass
class Env:
    """The imported program, its context and the stored reference logs."""

    sudler: object
    pr: object
    cli: object
    vf: object
    exhausted: type
    ctx: object
    ref: dict[int, float]
    grid: list[int]

    @classmethod
    def load(cls, ref_path: Path) -> "Env":
        import sudler
        from sudler import cli
        from sudler import products as pr
        from sudler import verify as vf
        from sudler.errors import PrecisionExhausted

        doc = json.loads(ref_path.read_text())
        return cls(
            sudler=sudler,
            pr=pr,
            cli=cli,
            vf=vf,
            exhausted=PrecisionExhausted,
            ctx=sudler.make_ctx(192),
            ref={int(k): float(v) for k, v in doc["log_P"].items()},
            grid=doc["grid_offsets"],
        )

    def fib(self, n: int) -> int:
        return self.ctx.fibs.fib(n)

    def top_level(self) -> int:
        """The highest n whose F_n is in the reference table."""
        n = 2
        while self.fib(n + 1) in self.ref:
            n += 1
        return n

    def expected_log_q(self, n: int) -> tuple[float, float]:
        """log Q_n and the tolerance of that value, beyond the program's err.

        Within the table this is the reference (tolerance 0).  Above it,
        the steps d_m = log Q_m - log Q_{m-1} shrink by the factor -omega
        to first order, so log Q_n is extrapolated geometrically from the
        table's last step.  The error of that first-order model shrinks by
        omega^2 per level it starts from; the tolerance is its largest
        error over four held-out levels when started four levels below the
        top, about 50 times what it is when started from the top (2.8e-12
        with the table up to F_32, against a 1e-9 error budget).
        """
        top = self.top_level()
        if n <= top:
            return self.ref[self.fib(n)], 0.0
        logq = {m: self.ref[self.fib(m)] for m in range(top - 5, top + 1)}

        def extrapolate(m: int, k: int) -> float:
            step = logq[m] - logq[m - 1]
            return logq[m] + step * sum((-OMEGA) ** j for j in range(1, k + 1))

        tol = max(abs(logq[top - 4 + k] - extrapolate(top - 4, k)) for k in range(1, 5))
        return extrapolate(top, n - top), tol

    def check_level(self, n: int, res) -> list[str]:
        """log Q_n within the program's reported error of the expected value."""
        expected, tol = self.expected_log_q(n)
        dev = abs(res.log_value - expected)
        if not dev <= res.err + tol:
            return [f"log Q_{n} off the expected value by {dev:.3e} > err {res.err:.3e} + {tol:.1e}"]
        return []

    def check_product(self, k: int, res) -> list[str]:
        """log P_k within the program's reported error of the reference."""
        ref = self.ref.get(k)
        if ref is None:
            return [f"no reference for k={k}"]
        dev = abs(res.log_value - ref)
        if not dev <= res.err:
            return [f"log P_{k} off the reference by {dev:.3e} > err {res.err:.3e}"]
        return []


@dataclass
class Verdict:
    """Operation counts of a run.  ``failed`` counts every failed operation
    (refusals, red checks and wrong outputs); ``wrong_ops`` counts only the
    operations whose output is wrong, and ``wrong`` holds their messages."""

    attempted: int = 0
    failed: int = 0
    wrong_ops: int = 0
    wrong: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, wrong: list[str]) -> None:
        bad = min(attempted, len(wrong))
        self.attempted += attempted
        self.failed += max(failed, bad)
        self.wrong_ops += bad
        self.wrong += wrong


class Workload:
    name = ""

    def __init__(self, env: Env, seed: int) -> None:
        self.env = env
        self.rng = random.Random(f"{self.name}:{seed}")
        self.q_seen: dict[int, object] = {}  # n -> result or Refused
        self.decomps: dict[int, object] = {}

    def ops(self) -> list[tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small operation of the same kind, run before any timing."""

    def check(self, label: str, value) -> tuple[int, int, list[str]]:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks made once per run, after the timed passes."""
        return []

    def _q_or_p(self, k: int, value, n: int | None):
        if n is not None:
            self.q_seen.setdefault(n, value)
        if isinstance(value, Refused):
            return 1, 1, []
        return 1, 0, self.env.check_product(k, value)


class QLadder(Workload):
    name = "q-ladder"

    def __init__(self, env: Env, seed: int) -> None:
        super().__init__(env, seed)
        # A mirrored pair k, F_31 - k keeps the term count independent of the seed.
        d = env.grid[self.rng.randrange(len(env.grid))]
        self.pair = (env.fib(29) + d, env.fib(30) - d)

    def ops(self):
        pr, ctx = self.env.pr, self.env.ctx
        ops = [(f"Q_{n}", lambda n=n: pr.Q_n(n, ctx, workers=1)) for n in LADDER]
        ops += [(f"P_{k}", lambda k=k: pr.sudler_P(k, ctx, workers=1)) for k in self.pair]
        return ops

    def warm_up(self) -> None:
        self.env.pr.Q_n(10, self.env.ctx)

    def check(self, label, value):
        if label.startswith("Q_"):
            n = int(label[2:])
            return self._q_or_p(self.env.fib(n), value, n)
        return self._q_or_p(int(label[2:]), value, None)


class DecomposeLadder(Workload):
    name = "decompose-ladder"

    def ops(self):
        pr, ctx = self.env.pr, self.env.ctx
        return [(f"decompose_{n}", lambda n=n: pr.decompose(n, ctx, workers=1)) for n in DECOMP_LADDER]

    def warm_up(self) -> None:
        self.env.pr.decompose(10, self.env.ctx)

    def check(self, label, value):
        if isinstance(value, Refused):
            return 1, 1, []
        n = int(label.split("_")[1])
        self.decomps[n] = value
        return 1, 0, check_decomposition(self.env, n, value)


def check_decomposition(env: Env, n: int, d) -> list[str]:
    import mpmath

    wrong = []
    fn = env.fib(n)
    dev = abs(math.log(d.Q) - env.ref[fn])
    if not dev <= env.pr.ERR_BUDGET:
        wrong.append(f"log Q_{n} off the reference by {dev:.3e}")
    if not abs(d.rel_residual) <= RESIDUAL_GATE:
        wrong.append(f"decomposition residual {d.rel_residual:.3e} at n={n}")
    with mpmath.workdps(30):
        omega = (mpmath.sqrt(5) - 1) / 2
        a_ref = 2 * fn * mpmath.sin(mpmath.pi * omega**n)
        a_dev = abs(float((d.A - a_ref) / a_ref))
    if not a_dev <= 1e-13:
        wrong.append(f"A_{n} off mpmath by {a_dev:.3e} relative")
    if not (0.0 < d.B and 0.0 < d.C < 1.0):
        wrong.append(f"B_{n} = {d.B!r}, C_{n} = {d.C!r} out of range")
    return wrong


def sha256(text: str) -> str:
    """Digest of the UTF-8 bytes, encoded a megabyte at a time so that no
    second copy of a large CSV adds to the run's peak memory."""
    h = hashlib.sha256()
    for i in range(0, len(text), 1 << 20):
        h.update(text[i : i + (1 << 20)].encode())
    return h.hexdigest()


class ProfileStream(Workload):
    name = "profile-stream"

    def __init__(self, env: Env, seed: int) -> None:
        super().__init__(env, seed)
        self.digests: dict[str, str] = {}
        self.validated: set[str] = set()  # CSVs whose content was checked in full

    def _cli(self, *argv: str) -> Callable[[], str]:
        def op() -> str:
            buf = io.StringIO()
            status = self.env.cli.run(list(argv), stdout=buf)
            if status == 3:
                raise Refused(f"{argv[0]} exited 3")
            if status != 0:
                raise RuntimeError(f"sudler {' '.join(argv)} exited {status}")
            return buf.getvalue()

        return op

    def ops(self):
        return [
            ("profile", self._cli("profile", str(PROFILE_N), "--stride", "1")),
            ("cotprofile", self._cli("cotprofile", str(COTPROFILE_M))),
        ]

    def warm_up(self) -> None:
        self._cli("profile", "10")()
        self._cli("cotprofile", "10")()

    def check(self, label, text):
        if isinstance(text, Refused):
            return 1, 1, []
        digest = sha256(text)
        first = self.digests.setdefault(label, digest)
        if first != digest:
            return 1, 0, [f"{label} CSV differs between passes"]
        if label in self.validated:
            return 1, 0, []
        self.validated.add(label)
        if label == "profile":
            return 1, 0, self._check_profile(text)
        return 1, 0, self._check_cotprofile(text)

    def _check_profile(self, text: str) -> list[str]:
        import mpmath

        env = self.env
        wrong = []
        if not text.startswith("k,P,logP\n") or text.count("\n") != env.fib(PROFILE_N) + 1:
            wrong.append("profile CSV header or row count")
        # rows at k = F_n are bit-identical to Q_n (profile-consistency)
        for n in range(3, PROFILE_N + 1):
            k = env.fib(n)
            at = text.find(f"\n{k},")
            row = text[at + 1 : text.index("\n", at + 1)].split(",")
            q = env.pr.Q_n(n, env.ctx)
            if row != [str(k), repr(q.value), repr(q.log_value)]:
                wrong.append(f"profile row at F_{n} {row} != Q_{n}")
            wrong += env.check_product(k, q)
        with mpmath.workdps(30):
            omega = (mpmath.sqrt(5) - 1) / 2
            acc = mpmath.mpf(0)
            for line in text[: 100 * ORACLE_ROWS].split("\n")[1 : ORACLE_ROWS + 1]:
                k, _p, log_p = line.split(",")
                acc += mpmath.log(abs(2 * mpmath.sin(mpmath.pi * int(k) * omega)))
                if abs(float(log_p) - acc) > 1e-12:
                    wrong.append(f"profile logP at k={k} off mpmath")
                    break
        return wrong

    def _check_cotprofile(self, text: str) -> list[str]:
        import mpmath

        env = self.env
        wrong = []
        if not text.startswith("k,partial\n") or text.count("\n") != env.fib(COTPROFILE_M):
            wrong.append("cotprofile CSV header or row count")
        sign = -1 if COTPROFILE_M % 2 else 1
        with mpmath.workdps(30):
            omega = (mpmath.sqrt(5) - 1) / 2
            acc = mpmath.mpf(0)
            for line in text[: 100 * ORACLE_ROWS].split("\n")[1 : ORACLE_ROWS + 1]:
                k, partial = line.split(",")
                acc += sign * mpmath.cot(mpmath.pi * int(k) * omega)
                if abs(float(partial) - acc) > 1e-10 * max(1.0, abs(float(acc))):
                    wrong.append(f"cotprofile partial at k={k} off mpmath")
                    break
        return wrong

    def final_checks(self) -> list[str]:
        """The same CSV must come out byte-identical with two workers."""
        wrong = []
        for label, argv in (
            ("profile", ("profile", str(PROFILE_N), "--stride", "1", "--workers", "2")),
            ("cotprofile", ("cotprofile", str(COTPROFILE_M), "--workers", "2")),
        ):
            text = self._cli(*argv)()
            if sha256(text) != self.digests.get(label):
                wrong.append(f"{label} CSV differs between workers 1 and 2")
        return wrong


class VerifyFull(Workload):
    name = "verify-full"

    def __init__(self, env: Env, seed: int) -> None:
        super().__init__(env, seed)
        self.verify_seed = self.rng.randrange(1 << 31)

    def ops(self):
        # One operation per check, in suite order: the same checks as one
        # run_checks(level="full") call, timed one by one.
        vf, seed = self.env.vf, self.verify_seed
        return [
            (name, lambda name=name: vf.run_checks(level="full", seed=seed, workers=1, only={name}))
            for name in vf.CHECK_NAMES
        ]

    def warm_up(self) -> None:
        self.env.vf.run_checks(level="quick", seed=self.verify_seed, only={"omega-constants"})

    def check(self, label, results):
        if [r.name for r in results] != [label]:
            return 1, 1, [f"verify ran {[r.name for r in results]} for {label}"]
        red = not results[0].passed
        if red != (label in EXPECTED_RED):
            return 1, 1, [f"{label} is {'red' if red else 'green'}; expected the opposite"]
        return 1, int(red), []


WORKLOADS = {w.name: w for w in (QLadder, DecomposeLadder, ProfileStream, VerifyFull)}


def certify(work: Workload, to_miter: Callable[[float], float]) -> tuple[dict[str, float], list[str]]:
    """The accuracy metrics every workload reports.

    max_level is the highest rung whose Q_n comes back inside the error
    budget, matches the reference (above the table, its extrapolation; see
    Env.expected_log_q) and costs at most LEVEL_CAP_MITER.  The probe starts
    at n = 30 and climbs until a refusal, a wrong value or the cap; it
    walks down instead if n = 30 itself fails.  ``to_miter`` converts the
    seconds of a rung the probe times itself into reference-loop Miter;
    rungs the timed passes already ran (n <= 32) cost half the cap or less.
    q30_log_err_bound is the program's bound at n = 30 and
    decomp_rel_residual the largest |Q - ABC|/Q of the run, always
    including n = 30.
    """
    env = work.env
    wrong: list[str] = []
    cost: dict[int, float] = {}  # Miter of the rungs the probe timed

    def q(n: int):
        if n not in work.q_seen:
            t = time.perf_counter()
            try:
                value = env.pr.Q_n(n, env.ctx)
            except env.exhausted as exc:
                value = Refused(str(exc))
            cost[n] = to_miter(time.perf_counter() - t)
            work.q_seen[n] = value
        return work.q_seen[n]

    def rung_ok(n: int) -> bool:
        value = q(n)
        if isinstance(value, Refused) or cost.get(n, 0.0) > LEVEL_CAP_MITER:
            return False
        bad = env.check_level(n, value)
        wrong.extend(bad)
        return not bad

    def affordable(n: int) -> bool:
        """Whether rung n is projected to stay within the cap."""
        return n in work.q_seen or cost.get(n - 1, 0.0) * env.fib(n) / env.fib(n - 1) <= LEVEL_CAP_MITER

    n = 30
    if rung_ok(n):
        while affordable(n + 1) and rung_ok(n + 1):
            n += 1
    else:
        while n > 1 and not rung_ok(n - 1):
            n -= 1
        n -= 1
    max_level = n
    q30 = q(30)
    if 30 not in work.decomps:
        try:
            work.decomps[30] = env.pr.decompose(30, env.ctx)
            wrong += check_decomposition(env, 30, work.decomps[30])
        except env.exhausted as exc:
            wrong.append(f"decompose(30) refused: {exc}")
    metrics = {
        "max_level": max_level,
        # a refusal means the bound is above the budget; report the budget
        "q30_log_err_bound": env.pr.ERR_BUDGET if isinstance(q30, Refused) else q30.err,
        "decomp_rel_residual": max(
            [abs(d.rel_residual) for d in work.decomps.values()], default=RESIDUAL_GATE
        ),
    }
    return metrics, wrong
