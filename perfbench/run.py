"""The sudler benchmark: one workload, one closed-loop run, checked outputs.

    python3 perfbench/run.py --workload q-ladder --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from ``src/``.
It times set-up in fresh interpreters, then issues the workload's
operations one after another (one caller, ``workers=1``) in passes until
``--seconds`` have gone by, and checks every output.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a table for people.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Its time
metric, wall_ref, is the mean pass time in millions of iterations of a
fixed reference loop run between the operations: on a shared machine
whose speed drifts, the ratio stays put where seconds do not.  The table
also shows the pass times in seconds.
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics, and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9  # fresh interpreters timed per run for setup_s
# setup_s is scaled to this reference-loop speed, about that of the machine
# the benchmark was built on, so that it keeps its meaning in seconds.
NOMINAL_REF_NS = 700.0
SETUP_REF_ITERS = 100_000  # reference-loop iterations before and after a set-up probe
W2_RUNG = 29  # q-ladder rung timed at workers 1 and 2
CAL_SHARE = 0.3  # reference-loop time per second of operations
CAL_MIN_ITERS = 20_000
KERNEL_TERMS = 1 << 20
KERNEL_PRECISIONS = (64, 192, 512)

sys.path.insert(0, str(HERE))
from tracer import LAYERS, Tracer, diff, metric_layer  # noqa: E402
from workloads import WORKLOADS, Env, Refused, Verdict, certify  # noqa: E402

ACCURACY_UNITS = {"max_level": "level", "q30_log_err_bound": "log-err", "decomp_rel_residual": "ratio"}

# Operation counts of each kernel's per-term loop, read off the code
# (labelled "computed" in the metric names): P-bit integer adds, where
# the fold subtraction runs on half the terms of an equidistributed orbit,
# and calls to math transcendentals.
COMPUTED = {
    "engine.log2sin_block": {"bigint_adds_per_term": 1.5, "transc_per_term": 2},  # sin, log
    "engine.cot_block": {"bigint_adds_per_term": 1.5, "transc_per_term": 2},  # cos, sin
    # sin, cos, cos, sin, log1p; residues t F_{n-1} mod F_n are word-sized
    "products.B_n": {"bigint_adds_per_term": 0, "transc_per_term": 5},
}


def load_program() -> Env:
    if not (SRC / "sudler" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sudler'} not found; run from a sudler checkout")
    sys.path.insert(0, str(SRC))
    env = Env.load(HERE / "reference.json")
    if Path(env.sudler.__file__).resolve().parent != SRC / "sudler":
        sys.exit(f"error: imported sudler from {env.sudler.__file__}, not {SRC}")
    return env


def setup_probe(workload: str) -> None:
    """Child mode: time import + make_ctx(192) + warm-up in this fresh
    process, between two chunks of the reference loop; print the seconds
    and the reference loop's ns per iteration."""
    ref = reference_loop(SETUP_REF_ITERS)
    t0 = time.perf_counter()
    env = load_program()
    WORKLOADS[workload](env, 0).warm_up()
    seconds = time.perf_counter() - t0
    ref += reference_loop(SETUP_REF_ITERS)
    print(seconds, ref * 1e9 / (2 * SETUP_REF_ITERS))


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters, raw and scaled to NOMINAL_REF_NS.

    Like wall_ref, the scaled figure cancels the machine's drift in speed,
    which moved raw set-up medians by 30% between sets of runs half an hour
    apart.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        seconds, ref_ns = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * NOMINAL_REF_NS / ref_ns)
    return raw, scaled


def reference_loop(iters: int) -> float:
    """Seconds for ``iters`` steps of a fixed copy of the orbit kernel's
    per-term work (P-bit add, fold, float, sin, log, Neumaier sum).

    Its speed is the unit of wall_ref: keep this loop exactly as it is.
    """
    one = 1 << 192
    mask, half, scale = one - 1, one >> 1, 2.0**-192
    step = (math.isqrt(5 << 384) - one) >> 1  # omega = (sqrt(5) - 1)/2 in 192 bits
    sin, log, pi = math.sin, math.log, math.pi
    a, s, c = 12345, 0.0, 0.0
    t = time.perf_counter()
    for _ in range(iters):
        a = (a + step) & mask
        x = float(a if a <= half else one - a) * scale
        sn = sin(pi * x)
        term = log(sn + sn)
        t2 = s + term
        c += (s - t2) + term if abs(s) >= abs(term) else (term - t2) + s
        s = t2
    return time.perf_counter() - t


class Calibration:
    """Reference-loop samples interleaved with the operations of a run.

    The machine's speed drifts (shared cores), so after every operation a
    chunk of the reference loop runs, lasting about CAL_SHARE of that
    operation; the ratio of operation time to reference time cancels the
    drift that both see.  The ratio is taken over all passes of a run: per
    pass, the chunks are too short to average out the speed's second-scale
    jitter.
    """

    def __init__(self) -> None:
        self.ns_per_iter = reference_loop(CAL_MIN_ITERS) * 1e9 / CAL_MIN_ITERS
        self.seconds = 0.0
        self.iters = 0

    def after(self, op_seconds: float) -> None:
        iters = max(CAL_MIN_ITERS, int(CAL_SHARE * op_seconds * 1e9 / self.ns_per_iter))
        self.seconds += reference_loop(iters)
        self.iters += iters

    def take(self) -> float:
        """Seconds per reference iteration since the last take()."""
        per_iter = self.seconds / self.iters
        self.seconds, self.iters = 0.0, 0
        return per_iter


def run_pass(work, env: Env, tracer: Tracer | None, cal: Calibration | None) -> tuple[float, list]:
    """Issue every operation once, in order; return (wall, outcomes), where
    wall is the time spent inside the operations."""
    outcomes = []
    root = tracer.intern("bench.op") if tracer else None
    if tracer:
        tracer.enabled = True
    for label, op in work.ops():
        frame = tracer.open(root) if tracer else None
        t = time.perf_counter()
        try:
            value = op()
        except (env.exhausted, Refused) as exc:
            value = exc if isinstance(exc, Refused) else Refused(str(exc))
        except Exception as exc:  # a crash is a wrong output, not an abort
            value = exc
        seconds = time.perf_counter() - t
        if tracer:
            tracer.close(frame)
        if cal:
            cal.after(seconds)
        outcomes.append((label, value, seconds))
    if tracer:
        tracer.enabled = False
    return sum(s for _l, _v, s in outcomes), outcomes


def judge(work, outcomes, verdict: Verdict, op_times: dict) -> None:
    for label, value, seconds in outcomes:
        op_times.setdefault(label, []).append(seconds)
        if isinstance(value, Exception) and not isinstance(value, Refused):
            verdict.add(1, 1, [f"{label} raised {type(value).__name__}: {value}"])
            continue
        verdict.add(*work.check(label, value))


def hooks(env: Env) -> dict:
    """Counter hooks keyed by span name (see Tracer.wrap)."""

    def count(key, amount):
        return None, lambda tr, a, kw, res, exc, state: tr.count(key, amount(a))

    def exhausted(tr, a, kw, res, exc, state):
        tr.count("products.log_abs_sin_product.exhausted", isinstance(exc, env.exhausted))

    def memo_before(a, kw):
        memo = a[2] if len(a) > 2 else kw.get("memo")
        return memo, len(memo) if memo is not None else 0

    def memo_after(tr, a, kw, res, exc, state):
        if res is None:
            return
        memo, before = state
        requested = len(res[0])
        misses = len(memo) - before if memo is not None else requested
        tr.count("bounds.split.requested", requested)
        tr.count("bounds.split.hits", requested - misses)

    def sink_before(a, kw):
        return a[3].tell() if isinstance(a[3], io.StringIO) else None

    def sink_after(tr, a, kw, res, exc, state):
        if state is not None:
            tr.count("cli._emit_csv.bytes", a[3].tell() - state)

    def c_terms(n):
        fn = env.fib(n)
        return (fn - 1) // 2 + (fn % 2 == 0)

    return {
        "engine.log2sin_block": count("engine.log2sin_block.terms", lambda a: a[3]),
        "engine.cot_block": count("engine.cot_block.terms", lambda a: a[3]),
        "engine.map_blocks": count("engine.map_blocks.jobs", lambda a: len(a[1])),
        "products.B_n": count("products.B_n.terms", lambda a: env.fib(a[0]) - 1),
        "products.C_n": count("products.C_n.terms", lambda a: c_terms(a[0])),
        "goldenangle.gen_prod": count(
            "goldenangle.gen_prod.terms", lambda a: max(0, int(a[2]) - int(a[1]) + 1)
        ),
        "products.log_abs_sin_product": (None, exhausted),
        "bounds._split_log": (memo_before, memo_after),
        "cli._emit_csv": (sink_before, sink_after),
    }


def kernel_rates(env: Env) -> dict[str, float]:
    """ns/term of log2sin_block over a fixed 2^20-term span at three
    precisions, and the q-ladder rung's speed-up from two workers."""
    from sudler import _engine

    out = {}
    for P in KERNEL_PRECISIONS:
        w = env.sudler.make_ctx(P).omega.mantissa
        t = time.perf_counter()
        _engine.log2sin_block(0, w, P, KERNEL_TERMS, (KERNEL_TERMS + 1) * 2.0**-P)
        out[f"engine.log2sin_block.ns_per_term.P{P}"] = (time.perf_counter() - t) * 1e9 / KERNEL_TERMS
    walls = {1: [], 2: []}
    for _ in range(2):
        for workers in (1, 2):
            t = time.perf_counter()
            env.pr.Q_n(W2_RUNG, env.ctx, workers=workers)
            walls[workers].append(time.perf_counter() - t)
    out["engine.map_blocks.w2_speedup"] = statistics.median(walls[1]) / statistics.median(walls[2])
    return out


def layer_metrics(per: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced pass's totals."""
    busy, calls, selfs, cnt = per["busy_s"], per["calls"], per["self_s"], per["counters"]
    m: dict[str, tuple[float, str]] = {}

    def ns_per(span, terms):
        return busy.get(span, 0.0) * 1e9 / terms if terms else 0.0

    for kernel in ("engine.log2sin_block", "engine.cot_block"):
        terms = cnt.get(f"{kernel}.terms", 0)
        m[f"{kernel}.terms"] = (terms, "count")
        m[f"{kernel}.busy_s"] = (busy.get(kernel, 0.0), "s")
        m[f"{kernel}.ns_per_term"] = (ns_per(kernel, terms), "ns")
    for kernel, ops in COMPUTED.items():
        for key, value in ops.items():
            m[f"{kernel}.computed.{key}"] = (value, "1/term")
    for P in KERNEL_PRECISIONS:
        key = f"engine.log2sin_block.ns_per_term.P{P}"
        m[key] = (extra[key], "ns")
    m["engine.merge_partials.calls"] = (calls.get("engine.merge_partials", 0), "count")
    m["engine.merge_partials.busy_s"] = (busy.get("engine.merge_partials", 0.0), "s")
    m["engine.map_blocks.jobs"] = (cnt.get("engine.map_blocks.jobs", 0), "count")
    m["engine.map_blocks.busy_s"] = (busy.get("engine.map_blocks", 0.0), "s")
    # time inside map_blocks not spent in the block functions it ran
    m["engine.map_blocks.wait_s"] = (selfs.get("engine.map_blocks", 0.0), "s")
    m["engine.map_blocks.w2_speedup"] = (extra["engine.map_blocks.w2_speedup"], "ratio")
    for f in ("Q_n", "A_n", "B_n", "C_n"):
        m[f"products.{f}.busy_s"] = (busy.get(f"products.{f}", 0.0), "s")
    for f in ("B_n", "C_n"):
        m[f"products.{f}.terms"] = (cnt.get(f"products.{f}.terms", 0), "count")
        m[f"products.{f}.ns_per_term"] = (ns_per(f"products.{f}", cnt.get(f"products.{f}.terms", 0)), "ns")
    m["products._log_prefix_iter.rows"] = (cnt.get("products._log_prefix_iter.rows", 0), "count")
    m["products._log_prefix_iter.self_s"] = (selfs.get("products._log_prefix_iter", 0.0), "s")
    m["products.log_abs_sin_product.exhausted"] = (
        cnt.get("products.log_abs_sin_product.exhausted", 0),
        "count",
    )
    m["goldenangle.make_ctx.busy_s"] = (extra["goldenangle.make_ctx.busy_s"], "s")
    m["goldenangle.gen_prod.terms"] = (cnt.get("goldenangle.gen_prod.terms", 0), "count")
    m["goldenangle.gen_prod.busy_s"] = (busy.get("goldenangle.gen_prod", 0.0), "s")
    for f in ("cot_sum", "cot_profile", "identity_suite", "sum_series", "discrepancy_scan"):
        m[f"birkhoff.{f}.busy_s"] = (busy.get(f"birkhoff.{f}", 0.0), "s")
    for f in ("_split_log", "power_law_scan"):
        m[f"bounds.{f}.busy_s"] = (busy.get(f"bounds.{f}", 0.0), "s")
    requested = cnt.get("bounds.split.requested", 0)
    m["bounds.split.memo_hit_ratio"] = (
        cnt.get("bounds.split.hits", 0) / requested if requested else 0.0,
        "ratio",
    )
    m["fibcore.zeckendorf.calls"] = (calls.get("fibcore.zeckendorf", 0), "count")
    m["fibcore.zeckendorf.busy_s"] = (busy.get("fibcore.zeckendorf", 0.0), "s")
    for name in extra["check_names"]:
        m[f"verify.{name}.busy_s"] = (busy.get(f"verify.{name}", 0.0), "s")
    m["cli._emit_csv.bytes"] = (cnt.get("cli._emit_csv.bytes", 0), "count")
    m["cli._emit_csv.self_s"] = (selfs.get("cli._emit_csv", 0.0), "s")
    layer_self = {metric_layer(layer): 0.0 for layer in LAYERS} | {"bench": 0.0}
    for span, s in selfs.items():
        layer_self[span.split(".")[0]] += s
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = (s, "s")
    m["trace.self_sum_s"] = (sum(layer_self.values()), "s")
    m["trace.spans"] = (per["spans"], "count")
    m["trace.traced_wall_s"] = (extra["traced_wall_s"], "s")
    m["trace.untraced_wall_s"] = (extra["untraced_wall_s"], "s")
    m["trace.overhead_s"] = (extra["traced_wall_s"] - extra["untraced_wall_s"], "s")
    return m


def describe(samples: list[float]) -> tuple[float, str, int]:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(samples)
    med = statistics.median(samples)
    if n < 11:
        return med, "-", n
    # the (n-10)-th smallest sample has exactly ten samples above it
    return med, f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.6g}", n


def print_table(title: str, rows: list[tuple[str, str, list[float]]]) -> None:
    print(title)
    print(f"  {'metric':44s} {'unit':8s} {'median':>14s}  {'high pct':18s} {'n':>5s}")
    for name, unit, samples in rows:
        med, hi, n = describe(samples)
        print(f"  {name:44s} {unit:8s} {med:14.6g}  {hi:18s} {n:5d}")


def instrument(env: Env) -> tuple[Tracer, dict]:
    """Install the tracer and time the traced set-up call of make_ctx."""
    tracer = Tracer()
    modules = {m: importlib.import_module(m) for m in ["sudler"] + [f"sudler.{l}" for l in LAYERS]}
    tracer.instrument(modules, hooks(env))
    tracer.enabled = True
    modules["sudler.goldenangle"].make_ctx(192)
    tracer.enabled = False
    extra = {
        "goldenangle.make_ctx.busy_s": tracer.snapshot()["busy_s"]["goldenangle.make_ctx"],
        "check_names": list(env.vf.CHECK_NAMES),
    }
    return tracer, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    env = load_program()  # also compiles the package before any probe is timed
    setup_raw, setup_times = ([], []) if args.trace else measure_setup(args.workload)
    work = WORKLOADS[args.workload](env, args.seed)
    work.warm_up()
    tracer, extra = instrument(env) if args.trace else (None, {})
    after_setup = tracer.snapshot() if tracer else None

    # Closed loop; a traced run follows every untraced pass with a traced one.
    verdict = Verdict()
    op_times: dict[str, list[float]] = {}
    walls: list[float] = []
    traced_walls: list[float] = []
    cal = None if tracer else Calibration()
    t_run = time.perf_counter()
    while not walls or time.perf_counter() - t_run < args.seconds:
        wall, outcomes = run_pass(work, env, None, cal)
        walls.append(wall)
        judge(work, outcomes, verdict, op_times)
        del outcomes  # a pass's outputs (8 MB of CSV on profile-stream) must not outlive it
        if tracer:
            wall, outcomes = run_pass(work, env, tracer, None)
            traced_walls.append(wall)
            judge(work, outcomes, verdict, {})
            del outcomes
    # the workload's own high-water mark, before the untimed checks below
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_per_iter = cal.take() if cal else None
    verdict.wrong += work.final_checks()

    if tracer:
        tracer.restore()
        extra |= kernel_rates(env)
        # means, like the per-pass span totals, so the self times add up
        extra["traced_wall_s"] = statistics.fmean(traced_walls)
        extra["untraced_wall_s"] = statistics.fmean(walls)
        n = len(traced_walls)
        per = {
            k: v / n if k == "spans" else {name: x / n for name, x in v.items()}
            for k, v in diff(tracer.snapshot(), after_setup).items()
        }
        metrics = layer_metrics(per, extra)
        spans = tracer.write(HERE / "out" / f"spans-{args.workload}.tsv.gz")
        print(f"wrote {spans} spans to perfbench/out/spans-{args.workload}.tsv.gz")
        rows = [(k, u, [v]) for k, (v, u) in metrics.items()]
    else:

        def to_miter(seconds: float) -> float:
            cal.after(seconds)
            return seconds / cal.take() * 1e-6

        accuracy, wrong = certify(work, to_miter)
        verdict.wrong += wrong
        failed_share = verdict.failed / verdict.attempted
        gated = [
            ("setup_s", "s", setup_times),
            ("wall_ref", "Miter", [statistics.fmean(walls) / ref_per_iter * 1e-6]),
            ("peak_rss_mb", "MB", [peak]),
            ("ok_ops_ratio", "ratio", [1.0 - failed_share]),
        ] + [(k, ACCURACY_UNITS[k], [v]) for k, v in accuracy.items()]
        metrics = {k: (statistics.median(v), u) for k, u, v in gated}
        rows = gated + [
            ("setup_raw_s", "s", setup_raw),
            ("wall_s", "s", walls),
            ("reference_ns_per_iter", "ns", [ref_per_iter * 1e9]),
            ("failed_ops_ratio", "ratio", [failed_share]),
        ]
    print_table(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={len(walls)} "
        f"ops={verdict.attempted} failed(by design or wrong)={verdict.failed}",
        rows,
    )
    if not args.trace:
        print_table("per operation", [(k, "s", v) for k, v in op_times.items()])
    for msg in verdict.wrong:
        print(f"WRONG: {msg}")
    result = {
        "correct": not verdict.wrong,
        "attempted": verdict.attempted,
        "failed": verdict.wrong_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
