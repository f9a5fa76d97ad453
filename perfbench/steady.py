"""Steadiness check: is the benchmark repeatable on this machine?

    python3 perfbench/steady.py [--out perfbench/out/steady.json]

Runs ``perfbench/run.py`` RUNS times on every workload of BENCHMARK.json,
each time with another seed, and repeats that SETS times with fresh seeds.
For every end-to-end metric and workload it prints each set's median and
quartiles, the quartile spread as a share of the median, and whether

  * the spread is within the metric's bound in BENCHMARK.json, and
  * the set's median differs from the first set's, either way, by at most
    the bound.

The spread of setup_s is reported but not held to its bound: a set-up
probe lasts a fifth of a second, too short to average out the machine's
jitter, so one run's median of a few probes scatters by up to a quarter
(SETUP_SPREAD_EXEMPT).  Its median must still agree between the sets.

The report, with the machine it ran on, goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload in a set, each with its own seed
SETS = 2
SETUP_SPREAD_EXEMPT = "setup_s"


def machine() -> dict:
    """The facts a number from this machine needs next to it."""
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": "",
        "l2": "",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for cpu in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*")):
        idx = cpu / "cache" / "index2"
        try:
            caches[(idx / "shared_cpu_list").read_text().strip()] = (idx / "size").read_text().strip()
        except OSError:
            continue
    if caches:
        sizes = sorted(set(caches.values()))
        facts["l2"] = " + ".join(f"{list(caches.values()).count(s)}x{s}" for s in sizes)
    return facts


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=HERE / "out" / "steady.json")
    args = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values: dict = {}  # set -> workload -> metric -> [values]
    correct = True
    elapsed = []
    seed = 1
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                correct &= res["correct"]
                elapsed.append(res["elapsed_s"])
                per = values.setdefault(s, {}).setdefault(w, {})
                for name, m in res["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
                print(f"set {s + 1} seed {seed} {w}: wall_ref {res['metrics']['wall_ref']['value']:.4f}"
                      f" in {res['elapsed_s']:.1f}s correct={res['correct']}", flush=True)
            seed += 1

    report = {"machine": machine(), "seconds": bench["run_seconds"], "runs": RUNS,
              "max_run_elapsed_s": max(elapsed), "mean_run_elapsed_s": statistics.mean(elapsed),
              "correct": correct, "metrics": {}}
    ok = correct
    print(f"\nmachine: {report['machine']}")
    print(f"{'workload':17s} {'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        for name, spec in bounds.items():
            sets = [summary(values[s][w][name]) for s in range(SETS)]
            bound = spec["bound"]
            base = sets[0]["median"]
            for i, st in enumerate(sets):
                change = (st["median"] - base) / base if base else 0.0
                spread_ok = name == SETUP_SPREAD_EXEMPT or st["spread"] <= bound
                st["spread_ok"] = spread_ok
                st["steady"] = st["spread"] < bound / 3
                st["agrees_with_first"] = abs(change) <= bound
                ok &= spread_ok and st["agrees_with_first"]
                verdict = ("ok" if spread_ok and st["agrees_with_first"] else "FAIL") + (
                    "" if st["steady"] else " (spread above bound/3)")
                print(f"{w:17s} {name:20s} {i + 1:3d} {st['median']:12.6g} {st['q1']:12.6g}"
                      f" {st['q3']:12.6g} {st['spread']:7.4f} {bound:6.3f}  {verdict}")
            report["metrics"].setdefault(w, {})[name] = sets
    report["agree"] = ok
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nlongest run {max(elapsed):.1f}s, mean {statistics.mean(elapsed):.1f}s; all outputs correct: {correct}; "
          f"steady within bounds: {ok}; report in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
