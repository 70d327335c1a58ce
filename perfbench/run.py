"""Run one benchmark workload (or all of them) and report its metrics.

    python3 perfbench/run.py --workload rrl_queries --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Every workload runs in fresh interpreters (``child.py``), started one at
a time from the repository root with ``src`` on ``PYTHONPATH``. Work
interpreters are started until at least ``--seconds`` of timed region
have been measured (and at least a workload's minimum). Set-up is
measured in every interpreter, including extra set-up-only ones for the
workloads whose set-up is cheap, and reported as the median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once under the span tracer and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report with the host record. ``correct``
says every output was checked (or counted as unchecked, when no reference
can settle it); operations that raised, failed a check or missed their ε
guarantee are counted in ``failed``. The exit code is non-zero, with no
JSON line, when the program cannot be found or an interpreter fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("solves_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
              ("peak_rss_mb", "MB"))

#: ``(set-up-only interpreters, minimum work interpreters)``. Timed
#: regions vary by 5–10% from one interpreter to the next on a 2-CPU
#: host, so every workload takes the median of two; two rrl_queries
#: clients also give ten samples beyond p95, and measure its 5–7 s set-up.
PLAN = {"paper_grid": (1, 2), "rrl_queries": (0, 2),
        "service_batch": (1, 2)}

#: Every interpreter must finish inside this share of the 180 s budget.
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spawn(workload: str, seed: int, client: int, mode: str,
          deadline: float) -> dict:
    """Run one interpreter; returns its record plus ``setup_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             str(client), mode],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} {mode} interpreter timed out") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} {mode} interpreter exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - started
    return record


def host_record(versions: dict) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "cpu_count": os.cpu_count(), **versions,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset (default)"),
            "thread_speedup": ("overhead-only (1 CPU)" if nproc == 1
                               else "measurable")}


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setup_only, min_work = PLAN[workload]
    setups = []
    work = []
    if trace:
        work.append(spawn(workload, seed, 0, "work", deadline))
        traced = spawn(workload, seed, 1, "traced", deadline)
    else:
        traced = None
        for client in range(setup_only):
            setups.append(spawn(workload, seed, client, "setup", deadline))
        client = setup_only
        while (len(work) < min_work
               or sum(r["wall_s"] for r in work) < seconds):
            work.append(spawn(workload, seed, client, "work", deadline))
            client += 1
    runs = work + ([traced] if traced else [])
    tallies = [r["tally"] for r in runs]
    result = {
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "unchecked": sum(t["unchecked"] for t in tallies),
        "notes": sorted({n for t in tallies for n in t["notes"]}),
        "host": host_record(runs[0]["versions"]),
    }
    if traced is not None:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - work[0]["wall_s"]
        result["metrics"] = {name: (metrics[name], unit)
                             for name, unit in tracing.PER_LAYER}
        result["self_s"] = traced["self_s"]
        return result
    latencies_ms = [1e3 * x for r in work for x in r["latencies_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + work),
        "wall_s": statistics.median(r["wall_s"] for r in work),
        "solves_per_s": (sum(r["solves"] for r in work)
                         / sum(r["wall_s"] for r in work)),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in work),
    }
    result["metrics"] = {name: (values[name], unit)
                         for name, unit in END_TO_END}
    result["samples"] = len(latencies_ms)
    return result


def report(workload: str, result: dict) -> list[str]:
    lines = [f"== {workload}", "host: " + json.dumps(result["host"])]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:40s} {value:14.6g} {unit}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    lines.append(f"  {'failed_frac':40s} {failed_frac:14.6g} 1 "
                 f"({result['failed']} of {result['attempted']} operations;"
                 f" {result['unchecked']} unchecked)")
    if "samples" in result:
        lines.append(f"  latency samples: {result['samples']}")
    for thread, table in result.get("self_s", {}).items():
        lines.append(f"  self time by layer, {thread} thread(s): "
                     f"{sum(table.values()):.4f} s in total")
        for name, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:38s} {seconds:12.4f} s")
    lines += [f"  failed: {note}" for note in result["notes"][:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(report(name, results[name])), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{name}.{metric}": {"value": value, "unit": unit}
                   for name, r in results.items()
                   for metric, (value, unit) in r["metrics"].items()}
    else:
        metrics = {metric: {"value": value, "unit": unit}
                   for metric, (value, unit)
                   in results[args.workload]["metrics"].items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
