"""Measure the run-to-run spread of every end-to-end metric and write
``perfbench/spread.json`` (the evidence behind the bounds in
``BENCHMARK.json``).

    python3 perfbench/spread.py --runs 10 [--workload rrl_queries ...]

Each workload runs ``--runs`` times with seeds 1, 2, …, exactly as the
benchmark command runs it. The spread of a metric is the distance between
the first and third quartiles of its values (``statistics.quantiles``,
``n=4``) as a share of their median; it should stay under a third of the
metric's bound. A set measured earlier stays in the file as
``previous_medians``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    host = next(line for line in lines if line.startswith("host: "))
    return {"result": json.loads(lines[-1]),
            "host": json.loads(host[len("host: "):])}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    path = HERE / "spread.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(1, args.runs + 1)]
        entry = {"host": runs[0]["host"], "seeds": args.runs,
                 "failed": [r["result"]["failed"] for r in runs],
                 "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][metric["name"]] = {
                "median": median, "spread": spread,
                "bound": metric["bound"],
                "within_third_of_bound": spread < metric["bound"] / 3,
                "values": values}
            print(f"{workload:14s} {metric['name']:16s} median {median:12.5g}"
                  f"  spread {spread:7.2%}  bound {metric['bound']:.0%}",
                  flush=True)
        if workload in out:
            # The previous set's medians: two sets of the same code must
            # agree within each metric's bound.
            entry["previous_medians"] = {
                name: m["median"]
                for name, m in out[workload]["metrics"].items()}
        out[workload] = entry
        path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
