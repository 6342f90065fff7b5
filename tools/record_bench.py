"""Record the benchmark into ``BENCH_<n>.json`` at the repository root.

Runs ``python3 benchmarks/run.py`` unchanged, one process per (workload,
seed, trace), and keeps the last JSON line of each run:

    python3 tools/record_bench.py --pr <n> --seeds 1 2 3 4 5 6

It runs every workload in ``BENCHMARK.json``.  For each workload the
file holds the median and quartiles of each end-to-end metric over the
seeds, every run's ``correct``, ``attempted`` and ``failed`` (a run that
crashed is recorded with ``correct`` false and its exit code, never
dropped) and the per-layer metrics of one traced run on the first seed.  The environment (git revision, thread count, numpy
and BLAS versions) comes from ``git`` and from the ``#`` lines run.py
prints.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT = re.compile(r"^# (\S+) seed (\d+) trace (\d): threads (\d+), numpy (\S+), BLAS (.+)$")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (run record, parsed environment)."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    environment = {}
    for line in lines:
        match = ENVIRONMENT.match(line)
        if match:
            environment = {"threads": int(match[4]), "numpy": match[5], "blas": match[6]}
    record = {"seed": seed, "trace": trace, "exit_code": proc.returncode}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record.update(correct=False, attempted=None, failed=None, metrics={}, error=proc.stderr.strip()[-2000:])
        return record, environment
    record.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
    )
    return record, environment


def summarize(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def record(pr: int, seeds: list[int]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT, capture_output=True, text=True).stdout)
    environments = []
    runs = {w: [] for w in workloads}
    for seed in seeds:  # workloads interleave, so drift spreads over all of them
        for workload in workloads:
            run, environment = run_once(workload, seed, 0)
            runs[workload].append(run)
            environments.append(environment)
            print(f"{workload} seed {seed}: correct {run['correct']}, failed {run['failed']}", file=sys.stderr)
    out = {"pr": pr, "git_rev": rev, "src_modified": dirty, "workloads": {}}
    for workload in workloads:
        traced, environment = run_once(workload, seeds[0], 1)
        environments.append(environment)
        print(f"{workload} traced: correct {traced['correct']}", file=sys.stderr)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs[workload] if metric["name"] in r["metrics"]]
            end_to_end[metric["name"]] = dict(summarize(values), unit=metric["unit"]) if values else None
        out["workloads"][workload] = {
            "seeds": seeds,
            "end_to_end": end_to_end,
            "runs": runs[workload],
            "traced_run": {key: traced[key] for key in ("seed", "exit_code", "correct", "attempted", "failed")},
            "per_layer": {
                metric["name"]: {"value": traced["metrics"].get(metric["name"]), "unit": metric["unit"]}
                for metric in spec["per_layer"]
            },
        }
    out.update(next((e for e in environments if e), {}))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number n in BENCH_<n>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    result = record(args.pr, args.seeds)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
