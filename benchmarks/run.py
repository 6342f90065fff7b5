"""The fcxs benchmark.

One workload, from the repository root:

    python3 benchmarks/run.py --workload paper_train --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps fcxs's public functions and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

All workloads, untraced and traced, each in its own process, with the
tracing overhead:

    python3 benchmarks/run.py --all --seed 1

The BLAS thread count is fixed before numpy loads: at most 2, and at
most the CPUs this process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"threads {THREADS}, numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def run_workload(spec: dict, name: str, seed: int, seconds: float, traced: bool) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    work_dir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.WORKLOADS[name](seed, seconds, traced, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = result["layers"] if traced else result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        differing = sorted({m["name"] for m in declared} ^ set(values))
        raise SystemExit(f"benchmark error: metrics differ from BENCHMARK.json: {differing}")

    print(f"# {name} seed {seed} trace {int(traced)}: {environment()}")
    for line in result["checks"]:
        print(f"# check {line}")
    for m in declared:
        print(f"# {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a child process."""
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            results.append(json.loads(lines[-1]))
            status |= 0 if results[-1]["correct"] else 1
        plain, traced = (r["metrics"] for r in results)
        for metric in ("op_s", "setup_s"):
            base, with_trace = plain[metric]["value"], traced[f"trace.{metric}"]["value"]
            print(
                f"# {name} {metric}: untraced {base:.4g} s, traced {with_trace:.4g} s, "
                f"tracing overhead {100.0 * (with_trace / base - 1.0):+.1f}%"
            )
        print()
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "fcxs" / "__init__.py").is_file():
        print(f"benchmark error: no fcxs sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.all:
        return run_all(spec, args.seed, seconds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
