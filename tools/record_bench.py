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

With ``--base <rev>`` the recorder also extracts ``<rev>`` with ``git
archive`` into a temporary directory, copies the checkout's tracked files
as they are on disk into another, and runs each (workload, seed) once in
each of the two copies, alternating from seed to seed which goes first;
the traced runs use the checkout's copy too.  Both sides then run from a
fresh directory outside the checkout, so they differ in their files
alone, not in where they sit.  Each
of these runs also records the child's minor page faults (``minflt``) and
CPU seconds (``cpu_s``, both cores) from ``getrusage(RUSAGE_CHILDREN)``.
The base runs go into each workload's ``base_runs``, and a ``compare``
section holds, per workload and metric, both medians and quartiles, the
median paired difference in %, the pairs the change won and the
two-sided Wilcoxon signed-rank p of ``fcxs.stats``:

    python3 tools/record_bench.py --pr <n> --seeds 1 2 3 4 5 6 7 8 9 10 --base HEAD~1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from fcxs.stats import wilcoxon_signed_rank  # noqa: E402

ENVIRONMENT = re.compile(r"^# (\S+) seed (\d+) trace (\d): threads (\d+), numpy (\S+), BLAS (.+)$")


def run_once(workload: str, seed: int, trace: int, tree: Path = None) -> tuple[dict, dict]:
    """One benchmark process in ``tree`` (default: this checkout); returns (run record, parsed environment)."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=tree or ROOT, capture_output=True, text=True)
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


def run_measured(workload: str, seed: int, tree: Path) -> tuple[dict, dict]:
    """An untraced run plus the child's minor faults and CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run, environment = run_once(workload, seed, 0, tree)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run["minflt"] = after.ru_minflt - before.ru_minflt
    run["cpu_s"] = round(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime, 3)
    return run, environment


@contextlib.contextmanager
def extracted(rev: str):
    """``git archive`` of ``rev`` unpacked into a temporary directory, removed afterwards."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tempfile.TemporaryDirectory(prefix="fcxs-base-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


@contextlib.contextmanager
def copied_checkout():
    """The checkout's tracked files, as they are on disk, copied into a temporary directory, removed afterwards."""
    listing = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="fcxs-change-") as tmp:
        for name in filter(None, listing.decode().split("\0")):
            if (ROOT / name).is_file():  # a tracked file deleted on disk is left out
                (Path(tmp) / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, Path(tmp) / name)
        yield Path(tmp)


def summarize(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(base_runs: list[dict], runs: list[dict], name: str, unit: str, better: str) -> dict:
    """Paired statistics of one metric over the seeds where both trees produced a result."""
    pairs = [
        (b["metrics"].get(name, b.get(name)), c["metrics"].get(name, c.get(name)))
        for b, c in zip(base_runs, runs)
        if b["metrics"] and c["metrics"]
    ]
    pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
    if not pairs:
        return None
    base, change = [b for b, _ in pairs], [c for _, c in pairs]
    diffs = [100.0 * (c - b) / b for b, c in pairs if b]
    return {
        "unit": unit,
        "base": summarize(base),
        "change": summarize(change),
        "median_diff_pct": statistics.median(diffs) if diffs else None,
        "pairs": len(pairs),
        "change_won": sum(c < b if better == "lower" else c > b for b, c in pairs),
        "wilcoxon_p": wilcoxon_signed_rank(change, base),
    }


def record(pr: int, seeds: list[int], base: str = None) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT, capture_output=True, text=True).stdout)
    environments = []
    runs = {w: [] for w in workloads}
    base_runs = {w: [] for w in workloads}
    with contextlib.ExitStack() as stack:
        base_tree = stack.enter_context(extracted(base)) if base else None
        change_tree = stack.enter_context(copied_checkout()) if base else None  # None: the checkout
        for index, seed in enumerate(seeds):  # workloads interleave, so drift spreads over all of them
            for workload in workloads:
                if base_tree is None:
                    run, environment = run_once(workload, seed, 0)
                    runs[workload].append(run)
                    environments.append(environment)
                    print(f"{workload} seed {seed}: correct {run['correct']}, failed {run['failed']}", file=sys.stderr)
                    continue
                trees = [("base", base_tree, base_runs), ("change", change_tree, runs)]
                for position, (label, tree, into) in enumerate(trees if index % 2 == 0 else trees[::-1]):
                    run, environment = run_measured(workload, seed, tree)
                    run["ran_first"] = position == 0
                    into[workload].append(run)
                    environments.append(environment)
                    print(f"{workload} seed {seed} {label}: correct {run['correct']}, failed {run['failed']}", file=sys.stderr)
        traced_runs = {}
        for workload in workloads:
            traced_runs[workload], environment = run_once(workload, seeds[0], 1, change_tree)
            environments.append(environment)
            print(f"{workload} traced: correct {traced_runs[workload]['correct']}", file=sys.stderr)
    out = {"pr": pr, "git_rev": rev, "src_modified": dirty, "workloads": {}}
    for workload in workloads:
        traced = traced_runs[workload]
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
    if base:
        metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
        metrics += [("minflt", "count", "lower"), ("cpu_s", "s", "lower")]
        for workload in workloads:
            out["workloads"][workload]["base_runs"] = base_runs[workload]
        out["compare"] = {
            "base_rev": subprocess.run(["git", "rev-parse", base], cwd=ROOT, capture_output=True, text=True).stdout.strip(),
            "workloads": {
                w: {name: compare(base_runs[w], runs[w], name, unit, better) for name, unit, better in metrics}
                for w in workloads
            },
        }
    out.update(next((e for e in environments if e), {}))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number n in BENCH_<n>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--base", help="git revision to run against, in alternating pairs")
    args = parser.parse_args(argv)
    result = record(args.pr, args.seeds, args.base)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
