"""tools/record_bench.py with the benchmark process stubbed out: no benchmark runs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENVIRONMENT_LINE = "# paper_train seed 2 trace 0: threads 2, numpy 2.4.6, BLAS openblas 0.3.31"


def test_run_without_json_line_is_a_failed_record(monkeypatch):
    def crashed(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, stdout=ENVIRONMENT_LINE + "\n", stderr="Traceback\nMemoryError\n")

    monkeypatch.setattr(record_bench.subprocess, "run", crashed)
    run, environment = record_bench.run_once("paper_train", 2, 0)
    assert run["correct"] is False and run["exit_code"] == 1 and run["metrics"] == {}
    assert run["error"].endswith("MemoryError")
    assert environment == {"threads": 2, "numpy": "2.4.6", "blas": "openblas 0.3.31"}


def test_failed_run_kept_and_medians_from_the_other_seeds(monkeypatch, tmp_path):
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    calls = []

    def run_once(workload, seed, trace):
        calls.append((workload, seed, trace))
        run = {"seed": seed, "trace": trace}
        if seed == 2 and not trace:  # exits 1 and prints no JSON line
            run.update(exit_code=1, correct=False, attempted=None, failed=None, metrics={}, error="MemoryError")
        else:
            run.update(exit_code=0, correct=True, attempted=3, failed=0, metrics={n: 10.0 * seed for n in names})
        return run, {"threads": 2, "numpy": "2.4.6", "blas": "openblas"}

    monkeypatch.setattr(record_bench, "run_once", run_once)
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    assert record_bench.main(["--pr", "7", "--seeds", "1", "2", "3", "5"]) == 0
    written = json.loads((tmp_path / "BENCH_7.json").read_text())

    workloads = [w["name"] for w in SPEC["workloads"]]
    assert sorted(written["workloads"]) == sorted(workloads)
    assert len(calls) == 4 * len(workloads) + len(workloads)
    for workload in workloads:
        entry = written["workloads"][workload]
        assert [r["seed"] for r in entry["runs"]] == [1, 2, 3, 5]
        failed = entry["runs"][1]
        assert failed["correct"] is False and failed["exit_code"] == 1 and failed["failed"] is None
        for metric in SPEC["end_to_end"]:
            summary = entry["end_to_end"][metric["name"]]
            assert summary["n"] == 3 and summary["median"] == 30.0  # seeds 1, 3 and 5
            assert (summary["q1"], summary["q3"]) == (20.0, 40.0) and summary["unit"] == metric["unit"]
        assert sorted(entry["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        assert sorted(entry["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
        assert entry["traced_run"]["seed"] == 1 and entry["per_layer"]["trace.op_s"]["value"] == 10.0
