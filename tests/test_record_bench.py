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

    def run_once(workload, seed, trace, tree=None):
        assert tree is None  # without --base every run uses the checkout
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
    assert "compare" not in written and all("base_runs" not in entry for entry in written["workloads"].values())


def _repo_with_base(tmp_path):
    """A git repository holding BENCHMARK.json and ``side.txt``, so ``--base HEAD``
    can be extracted.  ``side.txt`` reads "base" at HEAD and "change" on disk."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "side.txt").write_text("base")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for command in (["init", "-q"], ["add", "BENCHMARK.json", "side.txt"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + command, cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "side.txt").write_text("change")
    (tmp_path / "untracked.txt").write_text("left out")
    return tmp_path


def _paired_record(monkeypatch, tmp_path, seeds, value):
    """Run ``main --base HEAD`` with run_once stubbed; ``value(tree, workload, seed)`` gives
    every metric of that run, or None for a run that printed no JSON line."""
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    calls, trees = [], {"base": set(), "change": set()}

    def run_once(workload, seed, trace, tree=None):
        assert tree is not None and tree.resolve() != tmp_path.resolve()  # never the checkout itself
        assert (tree / "BENCHMARK.json").exists() and not (tree / "untracked.txt").exists()
        label = (tree / "side.txt").read_text()
        trees[label].add(tree)
        calls.append((workload, seed, trace, label))
        run = {"seed": seed, "trace": trace}
        metric = 1.0 if trace else value(label, workload, seed)
        if metric is None:
            run.update(exit_code=1, correct=False, attempted=None, failed=None, metrics={}, error="MemoryError")
        else:
            run.update(exit_code=0, correct=True, attempted=3, failed=0, metrics={n: metric for n in names})
        return run, {"threads": 2, "numpy": "2.4.6", "blas": "openblas"}

    monkeypatch.setattr(record_bench, "run_once", run_once)
    monkeypatch.setattr(record_bench, "ROOT", _repo_with_base(tmp_path))
    assert record_bench.main(["--pr", "9", "--seeds", *map(str, seeds), "--base", "HEAD"]) == 0
    for side in trees.values():  # one copy per side, removed afterwards
        assert len(side) == 1 and not next(iter(side)).exists()
    # the two sides run from paths of the same length, as memory use depends on it
    assert len(str(*trees["base"])) == len(str(*trees["change"]))
    return calls, json.loads((tmp_path / "BENCH_9.json").read_text())


def test_paired_runs_alternate_which_tree_goes_first(monkeypatch, tmp_path):
    calls, written = _paired_record(monkeypatch, tmp_path, [4, 5, 6], lambda tree, workload, seed: 2.0)
    workloads = [w["name"] for w in SPEC["workloads"]]
    expected = []
    for index, seed in enumerate([4, 5, 6]):
        order = ["base", "change"] if index % 2 == 0 else ["change", "base"]
        expected += [(w, seed, 0, label) for w in workloads for label in order]
    expected += [(w, 4, 1, "change") for w in workloads]  # one traced run per workload, on the change
    assert calls == expected
    for workload in workloads:
        entry = written["workloads"][workload]
        assert [r["ran_first"] for r in entry["base_runs"]] == [True, False, True]
        assert [r["ran_first"] for r in entry["runs"]] == [False, True, False]
        assert all(isinstance(r["minflt"], int) and r["cpu_s"] >= 0 for r in entry["runs"] + entry["base_runs"])
    assert written["compare"]["base_rev"] == subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True
    ).stdout.strip()


def test_failed_base_run_is_kept_and_left_out_of_the_pairs(monkeypatch, tmp_path):
    def value(tree, workload, seed):
        if tree == "base" and seed == 2:
            return None
        return 10.0 * seed + (0.0 if tree == "base" else -1.0)

    _, written = _paired_record(monkeypatch, tmp_path, [1, 2, 3, 5], value)
    for workload, entry in written["workloads"].items():
        assert [r["seed"] for r in entry["base_runs"]] == [1, 2, 3, 5]
        failed = entry["base_runs"][1]
        assert failed["correct"] is False and failed["exit_code"] == 1 and failed["metrics"] == {}
        for metric in SPEC["end_to_end"]:
            row = written["compare"]["workloads"][workload][metric["name"]]
            assert row["pairs"] == 3 and row["change_won"] == 3 and row["unit"] == metric["unit"]
            assert row["base"]["median"] == 30.0 and row["change"]["median"] == 29.0  # seeds 1, 3 and 5
            assert row["median_diff_pct"] == -100.0 / 30.0


def test_paired_p_value_is_the_wilcoxon_of_fcxs_stats(monkeypatch, tmp_path):
    from fcxs.stats import wilcoxon_signed_rank

    seeds = [11, 12, 13, 14, 15, 16, 17]
    shift = {11: -0.4, 12: -0.1, 13: 0.2, 14: -0.7, 15: -0.3, 16: 0.05, 17: -0.9}

    def value(tree, workload, seed):
        return seed + (shift[seed] if tree == "change" else 0.0)

    _, written = _paired_record(monkeypatch, tmp_path, seeds, value)
    base = [float(s) for s in seeds]
    change = [s + shift[s] for s in seeds]
    expected = wilcoxon_signed_rank(change, base)
    assert 0.0 < expected < 1.0
    for workload in written["workloads"]:
        for metric in SPEC["end_to_end"]:
            row = written["compare"]["workloads"][workload][metric["name"]]
            assert row["wilcoxon_p"] == expected and row["pairs"] == 7
            better = metric["better"] == "lower"
            assert row["change_won"] == sum((shift[s] < 0) == better for s in seeds)


def test_median_gap_is_weighed_against_the_base_interquartile_spread(monkeypatch, tmp_path):
    # base values 10 ... 50: quartiles 20 and 40, so the spread is 20
    shift = {"paper_train": -25.0, "paper_infer": -15.0, "desk_cli": 20.0}

    def value(tree, workload, seed):
        return 10.0 * seed + (shift[workload] if tree == "change" else 0.0)

    _, written = _paired_record(monkeypatch, tmp_path, [1, 2, 3, 4, 5], value)
    for workload, rows in written["compare"]["workloads"].items():
        for metric in SPEC["end_to_end"]:
            row = rows[metric["name"]]
            assert row["base_iqr"] == 20.0
            assert row["change"]["median"] - row["base"]["median"] == shift[workload]
            # only a gap larger than the spread counts, in either direction; 20 is not larger
            assert row["median_gap_exceeds_base_iqr"] is (workload == "paper_train"), workload
