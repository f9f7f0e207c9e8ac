"""Self-test of the benchmark: a tiny run of every workload, untraced and
traced, and a corrupted cover that must count as a failure."""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (puts src/ on sys.path and sizes the BLAS pool)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    for m in spec:
        assert any(line == f"metric {m['name']} {last['metrics'][m['name']]['value']:.6g} "
                   f"{m['unit']}" for line in lines)
    assert any(line.startswith("env ") and "blas_threads" in line for line in lines)


def _drop_last_set(doc):
    k = len(doc["sets"]) - 1
    out = dict(doc, sets=doc["sets"][:k])
    if doc.get("families") is not None:
        out["families"] = [[si for si in fam if si != k] for fam in doc["families"]]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dropped_set_drives_fail_ratio_above_zero(workload):
    result = run.measure(workload, 3, 0, False, size="tiny", mutate=_drop_last_set)
    assert result["failed"] > 0
    assert result["info"]["fail_ratio"] > 0
    assert result["correct"] is False


def test_recount_matches_a_hand_count():
    from checks import cover_problems, recount
    assert recount(4, [[0, 1], [1, 2], [1, 2], []]) == ([3], 2)
    doc = {"sets": [[0, 1], [2, 3]], "families": [[0, 1]]}
    assert cover_problems(doc, 4, 1, n_families=1, reported={"sets": 2}) == []
    assert cover_problems(doc, 5, 1) == ["1 points uncovered, first 4"]
    doc["sets"][1] = [1, 2, 3]
    assert cover_problems(doc, 4, 1) == ["multiplicity 2 exceeds 1",
                                         "family 0 has overlapping sets"]
