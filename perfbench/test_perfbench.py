"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q      # about three minutes on 2 CPUs

They check that the exact counts repeat across two runs and across two
seeds, that every guard passes on a second seed, that the result line has
the format BENCHMARK.json describes, and that a directory without the
sources fails.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

SPEC = run.load_spec()
COUNTS = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}


def traced_child(workload: str, seed: int) -> dict:
    run.OUT.mkdir(exist_ok=True)
    rec = run.run_child(workload, seed, True, time.monotonic() + run.TIME_LIMIT_S)
    failed = [g for g in rec["guards"] if not g["ok"]]
    assert not failed, failed
    return rec


def exact_counts(rec: dict) -> dict:
    layer = {k: v for k, v in rec["layer_metrics"].items() if k in COUNTS}
    return {**rec["counts"], **layer}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_runs_and_seeds(workload):
    first, again, other_seed = (traced_child(workload, s) for s in (1, 1, 2))
    assert exact_counts(first) == exact_counts(again) == exact_counts(other_seed)


def result_line(args: list[str], cwd=run.ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_format(trace):
    code, out = result_line(["--workload", "longtime", "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)])
    assert code == 0
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in line["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = result_line(["--workload", "exact", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in out
