"""dnls-nflab benchmark harness.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh single process (perfbench/worker.py) with the BLAS/OpenMP thread
variables set to 1, so no module cache carries work from one repetition into
the next.  ``--trace 0`` repeats the workload until ``--seconds`` is used up
(at least MIN_REPS times) and reports the medians of the end-to-end metrics.
``--trace 1`` runs the workload once untraced, then every workload once
traced, and reports the per-layer metrics (each taken from the workload that
exercises that layer), the span coverage of the traced pass and the tracing
overhead.  ``--workload all`` runs the four workloads in turn.

Output: a table of the metrics with their units and sample counts, an
environment stamp, and as the last line one JSON object with the keys
correct, attempted, failed and metrics.  A full record, spans included, goes
to .bench_out/.  The exit code is 0 only if every correctness guard passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact", "ladder", "longtime", "audits")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_REPS = 2
TIME_LIMIT_S = 170  # the whole command must end within 180 s


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans-out", str(OUT / f"spans_{workload}_seed{seed}.json")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {workload}")
    before = loadavg()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["loadavg"] = [before, loadavg()]
    return record


def guard_totals(records: list[dict]) -> tuple[int, list[dict]]:
    guards = [g for r in records for g in r["guards"]]
    return len(guards), [g for g in guards if not g["ok"]]


def untraced(workload: str, seed: int, seconds: int, deadline: float, units: dict) -> tuple[dict, list]:
    """Repeat the workload for about ``seconds``; medians of the repetitions."""
    start = time.monotonic()
    records: list[dict] = []
    while True:
        records.append(run_child(workload, seed, False, deadline))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(records)
        if len(records) >= MIN_REPS and elapsed + per_rep > seconds:
            break
        if time.monotonic() + 1.5 * per_rep > deadline:
            break
    samples = {k: [r[k] for r in records] for k in ("setup_s", "wall_s", "peak_rss_mb")}
    if workload == "longtime":
        steps = records[0]["counts"]["member_steps"]
        samples["member_steps_per_s"] = [steps / r["wall_s"] for r in records]
    metrics = {k: median(v) for k, v in samples.items()}
    n = len(records)
    print(f"== {workload}: {n} repetitions, each in a fresh process")
    for name, values in samples.items():
        print(f"  {name:<20} {metrics[name]:>14.6g} {units[name]:<5} median of {n}, "
              f"min {min(values):.6g} max {max(values):.6g}")
    for name in ("setup_raw_s", "wall_raw_s"):
        values = [r[name] for r in records]
        print(f"  {name:<20} {median(values):>14.6g} {'s':<5} median of {n}, "
              f"min {min(values):.6g} max {max(values):.6g}, uncorrected")
    slow = [x for r in records for x in r["host_slowdown"]]
    print(f"  {'host_slowdown':<20} {median(slow):>14.6g} {'1':<5} median of {len(slow)} probes, "
          f"min {min(slow):.6g} max {max(slow):.6g}")
    attempted, failed = guard_totals(records)
    print(f"  {'failed_frac':<20} {len(failed) / attempted:>14.6g} {'1':<5} {len(failed)} of {attempted} guards failed")
    print(f"  counts {json.dumps(records[0]['counts'])}")
    return metrics, records


def traced(workloads: tuple[str, ...], seed: int, deadline: float, units: dict) -> tuple[dict, list]:
    """Each requested workload once untraced, then every workload once traced;
    per-layer metrics come from the workload that exercises the layer."""
    bases = {w: run_child(w, seed, False, deadline) for w in workloads}
    order = workloads + tuple(w for w in WORKLOADS if w not in workloads)
    runs = {w: run_child(w, seed, True, deadline) for w in order}
    layer = {}
    for rec in runs.values():
        layer.update(rec["layer_metrics"])
    results = {}
    for w in workloads:
        own, base = runs[w], bases[w]
        summ = own["trace"]
        metrics = dict(layer)
        metrics["trace.coverage"] = summ["covered_s"] / own["wall_raw_s"]
        metrics["trace.overhead_s"] = own["wall_s"] - base["wall_s"]
        results[w] = metrics
        print(f"== {w} traced: {summ['spans']} spans in the pass")
        print(f"  uncorrected: untraced wall {base['wall_raw_s']:.6g} s, traced wall {own['wall_raw_s']:.6g} s, "
              f"spans cover {summ['covered_s']:.6g} s ({summ['covered_s'] / base['wall_raw_s']:.4g} of untraced)")
        print("  self time by layer (s): " + ", ".join(f"{k} {v:.4g}" for k, v in summ["self_s_by_layer"].items()))
        for name, value in metrics.items():
            print(f"  {name:<38} {value:>14.6g} {units[name]}")
    return results, list(bases.values()) + list(runs.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dnls_nflab" / "__init__.py").is_file():
        print(f"no dnls_nflab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: "1" for v in THREAD_VARS},
        "git_describe": git_describe(),
        "loadavg_before": loadavg(),
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.trace:
            results, records = traced(workloads, args.seed, deadline, units)
        else:
            results, records = {}, []
            for w in workloads:
                results[w], recs = untraced(w, args.seed, args.seconds, deadline, units)
                records += recs
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = loadavg()
    env["numpy"] = records[0]["numpy"]
    print("env " + json.dumps(env, sort_keys=True))

    attempted, failed = guard_totals(records)
    for g in failed:
        print(f"FAILED guard: {g['name']} {g['detail']}")
    if args.trace:
        print(f"failed_frac {len(failed) / attempted:.6g} ({len(failed)} of {attempted} guards failed)")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for w, values in results.items():
        for m in wanted:
            key = m["name"] if len(results) == 1 else f"{w}.{m['name']}"
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    line = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"BENCH_{tag}.json", "w") as fh:
        json.dump({"env": env, "result": line, "metrics": results, "records": records}, fh, indent=1)
    print(json.dumps(line))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
