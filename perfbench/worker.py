"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload exact --seed 1 --trace 0

run.py starts this with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread variables set to 1.  The last stdout line is a JSON record:
setup_s (imports plus one-time construction) and wall_s (the pass),
host-corrected (see host_probe and the workload's CORRECT_WALL), their raw
values, peak RSS, the guards and the exact counts; a traced repetition adds
the span summary of the pass and the per-layer metrics of the workload.
"""

import time
from fractions import Fraction
from statistics import median

# host_probe() on a quiet host: 2-CPU x86-64 virtual machine, Python 3.11
PROBE_REF_S = 0.025


def host_probe() -> float:
    """Seconds a fixed pure-Python Fraction kernel takes now, median of three.

    On a host shared with other jobs, interpreter-bound code runs up to 1.6x
    slower for stretches of seconds to minutes, which no timer of this
    process can tell from a slower program.  The kernel never changes, so
    its time tracks the host alone.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 4000):
            acc += Fraction(i, i + 1) * Fraction(1, 3 * i)
        times.append(time.perf_counter() - t0)
    return median(times)


PROBE0 = host_probe()
T0 = time.perf_counter()
CPU0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=str, default=None)
    args = parser.parse_args()

    import numpy as np

    import workloads
    from tracer import NullTracer, Tracer

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(workloads.flows.__file__).resolve().parent.parent != src:
        print(f"dnls_nflab imported from {workloads.flows.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tr = Tracer() if args.trace else NullTracer()
    if args.trace:
        tr.install(workloads.MODULES)
    ctx = wl.setup(args.seed, tr)
    setup_s = time.perf_counter() - T0
    setup_cpu_s = time.process_time() - CPU0
    probe1 = host_probe()

    cpu = time.process_time()
    start = time.perf_counter_ns()
    out = wl.run(ctx, tr)
    end = time.perf_counter_ns()
    cpu_s = time.process_time() - cpu
    probe2 = host_probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = (end - start) * 1e-9

    guards = wl.check(ctx, out).items
    record = {
        "workload": args.workload,
        "seed": args.seed,
        # a corrected time is scaled by the quiet-host probe time over the
        # mean of the probes taken just before and after it
        "setup_s": setup_s * PROBE_REF_S / ((PROBE0 + probe1) / 2),
        "wall_s": wall_s * PROBE_REF_S / ((probe1 + probe2) / 2) if wl.CORRECT_WALL else wall_s,
        "setup_raw_s": setup_s,
        "wall_raw_s": wall_s,
        "host_slowdown": [p / PROBE_REF_S for p in (PROBE0, probe1, probe2)],
        "setup_cpu_s": setup_cpu_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "guards": guards,
        "counts": wl.counts(out),
        "numpy": np.__version__,
    }
    if args.trace:
        window = (start, end)
        record["trace"] = tr.summary(window)
        record["layer_metrics"] = wl.layer_metrics(ctx, out, tr, window)
        if args.spans_out:
            tr.dump(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
