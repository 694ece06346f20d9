"""The benchmark's correctness guards, run in-process at seed 1.

Each workload of perfbench/workloads.py is set up, run once and checked as
perfbench/run.py does in its worker, with the null tracer.  The guards
cover the R6, F6 and K record digests, the exact counts, the ladder's slope
windows and the long-time reference states, so a change that would fail
the benchmark fails this test first.  perfbench/ is only put on sys.path.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from tracer import NullTracer  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_guard_of_the_workload_passes(name):
    wl, tr = workloads.WORKLOADS[name], NullTracer()
    ctx = wl.setup(1, tr)
    guards = wl.check(ctx, wl.run(ctx, tr)).items
    assert guards
    assert [g for g in guards if not g["ok"]] == []
