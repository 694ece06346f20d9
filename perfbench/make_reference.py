"""Regenerate perfbench/reference.json, the stored outputs the guards check.

    PYTHONPATH=src python3 perfbench/make_reference.py

It holds the SHA-256 digests of the exact R6, F6 and K records of the
``exact`` workload and the final states of the ``longtime`` reference run.
Regenerate only when a change is meant to alter those outputs, and say so.
"""

import json

import workloads

if __name__ == "__main__":
    ref = {
        "exact": workloads.WORKLOADS["exact"].reference(),
        "longtime": workloads.WORKLOADS["longtime"].reference(),
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
