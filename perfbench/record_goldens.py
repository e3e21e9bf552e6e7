"""Record the golden output of every job any seed can draw.

Run from the repository root at the commit whose outputs are the
reference (the goldens in this directory come from the commit that added
the benchmark):

    PYTHONPATH=src python3 perfbench/record_goldens.py

Each CLI job stores its exit code and the sha256 of its stdout; each
library call stores the sha256 of a canonical description of its result.
The new goldens are then checked against the independent facts in
``oracles.py``, and the script fails if any job does not pass them.
"""

import hashlib
import json
import signal
import sys

import oracles
import workloads
from worker import GOLDENS, _alarm, execute


def record():
    goldens = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.universe(workload):
            _, outcome, error = execute(job)
            if error is not None:
                raise SystemExit(f"{workloads.job_key(job)}: {error}")
            if job[0] == "cli":
                rc, text = outcome
                goldens[workloads.job_key(job)] = {
                    "rc": rc, "bytes": len(text.encode()),
                    "sha256": hashlib.sha256(text.encode()).hexdigest()}
            else:
                goldens[workloads.job_key(job)] = {
                    "describe": oracles.describe(job, outcome)}
            print(workloads.job_key(job), file=sys.stderr)
    return goldens


def main():
    signal.signal(signal.SIGALRM, _alarm)
    goldens = record()
    checker = oracles.Checker(goldens)
    bad = 0
    for workload in workloads.WORKLOADS:
        for job in workloads.universe(workload):
            _, outcome, _ = execute(job)
            reason = checker.check(job, outcome)
            if reason is not None:
                bad += 1
                print(f"FAIL {workloads.job_key(job)}: {reason}", file=sys.stderr)
    if bad:
        raise SystemExit(f"{bad} jobs fail their oracle; goldens not written")
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}")


if __name__ == "__main__":
    main()
