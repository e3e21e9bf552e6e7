"""One pass of a workload in a fresh interpreter: a closed loop, one client.

Runs the seeded job list through ``k3lat.cli.main(argv)`` (stdout
captured) and the public library calls, times each job, checks each
output, and prints one JSON line with per-job results, the process's peak
RSS and, when traced, the per-layer metrics. Started by ``run.py``; needs
the repository's ``src`` on ``PYTHONPATH``.

    python3 perfbench/worker.py --workload qexp-sweep --seed 1 [--trace] [--spans FILE]
"""

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import oracles
import spans
import speed
import workloads

JOB_LIMIT_S = 30.0  # a job running longer fails; the heaviest takes ~5 s
GOLDENS = Path(__file__).resolve().parent / "goldens.json"


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM; a BaseException so the program cannot catch it."""


def _alarm(signum, frame):
    raise JobTimeout()


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


def execute(job, recorder=None):
    """Run one job. Returns (seconds, outcome, error); outcome is (rc, stdout)
    for a CLI job and the return value for a library call."""
    from k3lat import audit, cli, geography, lattice
    out, err = io.StringIO(), io.StringIO()
    outcome, error = None, None
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    t0 = time.perf_counter()
    try:
        if recorder is not None:
            recorder.on = True
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job[0] == "cli":
                try:
                    rc = cli.main(list(job[1:]))
                except SystemExit as exc:
                    rc = exc.code
                outcome = (rc, out.getvalue())
            elif job[1] == "find_isogeny_glue":
                expr, a_t, d_t = job[2:]
                outcome = geography.find_isogeny_glue(lattice.parse_lattice(expr), a_t, d_t)
            elif job[1] == "lift_consistency":
                outcome = audit.lift_consistency(job[2])
            else:
                raise ValueError(f"unknown library call {job[1]!r}")
    except JobTimeout:
        error = f"over the {JOB_LIMIT_S:g} s job limit"
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        error = f"raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if recorder is not None:
            recorder.on = False
    return elapsed, outcome, error


def run_pass(jobs, checker, recorder=None):
    """Run ``jobs`` in order; returns one record per job: its wall time
    ``s`` and that time at the reference speed, ``ref_s`` (``speed.py``)."""
    records = []
    for i, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = i
        before = speed.calibrate()
        elapsed, outcome, error = execute(job, recorder)
        after = speed.calibrate()
        if error is None:
            error = checker.check(job, outcome)
        nbytes = len(outcome[1].encode()) if job[0] == "cli" and outcome else 0
        if recorder is not None:
            recorder.counts["cli.bytes_out"] += nbytes
        records.append({"job": workloads.job_key(job), "s": elapsed,
                        "ref_s": speed.at_reference(elapsed, before, after),
                        "bytes": nbytes, "error": error})
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="where the traced pass writes its spans")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    import numpy
    import k3lat.cli  # noqa: F401  (imported before timing, as every CLI call pays it)
    jobs = workloads.job_list(args.workload, args.seed)
    checker = oracles.Checker(load_goldens())
    recorder = spans.Recorder().install() if args.trace else None
    speed.calibrate()  # warm-up
    records = run_pass(jobs, checker, recorder)
    result = {
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        recorder.uninstall()
        result["layers"] = recorder.metrics()
        if args.spans:
            recorder.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
