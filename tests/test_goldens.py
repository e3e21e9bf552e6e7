"""Every job the benchmark can draw, run in process through its worker and
checked against perfbench/goldens.json by its checker: a changed output
byte fails here, not only as the benchmark's outputs_incorrect."""

import signal

import pytest

from helpers import perfbench

workloads, worker, oracles = (perfbench(name) for name in ("workloads", "worker", "oracles"))


@pytest.fixture(scope="module")
def checker():
    # worker.execute times each job with SIGALRM; its handler turns that into
    # a failed job, as perfbench/tests/conftest.py installs it
    before = signal.signal(signal.SIGALRM, worker._alarm)
    yield oracles.Checker(worker.load_goldens())
    signal.signal(signal.SIGALRM, before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_universe_matches_the_goldens(checker, workload):
    jobs = workloads.universe(workload)
    failures = []
    for job in jobs:
        _, outcome, error = worker.execute(job)
        problem = error or checker.check(job, outcome)
        if problem:
            failures.append((job, problem))
    assert jobs and failures == []
