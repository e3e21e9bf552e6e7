"""Tests of the benchmark itself: oracles, job lists and the span recorder.

    python3 -m pytest perfbench/tests -q
"""

import hashlib

import pytest

import oracles
import spans
import speed
import workloads
import worker


@pytest.fixture(scope="module")
def goldens():
    return worker.load_goldens()


@pytest.fixture(scope="module")
def checker(goldens):
    return oracles.Checker(goldens)


def _run(job):
    _, outcome, error = worker.execute(job)
    assert error is None
    return outcome


def _change_one_digit(text, line_no):
    lines = text.split("\n")
    line = lines[line_no]
    i = max(i for i, ch in enumerate(line) if ch.isdigit())
    lines[line_no] = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    return "\n".join(lines)


CORRUPTIONS = [
    (workloads.cli("qexp", "psi", 3, "--prec", 32), 1),  # the q^0 coefficient
    (workloads.cli("qexp", "eta", "1^-24", "--prec", 32), 3),
    (workloads.cli("qexp", "theta", "shifted", "--prec", 32), 2),
    (workloads.cli("geo", "list", "--count"), 0),
    (workloads.cli("lat", "info", "U(2) + M7"), 4),
    (workloads.cli("weil", "check", "M3"), 0),
    (workloads.cli("vec", "short", "<-2>^8", "--bound", "6"), -2),
    (workloads.cli("audit", "kodaira", "--triplet", "17", "5", "1"), 0),
]


@pytest.mark.parametrize("job,line_no", CORRUPTIONS)
def test_oracles_reject_one_changed_digit(checker, goldens, job, line_no):
    rc, text = _run(job)
    assert checker.check(job, (rc, text)) is None
    bad = _change_one_digit(text, line_no)
    assert bad != text
    assert checker.check(job, (rc, bad)) is not None
    # the independent facts catch it too, with the golden digest out of the way
    key = workloads.job_key(job)
    blind = oracles.Checker({key: dict(goldens[key],
                                       sha256=hashlib.sha256(bad.encode()).hexdigest())})
    assert blind.check(job, (rc, bad)) is not None


def test_oracle_rejects_wrong_exit_code(checker):
    job = workloads.cli("weil", "check", "U(2)")
    rc, text = _run(job)
    assert checker.check(job, (2, text)) is not None


def test_glue_oracle_rejects_a_miss(checker):
    job = workloads.lib("find_isogeny_glue", "U(2) + U(2)", 2, 0)
    assert checker.check(job, _run(job)) is None
    assert checker.check(job, None) is not None


def test_job_lists_are_seeded_and_covered(goldens):
    for name in workloads.WORKLOADS:
        first = workloads.job_list(name, 7)
        assert first == workloads.job_list(name, 7)
        assert workloads.list_hash(first) != workloads.list_hash(workloads.job_list(name, 8))
        for seed in range(1, 6):
            jobs = workloads.job_list(name, seed)
            assert len(jobs) == len(first)
            assert all(workloads.job_key(job) in goldens for job in jobs)
    for seed in range(1, 6):
        jobs = workloads.job_list(workloads.LATTICE_AUDIT, seed)
        assert jobs[-1] == workloads.LATTICE_AUDIT_LAST
        assert jobs.count(workloads.LATTICE_AUDIT_LAST) == 1


def test_reference_time_scales_by_the_block():
    # a job as long as three blocks counts as three reference blocks
    block = 0.004
    assert speed.at_reference(3 * block, block, block) == pytest.approx(3 * speed.REF_BLOCK_S)
    assert speed.at_reference(3 * block, block / 2, 3 * block / 2) == pytest.approx(
        3 * speed.REF_BLOCK_S)
    records = worker.run_pass(TINY[:1], oracles.Checker(worker.load_goldens()))
    assert records[0]["ref_s"] > 0


def test_job_over_the_limit_fails(monkeypatch):
    monkeypatch.setattr(worker, "JOB_LIMIT_S", 0.001)
    _, outcome, error = worker.execute(workloads.cli("qexp", "psi", 7, "--prec", 80))
    assert outcome is None and "job limit" in error


TINY = [
    workloads.cli("qexp", "psi", 2, "--prec", 32),
    workloads.cli("weil", "check", "U(2) + <2>"),
    workloads.cli("lat", "info", "M6", "--json"),
    workloads.cli("vec", "short", "<-2>^8", "--bound", "6"),
    workloads.cli("audit", "kodaira", "--triplet", "13", "9", "1"),
    workloads.lib("find_isogeny_glue", "E8(2)", 6, 0),
    workloads.lib("lift_consistency", 5),
]


def test_self_times_sum_to_traced_wall(checker):
    recorder = spans.Recorder().install()
    try:
        records = worker.run_pass(TINY, checker, recorder)
    finally:
        recorder.uninstall()
    assert all(r["error"] is None for r in records)
    metrics = recorder.metrics()
    wall = sum(r["s"] for r in records)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    # the part of a job outside its root span is the recorder's own set-up
    assert 0 <= wall - self_total <= 0.02 * wall + 0.002 * len(TINY)
    for layer in spans.LAYERS:
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["finiteform.subgroups_yielded"] > 0
    assert metrics["geography.glue_hits"] == 1
    assert metrics["qseries.mul_calls"] > 0 and metrics["weil.s_builds"] > 0
    # children lie inside their parents, and every job has a root span
    roots = set()
    for _, start, end, parent, job, _ in recorder.spans:
        assert start <= end
        if parent < 0:
            roots.add(job)
        else:
            p = recorder.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == job
    assert roots == set(range(len(TINY)))


def test_uninstall_restores_every_binding():
    import k3lat.cli
    import k3lat.qseries
    originals = (k3lat.cli.psi_m, k3lat.qseries.psi_m, k3lat.qseries.FracSeries.__mul__)
    recorder = spans.Recorder().install()
    assert k3lat.cli.psi_m is not originals[0]
    assert k3lat.cli.psi_m is k3lat.qseries.psi_m  # one wrapper for both bindings
    recorder.uninstall()
    assert (k3lat.cli.psi_m, k3lat.qseries.psi_m,
            k3lat.qseries.FracSeries.__mul__) == originals
