"""The k3lat benchmark: three seeded job streams, end to end and per layer.

    python3 perfbench/run.py --workload qexp-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root. Each pass runs the workload's seeded job
list in a fresh interpreter (``worker.py``), one client in a closed loop;
passes repeat until ``--seconds`` of wall time have gone, so memo tables
never carry over from one pass to the next. Every job's output is checked
(``oracles.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing ``k3lat.cli`` and building its parser),
``jobs_per_s``, ``job_p50_ms``, ``job_tail_ms``, ``peak_rss_mb`` and, on the
report lines, ``fail_ratio``. Times are taken at a reference speed, so that
the shared host's own speed swings (1.5-1.8x within seconds to minutes on a
2-vCPU VM) cancel out: each job is bracketed by a fixed calibration block in
the same process and its wall time scaled by the block's (``speed.py``);
each set-up sample is divided by the import time of k3lat's dependencies
in a fresh interpreter started just before it (``DEPS_CODE``); import time
does not follow the block's. The report lines give the plain wall-clock
figures beside them. Every interpreter the benchmark starts runs with one
OpenBLAS thread (see ``child_env``). ``--trace 1`` alternates untraced and
traced passes of the same job list and reports the per-layer metrics of
the traced passes (``spans.py``), averaged per pass, with
``trace.overhead_ratio``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A run record (and, when
traced, the spans) is written under ``perfbench/runs/``.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import LAYERS, UNWRAPPED_NOTE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_PER_PASS = 4  # set-up samples taken before each pass, spread over the run
SETUP_MIN = 9
RUN_LIMIT_S = 170  # a run must end within 180 s

SETUP_CODE = ("import time\n"
              "t = time.perf_counter()\n"
              "import k3lat.cli\n"
              "k3lat.cli.build_parser()\n"
              "print(time.perf_counter() - t)\n")
# What k3lat.cli imports from outside k3lat. A fresh interpreter importing
# these is the yardstick for setup_s: the host's speed at importing swings
# 1.5x within a minute, and the two imports' times swing together.
DEPS_CODE = ("import time\n"
             "t = time.perf_counter()\n"
             "import argparse, cmath, fractions, json, numpy, re\n"
             "print(time.perf_counter() - t)\n")
DEPS_REF_S = 0.1  # what importing DEPS_CODE's modules counts for at the reference speed

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.errors": "count"})
    units["cli.bytes_out"] = "bytes"
    for name in ("exactalg.det_calls", "exactalg.snf_calls", "exactalg.det_dim_sum",
                 "lattice.forms_built", "lattice.disc_a_max",
                 "finiteform.subgroups_yielded", "finiteform.elements_sum",
                 "geography.glue_attempts", "geography.glue_hits",
                 "vectors.vectors_out", "qseries.mul_calls", "qseries.inverse_calls",
                 "qseries.terms_out", "qseries.prec_units_sum", "weil.s_builds",
                 "weil.t_builds", "weil.matmuls", "weil.unitarity_checks",
                 "weil.entries_built", "audit.reports"):
        units[name] = "count"
    units["geography.glue_hit_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class WorkerFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    # k3lat's numpy work is int64 and never calls BLAS, but importing numpy
    # starts OpenBLAS's thread pool, whose start-up takes either next to no
    # time or about 0.08 s, by the host's state (the mode holds for minutes
    # on a shared 2-vCPU VM): it moved setup_s more than the program did.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def time_fresh(code, deadline):
    """Seconds a fresh interpreter running ``code`` prints."""
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise WorkerFailed(f"a fresh interpreter failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip())


def measure_setup(deadline):
    """Seconds for a fresh interpreter to import k3lat.cli and build its
    parser, and for the one started just before it to import only k3lat's
    dependencies: ``(setup, deps)``."""
    deps = time_fresh(DEPS_CODE, deadline)
    return time_fresh(SETUP_CODE, deadline), deps


def run_worker(workload, seed, trace, deadline, spans_path=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
        if spans_path:
            cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("pass ran past the run's time limit") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_position(n, jobs_per_pass):
    """Where, among ``n`` sorted latencies, the highest percentile with ten
    jobs of one pass beyond it falls: (index, percentile, jobs beyond)."""
    rank = workloads.tail_rank(jobs_per_pass)
    index = max(round(rank * n) - 1, 0)
    return index, 100 * rank, n - 1 - index


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(worker_result):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "k3lat").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": git_commit(), "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "cpu": cpu, "python": worker_result.get("python"),
            "numpy": worker_result.get("numpy")}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns the result object and the report lines.
    Writes the run record under ``RUNS``."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    jobs = workloads.job_list(workload, seed)
    setup_times = []
    if not trace:
        measure_setup(deadline)  # warm-up: compiles the bytecode
    RUNS.mkdir(exist_ok=True)

    plain, traced, problems = [], [], []
    attempted = failed = 0
    measure_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        if not trace:
            setup_times += [measure_setup(deadline) for _ in range(SETUP_PER_PASS)]
        sides = [(plain, False)] + ([(traced, True)] if trace else [])
        if len(plain) % 2:
            sides.reverse()  # alternate which side of a traced pair runs first
        for bucket, traced_side in sides:
            spans_path = (RUNS / f"spans-{workload}-seed{seed}-pass{len(traced)}.json"
                          if traced_side else None)
            attempted += len(jobs)
            try:
                res = run_worker(workload, seed, traced_side, deadline, spans_path)
            except WorkerFailed as exc:
                failed += len(jobs)
                problems.append(str(exc))
                continue
            failed += sum(r["error"] is not None for r in res["jobs"])
            problems += [f"{r['job']}: {r['error']}" for r in res["jobs"] if r["error"]]
            bucket.append(res)
        now = time.monotonic()
        if now - measure_start >= seconds or now + (now - pass_start) > deadline:
            break
    while not trace and len(setup_times) < SETUP_MIN:
        setup_times.append(measure_setup(deadline))

    lines = [f"workload {workload}  seed {seed}  passes {len(plain)}  "
             f"jobs per pass {len(jobs)}  job list sha256 {workloads.list_hash(jobs)}"]
    metrics, details = {}, {}
    units = dict(END_TO_END)
    if plain and not trace:
        ok = sum(r["error"] is None for res in plain for r in res["jobs"])
        metrics = timing_metrics(plain, ok, len(jobs))
        wall = timing_metrics(plain, ok, len(jobs), "s")
        metrics["setup_s"] = DEPS_REF_S * statistics.median(
            setup / deps for setup, deps in setup_times)
        wall["setup_s"] = statistics.median(setup for setup, _ in setup_times)
        metrics["peak_rss_mb"] = statistics.median(res["peak_rss_mb"] for res in plain)
        n = sum(len(res["jobs"]) for res in plain)
        _, pct, beyond = tail_position(n, len(jobs))
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh interpreters, "
                       f"each over its dependencies' import times {DEPS_REF_S:g} s",
            "jobs_per_s": f"{ok} jobs / {ok / metrics['jobs_per_s']:.3f} s busy",
            "job_p50_ms": f"n={n}",
            "job_tail_ms": f"p{pct:.1f}, n={n}, {beyond} beyond",
            "peak_rss_mb": "ru_maxrss of the pass process, median over passes",
        }
        details = {"jobs": n, "tail_percentile": pct, "jobs_beyond_tail": beyond,
                   "setup_samples": len(setup_times), "wall": wall}
        for name, unit in END_TO_END:
            at_wall = f"; wall {wall[name]:.6f}" if name in wall else ""
            lines.append(f"{name:<14} {metrics[name]:>14.6f} {unit:<5} "
                         f"({notes[name]}{at_wall})")
    if trace and traced:
        units = per_layer_units()
        metrics = layer_summary(plain, traced)
        lines.append(f"note: {UNWRAPPED_NOTE}")
        for name in units:
            lines.append(f"{name:<30} {metrics[name]:>16.6f} {units[name]}")
    lines.append(f"{'fail_ratio':<14} {failed / attempted:>14.6f} ratio "
                 f"({failed} of {attempted} jobs failed)")
    lines += [f"failure: {p}" for p in problems[:20]]

    expected = set(units) if trace else {name for name, _ in END_TO_END}
    complete = set(metrics) == expected
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "job_list_sha256": workloads.list_hash(jobs), "jobs_per_pass": len(jobs),
        "passes": len(plain), "wall_s": time.monotonic() - started,
        "machine": machine_record(plain[0] if plain else {}),
        "result": result, "details": details, "failures": problems,
    }
    with open(RUNS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, lines


def timing_metrics(plain, ok, jobs_per_pass, key="ref_s"):
    """The job-time metrics, from the jobs' ``key`` times."""
    lat_ms = [1000 * r[key] for res in plain for r in res["jobs"]]
    return {
        "jobs_per_s": ok / (sum(lat_ms) / 1000),
        "job_p50_ms": statistics.median(lat_ms),
        "job_tail_ms": sorted(lat_ms)[tail_position(len(lat_ms), jobs_per_pass)[0]],
    }


def layer_summary(plain, traced):
    """Per-pass means of the traced passes' layer metrics."""
    n = len(traced)
    out = {}
    for name in traced[0]["layers"]:
        values = [res["layers"][name] for res in traced]
        out[name] = max(values) if name == "lattice.disc_a_max" else sum(values) / n
    attempts = sum(res["layers"]["geography.glue_attempts"] for res in traced)
    hits = sum(res["layers"]["geography.glue_hits"] for res in traced)
    out["geography.glue_hit_ratio"] = hits / attempts if attempts else 0.0
    busy_plain = sum(r["ref_s"] for res in plain[:n] for r in res["jobs"])
    busy_traced = sum(r["ref_s"] for res in traced[:len(plain)] for r in res["jobs"])
    out["trace.overhead_ratio"] = busy_traced / busy_plain if busy_plain else math.nan
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="k3lat benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "k3lat" / "cli.py").is_file():
        print(f"error: no k3lat sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result, lines = run(name, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
