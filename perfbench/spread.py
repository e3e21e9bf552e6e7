"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload qexp-sweep --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --record perfbench/baseline.json

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median, its quartiles (``statistics.quantiles``,
n=4) and the quartile distance as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. ``--record`` writes the medians,
quartiles and raw values to a JSON file, with the run's machine record.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--record", type=Path, help="write medians and quartiles here")
    args = ap.parse_args(argv)

    record = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in names if args.workload == "all" else [args.workload]:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = 0
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        rows = {}
        print(f"{workload}: {failed} failed jobs over {len(args.seeds)} runs")
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "unit": metric["unit"], "values": xs}
            print(f"  {metric['name']:<12} median {med:12.6g} {metric['unit']:<4} "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f}  "
                  f"bound {metric['bound']:.2f}  spread/bound {spread / metric['bound']:.2f}")
        last = HERE / "runs" / f"{workload}-seed{args.seeds[-1]}-trace0.json"
        record["machine"] = json.loads(last.read_text())["machine"]
        record["workloads"][workload] = {"failed_jobs": failed, "metrics": rows}
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
