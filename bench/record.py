"""Record a BENCH_<label>.json: the numbers behind a performance claim.

Runs every workload `--runs` times untraced, each run a fresh process with
its own seed, then once traced at the default seed, and optionally the
scaling sweep. For each end-to-end metric, and for each raw (unscaled)
figure printed beside them, it keeps every run's value, the median, the
quartiles and the spread (quartile distance over median, as
`statistics.quantiles(values, n=4)` gives them), and it notes the machine.

    python3 bench/record.py --label seed --out bench/BENCH_seed.json
    python3 bench/record.py --label quick --runs 3 --first-seed 11
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import sweep  # noqa: E402
import workloads  # noqa: E402


def bench_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    raw = next(json.loads(line[4:]) for line in lines if line.startswith("raw "))
    return json.loads(lines[-1]), raw


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(),
            "system": f"{platform.system()} {platform.release()}"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--out", help="default: bench/BENCH_<label>.json")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=run.DEFAULT_SEED)
    p.add_argument("--sweep-cap", type=float,
                   help="also run the scaling sweep with this cap per point")
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"label": args.label, "machine": machine(),
           "harness": {"command": spec["command"], "run_seconds": seconds,
                       "runs": args.runs, "first_seed": args.first_seed},
           "units": {m["name"]: m["unit"]
                     for m in spec["end_to_end"] + spec["per_layer"]},
           "workloads": {}}
    for w in workloads.CYCLES:
        runs, raws = [], []
        for i in range(args.runs):
            res, raw = bench_once(w, args.first_seed + i, seconds, 0)
            runs.append(res)
            raws.append(raw)
            print(f"{w} seed {args.first_seed + i}: attempted "
                  f"{res['attempted']} failed {res['failed']}", flush=True)
        traced, _ = bench_once(w, run.DEFAULT_SEED, seconds, 1)
        entry = {"why": workloads.WHY[w],
                 "correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "end_to_end": {name: summarize([r["metrics"][name]["value"]
                                                 for r in runs])
                                for name in runs[0]["metrics"]},
                 "raw": {name: summarize([r[name] for r in raws])
                         for name in raws[0]},
                 "traced": {"seed": run.DEFAULT_SEED,
                            "correct": traced["correct"],
                            "attempted": traced["attempted"],
                            "metrics": {k: m["value"] for k, m
                                        in traced["metrics"].items()}}}
        e2e = entry["end_to_end"]
        entry["tracing_overhead"] = (e2e["ops_per_s"]["median"]
                                     / entry["traced"]["metrics"]["traced_ops_per_s"])
        out["workloads"][w] = entry
        for name, s in e2e.items():
            print(f"  {name:16s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.3f}", flush=True)
    if args.sweep_cap:
        out["sweep"] = sweep.sweep(args.sweep_cap, run.DEFAULT_SEED)
    path = Path(args.out or HERE / f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(e["correct"] and e["traced"]["correct"]
                    for e in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
