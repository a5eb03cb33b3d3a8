"""Scaling sweep: build and verify cost per stage along the ROADMAP curves.

On demand only; not part of the timed workloads. Each point runs one op
(construct, then `verify`) in a fresh child process with a wall-time cap.
A point over the cap is killed and marked `over_cap`, and the larger points
of its curve are marked `skipped`.

    python3 bench/sweep.py                      # cap 120 s per point
    python3 bench/sweep.py --cap 30 --out bench/.work/sweep.json
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# curve -> (workload whose op shape it scales, op kind, sizes)
CURVES = {
    "pair_stages": ("cohen", "pair", (64, 128, 256, 512, 1024)),
    "wide_steps": ("wide", "wide", (50, 100, 200, 400)),
    "plane_sets": ("plane", "plane", (48, 96, 192)),
}


def run_point(curve, size, seed, workdir):
    """Child process: one op at this size; prints its timings as JSON."""
    workload, kind, _ = CURVES[curve]
    rng = random.Random(f"sweep:{curve}:{size}:{seed}")
    op = workloads.make_op(workload, 0, kind, size, rng)
    workloads.write_inputs([op], Path(workdir), "s")
    res = run.run_op(run.import_program().main, op)
    print(json.dumps({k: res[k] for k in ("build_s", "verify_s", "build_raw_s",
                                          "verify_raw_s", "error")}))
    return 0


def sweep(cap, seed):
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    points = []
    for curve, (_, _, sizes) in CURVES.items():
        blocked = False
        for size in sizes:
            point = {"curve": curve, "size": size}
            points.append(point)
            if blocked:
                point["status"] = "skipped"
                continue
            workdir = tempfile.mkdtemp(prefix="sweep-", dir=workroot)
            argv = [sys.executable, str(HERE / "sweep.py"), "--point", curve,
                    str(size), "--seed", str(seed), "--workdir", workdir]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=cap, cwd=HERE.parent)
            except subprocess.TimeoutExpired:
                point["status"] = "over_cap"
                blocked = True
                continue
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if proc.returncode != 0:
                point["status"] = "failed"
                point["error"] = proc.stderr.strip()[-300:]
                continue
            res = json.loads(proc.stdout.splitlines()[-1])
            point["status"] = "failed" if res["error"] else "ok"
            point.update(build_s=res["build_s"], verify_s=res["verify_s"],
                         build_raw_s=res["build_raw_s"],
                         verify_raw_s=res["verify_raw_s"],
                         build_ms_per_stage=res["build_s"] * 1e3 / size,
                         verify_ms_per_stage=res["verify_s"] * 1e3 / size)
            if res["error"]:
                point["error"] = res["error"]
            print(f"{curve:12s} {size:5d}  build {res['build_s']:9.3f} s "
                  f"({point['build_ms_per_stage']:8.3f} ms/stage)  verify "
                  f"{res['verify_s']:9.3f} s "
                  f"({point['verify_ms_per_stage']:8.3f} ms/stage)", flush=True)
        for point in points:
            if point["curve"] == curve and point["status"] != "ok":
                print(f"{curve:12s} {point['size']:5d}  {point['status']}"
                      f" (cap {cap:g} s)", flush=True)
    if not any(workroot.iterdir()):
        workroot.rmdir()
    return {"cap_s": cap, "seed": seed, "points": points}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cap", type=float, default=120.0,
                   help="wall-time cap per point, seconds")
    p.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    p.add_argument("--out", help="also write the points as JSON here")
    p.add_argument("--point", nargs=2, metavar=("CURVE", "SIZE"),
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.point:
        return run_point(args.point[0], int(args.point[1]), args.seed,
                         args.workdir)
    result = sweep(args.cap, args.seed)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(pt["status"] != "failed" for pt in result["points"]) else 1


if __name__ == "__main__":
    sys.exit(main())
