"""forcing-lab benchmark: closed-loop CLI pipelines, one client per process.

Each op drives the real user path in-process: `forcing_lab.cli.main(argv)`
builds a construction and writes its trace, then a second call runs
`verify --trace` on it. The untraced run (`--trace 0`) reports the
end-to-end metrics; the traced run (`--trace 1`) wraps every layer's public
functions (see layers.py) and reports per-layer metrics instead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

    python3 bench/run.py --workload cohen --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run it from the root of a checkout; it reads `src/forcing_lab` there and
writes only under `bench/.work/`, which it removes on exit. See
bench/README.md for the workloads, the metrics and the correctness gates.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
POOL_CYCLES = 20          # 100 distinct inputs: p90 has ten beyond it
SETUP_REPS = 5            # set-ups per run, each in a fresh process
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
DIGESTS = HERE / "digests.json"

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s",
    "build_ms_p50": "ms", "build_ms_p90": "ms",
    "verify_ms_p50": "ms", "verify_ms_p90": "ms",
    "peak_rss_mb": "MB", "pass_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program sources)."""


# --- the program under test ---------------------------------------------

def import_program():
    """Import forcing_lab.cli afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "forcing_lab" / "cli.py").is_file():
        raise SetupError(f"no forcing_lab sources under {src}")
    for name in [n for n in sys.modules
                 if n == "forcing_lab" or n.startswith("forcing_lab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("forcing_lab.cli")
    if Path(cli.__file__).resolve().parent != (src / "forcing_lab").resolve():
        raise SetupError(f"forcing_lab was imported from {cli.__file__}")
    return cli


def call(main, argv):
    """Run one CLI invocation with its output captured; (exit code, stderr)."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, err.getvalue().strip()


def build_argvs(op):
    f = op.files
    if op.kind == "pair":
        return [["entangle-pair", "--family", f["family"],
                 "--payload", "bits:" + op.payload, "--stages", str(op.size),
                 "--out", f["trace"]]]
    if op.kind == "many":
        return [["entangle-many", "--k", str(workloads.MANY_K),
                 "--family", f["family"], "--payload", "bits:" + op.payload,
                 "--stages", str(op.size), "--out", f["trace"]]]
    if op.kind == "wide":
        return [["entangle-wide", "--family", f["family"],
                 "--payload", "bits:" + op.payload, "--steps", str(op.size),
                 "--out", f["trace"]]]
    rows = str(workloads.PLANE_ROWS)
    return [["build-generics", "--family", f["family"], "--rows", rows,
             "--horizon", str(op.size), "--seed", op.fill_seed,
             "--out", f["generics"]],
            ["bound-chain", "--family", f["bound_family"], "--rows", rows,
             "--from-generics", f["generics"], "--seed", op.fill_seed,
             "--out", f["trace"]]]


def trace_paths(op):
    return [p for p in (op.files.get("generics"), op.files["trace"]) if p]


def corrupt_trace(op):
    """Flip one recorded bit of the op's trace (the negative control)."""
    path = Path(op.files["trace"])
    obj = json.loads(path.read_text(encoding="utf-8"))
    if obj.get("payload_bits"):
        obj["payload_bits"][0] ^= 1
    else:
        obj["conditions"][-1][0][2] ^= 1
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_op(main, op, expected_digest=None, corrupt=False, before=None,
           probed=True):
    """One closed-loop op: build, verify, then the correctness gates.

    A full collection first, outside the timed region, so that the garbage
    collector's work inside the op depends on the op alone, not on where
    earlier ops left its generation counters. The host-speed probe runs
    before the build (unless the caller passes its last reading), between
    build and verify, and after verify; `build_s` and `verify_s` are at the
    probe's reference speed, `build_raw_s` and `verify_raw_s` as measured.
    With `probed` false (a set-up op, timed as a whole by its caller) there
    is neither collection nor probe, and only the raw times.
    """
    for p in trace_paths(op):
        Path(p).unlink(missing_ok=True)
    if probed:
        gc.collect()
        if before is None:
            before = probe.probe()
    argvs = build_argvs(op) + [["verify", "--trace", op.files["trace"]]]
    t0 = time.perf_counter()
    codes = [call(main, argv) for argv in argvs[:-1]]
    t1 = time.perf_counter()
    if corrupt:
        corrupt_trace(op)
    mid = probe.probe() if probed else None
    t2 = time.perf_counter()
    codes.append(call(main, argvs[-1]))
    t3 = time.perf_counter()
    res = {"op": op.index, "name": op.name, "build_raw_s": t1 - t0,
           "verify_raw_s": t3 - t2, "digest": None, "bytes": 0, "error": None}
    if probed:
        after = probe.probe()
        res.update(build_s=(t1 - t0) * probe.scale(before, mid),
                   verify_s=(t3 - t2) * probe.scale(mid, after),
                   probe_s=(before + after) / 2, probe_after=after)
        res["wall_s"] = res["build_s"] + res["verify_s"]
    for (rc, err), argv in zip(codes, argvs):
        if rc != 0:
            res["error"] = f"{argv[0]} exited {rc}: {err[-300:]}"
            return res
    h = hashlib.sha256()
    for p in trace_paths(op):
        data = Path(p).read_bytes()
        res["bytes"] += len(data)
        h.update(hashlib.sha256(data).digest())
    res["digest"] = h.hexdigest()
    if op.payload is not None:
        recorded = json.loads(Path(op.files["trace"]).read_text())["payload_bits"]
        if recorded != [int(b) for b in op.payload]:
            res["error"] = "trace payload_bits differ from the supplied payload"
            return res
    if expected_digest is not None and res["digest"] != expected_digest:
        res["error"] = "trace bytes differ from the recorded seed digest"
    return res


# --- measurement -----------------------------------------------------------

def pct(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return []
    return json.loads(DIGESTS.read_text()).get(workload, [])


def setup(workload, seed, pool_cycles, workdir, probed=True):
    """Import, generate inputs and run one warm-up op of each op kind."""
    cli = import_program()
    pool = workloads.generate(workload, seed, pool_cycles)
    workloads.write_inputs(pool, workdir, "p")
    warm = workloads.warmup_ops(workload, seed)
    workloads.write_inputs(warm, workdir, "w")
    warm_results = [run_op(cli.main, op, probed=probed) for op in warm]
    return cli, pool, warm, warm_results


def setup_only(args, workdir):
    """Child process of `timed_setups`: set up, then say so on stdout."""
    setup(args.workload, args.seed, args.pool_cycles, workdir, probed=False)
    print("ready", flush=True)
    return 0


def timed_setups(args):
    """Set-up time, from process start to the first timed op, SETUP_REPS times.

    Each set-up runs in a fresh child process and is timed from just before
    its spawn to the moment its ready line arrives, so interpreter start-up
    and every import the program makes are paid each time. Returns the raw
    times and the times at the probe's reference speed, by the probes taken
    just before the spawn and just after the child has exited.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--pool-cycles", str(args.pool_cycles)]
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        before = probe.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
        after = probe.probe()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up child exited {child.returncode}")
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * probe.scale(before, after))
    return raw, scaled


def run_workload(args, workdir):
    notes = []
    cli, pool, warm, warm_results = setup(args.workload, args.seed,
                                          args.pool_cycles, workdir)
    correct = True
    for r in warm_results:
        if r["error"]:
            correct = False
            notes.append(f"warm-up {r['name']} failed: {r['error']}")

    tracer = None
    main = cli.main
    if args.trace:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
        for op, plain in zip(warm, warm_results):
            traced = run_op(main, op)
            if traced["digest"] != plain["digest"]:
                correct = False
                notes.append(f"traced {op.name} trace bytes differ from untraced")
        tracer.reset()

    expected = load_digests(args.workload, args.seed)
    results = []
    cycle = len(workloads.CYCLES[args.workload])
    start = time.perf_counter()
    before = None
    while True:
        i = len(results)
        op = pool[i % len(pool)]
        want = results[i - len(pool)]["digest"] if i >= len(pool) else (
            expected[i] if i < len(expected) else None)
        res = run_op(main, op, want, corrupt=(i == args.corrupt_op),
                     before=before)
        before = res["probe_after"]
        results.append(res)
        done = len(results)
        loop_s = time.perf_counter() - start
        if done % cycle == 0 and done >= len(pool) and loop_s >= args.seconds:
            break

    failed = [r for r in results if r["error"]]
    for r in failed[:5]:
        notes.append(f"pool op {r['op']} ({r['name']}) failed: {r['error']}")
    info = {"pool": len(pool), "raw": raw_figures(results, loop_s)}
    if tracer is None:
        setups_raw, setups = timed_setups(args)
        info["raw"]["setup_s"] = statistics.median(setups_raw)
        metrics = end_to_end(results, setups, info)
    else:
        metrics, missing = layers.collect(tracer, args.workload, results,
                                          pool)
        if missing:
            correct = False
            notes.append("traced spans that read zero on this workload: "
                         + ", ".join(missing))
    correct = correct and not failed
    return {"correct": correct, "attempted": len(results),
            "failed": len(failed), "metrics": metrics}, notes, info


def raw_figures(results, loop_s):
    """Unscaled times, printed beside the scaled metrics and never bounded,
    so that a bad host-speed correction can be told from a program change."""
    build_ms = [r["build_raw_s"] * 1e3 for r in results]
    verify_ms = [r["verify_raw_s"] * 1e3 for r in results]
    return {"build_ms_p50": pct(build_ms, 0.5),
            "build_ms_p90": pct(build_ms, 0.9),
            "verify_ms_p50": pct(verify_ms, 0.5),
            "verify_ms_p90": pct(verify_ms, 0.9),
            "ops_wall_s": sum(build_ms + verify_ms) / 1e3,
            "loop_wall_s": loop_s,
            "probe_ms": statistics.median(r["probe_s"] * 1e3 for r in results)}


def end_to_end(results, setups, info):
    """Percentiles over every timed op, each at the probe's reference speed."""
    build_ms = [r["build_s"] * 1e3 for r in results]
    verify_ms = [r["verify_s"] * 1e3 for r in results]
    n = len(results)
    passed = sum(1 for r in results if not r["error"])
    info["samples"] = {"n": n, "beyond_p90": n - math.ceil(0.9 * n)}
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": passed / sum(r["wall_s"] for r in results),
        "build_ms_p50": pct(build_ms, 0.5),
        "build_ms_p90": pct(build_ms, 0.9),
        "verify_ms_p50": pct(verify_ms, 0.5),
        "verify_ms_p90": pct(verify_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": passed / n,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def print_table(workload, result, info):
    samples = info.get("samples")
    print(f"workload {workload}: {result['attempted']} timed ops "
          f"({info['pool']} distinct), {result['failed']} failed")
    print(f"  times at probe reference speed ({probe.REFERENCE_S * 1e3:g} ms);"
          f" set-up is the median of {SETUP_REPS} fresh processes")
    for name, m in result["metrics"].items():
        note = ""
        if samples and name.endswith(("_p50", "_p90")):
            note = f"  (n={samples['n']}, {samples['beyond_p90']} beyond p90)"
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{note}")
    print("raw " + json.dumps(info["raw"], sort_keys=True))


# --- entry points ------------------------------------------------------------

def run_all(args):
    """Each workload in its own fresh process; one table per workload."""
    ok = True
    for w in workloads.CYCLES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--pool-cycles", str(args.pool_cycles)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        ok = ok and proc.returncode == 0 and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.CYCLES) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="minimum length of the timed loop "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pool-cycles", type=int, default=POOL_CYCLES)
    p.add_argument("--corrupt-op", type=int, default=-1,
                   help="corrupt the trace of this timed op (negative control)")
    p.add_argument("--record-digests", action="store_true",
                   help=f"write the pool's trace digests at seed "
                        f"{DEFAULT_SEED} to {DIGESTS.name}")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def record_digests(workdir):
    """Store the seed-commit trace digests of every workload's pool."""
    table = {}
    for w in workloads.CYCLES:
        cli = import_program()
        pool = workloads.generate(w, DEFAULT_SEED, POOL_CYCLES)
        workloads.write_inputs(pool, workdir, w)
        results = [run_op(cli.main, op) for op in pool]
        bad = [r for r in results if r["error"]]
        if bad:
            raise SystemExit(f"error: {w} op {bad[0]['op']}: {bad[0]['error']}")
        table[w] = [r["digest"] for r in results]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, table.values()))} digests in {DIGESTS}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all" and not args.record_digests:
        return run_all(args)
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        if args.record_digests:
            return record_digests(workdir)
        if args.setup_only:
            return setup_only(args, workdir)
        result, notes, info = run_workload(args, workdir)
    except SetupError as exc:
        print(f"error: {exc}; run from the root of a forcing-lab checkout",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workroot.is_dir() and not any(workroot.iterdir()):
            workroot.rmdir()
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print_table(args.workload, result, info)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
