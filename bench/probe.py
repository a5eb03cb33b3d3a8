"""Host-speed probe: a fixed piece of pure-Python work, timed between ops.

The shared machines this benchmark runs on switch, for seconds to minutes
at a time, between speeds up to twice apart, and every op slows with them.
The probe never touches the program, so a change to the program cannot
move it. Each op's measured times are scaled by REFERENCE_S over the mean
of the probes taken just before and just after it: the result is the op's
time on a host where the probe takes REFERENCE_S. An integer loop alone
under-corrects op slowdowns and a dict/json/hash mix alone over-corrects
them, so the probe is the geometric mean of both.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

REFERENCE_S = 1e-3


def _int_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(10000):
        x += i * i
    return time.perf_counter() - t0


def _object_mix() -> float:
    t0 = time.perf_counter()
    out, runs = [], []
    for i in range(400):
        rec = {"step": i, "bits": format(i, "b"), "pair": (i, i + 1)}
        runs.append((i & 1, i % 7))
        if len(runs) > 40:
            runs = runs[1:]
        out.append(json.dumps(rec, sort_keys=True))
    text = "".join(out)
    json.loads("[" + ",".join(out[:100]) + "]")
    hashlib.sha256(text.encode("ascii")).hexdigest()
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds; each part is the faster of two tries."""
    return math.sqrt(min(_int_loop(), _int_loop())
                     * min(_object_mix(), _object_mix()))


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
