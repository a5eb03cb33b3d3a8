"""Seeded inputs for the benchmark workloads.

Every op is a pure function of (workload, seed, cycle, slot): the same seed
always yields the same family files and payload bits. A workload is a fixed
cycle of five op shapes; the timed loop walks a pool of `pool_cycles`
cycles and starts over, so the program sees a bounded set of distinct
inputs however many ops a run completes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

PLANE_ROWS = 8
MANY_K = 4

# (op kind, size) per slot: size is stages for pair/many, steps for wide,
# horizon (= family sets) for plane.
CYCLES = {
    "cohen": [("pair", 64), ("pair", 64), ("pair", 64), ("pair", 192),
              ("many", 48)],
    "wide": [("wide", 16)] * 4 + [("wide", 40)],
    "plane": [("plane", 12)] * 4 + [("plane", 28)],
}

WHY = {
    "cohen": "pair and k-tuple entangling over seeded mixed Cohen and product "
             "families: bits, seeded densify, meets_family; towers idle",
    "wide": "antichain coding on the Cohen wide poset: tower naturals, "
            "strip_prefix rescans, posets encode/locate, a growing intern table",
    "plane": "seeded generic-plane build then chain bound and verify: plane, "
             "closure, per-cell PRNG digests, dump/load of traces up to 0.5 MB",
}

# A bound family is square on two cycles of three and mixed on the third, so
# p50 and p90 each land inside one group of op costs, not between two.
_MIXED_EVERY = 3


@dataclass
class Op:
    """One closed-loop op: construct subcommand(s) then `verify`."""

    index: int
    kind: str
    size: int
    family: dict
    payload: Optional[str] = None          # bits the generator supplies
    bound_family: Optional[dict] = None    # plane: family for bound-chain
    fill_seed: Optional[str] = None        # plane: --seed for both steps
    files: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.size}"


def _bits(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _tag(rng: random.Random) -> str:
    return f"{rng.getrandbits(48):012x}"


def mixed_cohen_spec(n: int, seed: str) -> dict:
    """Seeded min-length / pattern / parity round robin (criterion 2 shape)."""
    words = ["1", "101", "0110", "11", "100"]
    sets = []
    for i in range(n):
        j = i % 3
        if j == 0:
            sets.append({"type": "min-length"})
        elif j == 1:
            sets.append({"type": "pattern", "word": words[(i // 3) % len(words)]})
        else:
            sets.append({"type": "parity", "parity": (i // 3) % 2})
    return {"carrier": "cohen", "seed": seed, "sets": sets}


def product_mix_spec(n: int, arity: int) -> dict:
    """Unseeded product family: min-length, coord-min-length, separating."""
    sets = []
    for i in range(n):
        j = i % 3
        if j == 0:
            sets.append({"type": "min-length"})
        elif j == 1:
            sets.append({"type": "coord-min-length", "coord": (i // 3) % arity})
        else:
            sets.append({"type": "separating"})
    return {"carrier": "product", "arity": arity, "sets": sets}


def min_length_spec(n: int) -> dict:
    return {"carrier": "cohen", "sets": [{"type": "min-length"}] * n}


def square_spec(n: int, seed=None) -> dict:
    spec = {"carrier": "plane", "sets": [{"type": "square"}] * n}
    if seed is not None:
        spec["seed"] = seed
    return spec


def mixed_plane_spec(n: int) -> dict:
    """Square and cell sets interleaved (the mixed_plane_family shape)."""
    sets = [{"type": "cell", "row": (i // 3) % 4} if i % 3 == 2
            else {"type": "square"} for i in range(n)]
    return {"carrier": "plane", "sets": sets}


def make_op(workload: str, index: int, kind: str, size: int,
            rng: random.Random) -> Op:
    if kind == "pair":
        return Op(index, kind, size, mixed_cohen_spec(size, f"c-{_tag(rng)}"),
                  payload=_bits(rng, 2 * size - 1))
    if kind == "many":
        return Op(index, kind, size, product_mix_spec(size, MANY_K - 1),
                  payload=_bits(rng, MANY_K * size))
    if kind == "wide":
        return Op(index, kind, size, min_length_spec(size + 1),
                  payload=_bits(rng, size))
    if kind == "plane":
        cycle = index // len(CYCLES[workload])
        bound = (mixed_plane_spec(size) if cycle % _MIXED_EVERY == _MIXED_EVERY - 1
                 else square_spec(size))
        return Op(index, kind, size, square_spec(size, f"g-{_tag(rng)}"),
                  bound_family=bound, fill_seed=f"f-{_tag(rng)}")
    raise ValueError(f"unknown op kind {kind!r}")


def generate(workload: str, seed: int, cycles: int, tag: str = "pool") -> List[Op]:
    """The ops of `cycles` whole cycles, each a function of the seed alone."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}")
    shape = CYCLES[workload]
    ops = []
    for c in range(cycles):
        for s, (kind, size) in enumerate(shape):
            rng = random.Random(f"{workload}:{seed}:{tag}:{c}:{s}")
            ops.append(make_op(workload, c * len(shape) + s, kind, size, rng))
    return ops


def warmup_ops(workload: str, seed: int) -> List[Op]:
    """One op of each distinct (kind, size) in the cycle, off the pool."""
    seen, out = set(), []
    for op in generate(workload, seed, 1, tag="warmup"):
        if op.name not in seen:
            seen.add(op.name)
            out.append(op)
    return out


def write_inputs(ops: List[Op], workdir: Path, prefix: str) -> None:
    """Write each op's family files and fix its trace paths under workdir."""
    for op in ops:
        base = workdir / f"{prefix}{op.index:04d}"
        op.files["family"] = _write_json(base.with_suffix(".family.json"),
                                         op.family)
        if op.bound_family is not None:
            op.files["bound_family"] = _write_json(
                base.with_suffix(".bound.json"), op.bound_family)
            op.files["generics"] = str(base.with_suffix(".generics.trace"))
        op.files["trace"] = str(base.with_suffix(".trace"))


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)
