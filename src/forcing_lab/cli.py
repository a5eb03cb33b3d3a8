"""Command-line front end.

One subcommand per construction plus `verify`, which re-reads a trace and
re-runs the decoders and genericity checks. Exit status: 0 all checks
pass, 1 a check or decode failed, 2 usage error, 3 internal invariant
breach. Identical arguments and seeds produce byte-identical trace files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bits import BitStream, PayloadSource, read_bit_file
from .closure import bound_chain, build_generics_run
from .dense import load_family_file
from .entangle import decode_many, decode_pair, entangle_many, entangle_pair
from .errors import CheckFailure, InternalError, UsageError
from .posets import POSET_REGISTRY, WITNESS_REGISTRY
from .trace import GenericsTrace, WideTrace, load_trace, write_trace
from .verify import verify_trace
from .wide import decode_wide, entangle_wide

ENV_SEED = "FORCING_LAB_SEED"


def _parse_payload(text: str) -> PayloadSource:
    if ":" not in text:
        raise UsageError(
            f"payload must look like hex:ff | bits:0101 | seed:42 | file:path, got {text!r}")
    kind, _, rest = text.partition(":")
    if kind == "hex":
        return PayloadSource.from_hex(rest)
    if kind == "bits":
        if not rest or any(c not in "01" for c in rest):
            raise UsageError(f"bits payload must be nonempty binary, got {rest!r}")
        return PayloadSource.from_bits(rest)
    if kind == "seed":
        return PayloadSource.from_seed(rest)
    if kind == "file":
        return PayloadSource.from_file(rest)
    raise UsageError(f"unknown payload kind {kind!r}")


def _default_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    return os.environ.get(ENV_SEED)


def _load_family(args):
    """The family file; --seed (or $FORCING_LAB_SEED) fills in densifier
    seeding when the file itself does not set one."""
    family = load_family_file(args.family)
    seed = _default_seed(args)
    if seed is not None and family.seed is None:
        family = family.with_seed(seed)
    return family


def _add_common(p, payload=False):
    p.add_argument("--family", required=True, help="family spec JSON file")
    if payload:
        p.add_argument("--payload", required=True,
                       help="hex:ff | bits:0101 | seed:42 | file:path")
    p.add_argument("--out", help="trace output path (JSON)")
    p.add_argument("--seed", help=f"run seed (default: ${ENV_SEED})")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="forcing-lab",
        description="generic-filter constructions with verifiable traces")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entangle-pair", help="build an entangled Cohen pair")
    _add_common(p, payload=True)
    p.add_argument("--stages", type=int, required=True)

    p = sub.add_parser("decode-pair", help="decode payload bits from two streams")
    p.add_argument("--c", required=True, help="bit file for stream c")
    p.add_argument("--d", required=True, help="bit file for stream d")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--scan-budget", type=int, default=4096)

    p = sub.add_parser("entangle-many", help="build an entangled k-tuple")
    _add_common(p, payload=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)

    p = sub.add_parser("decode-many", help="decode payload bits from k streams")
    p.add_argument("--streams", nargs="+", required=True, help="bit files")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--scan-budget", type=int, default=4096)

    p = sub.add_parser("entangle-wide", help="antichain-coded chains on a wide poset")
    _add_common(p, payload=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--poset", default="cohen-lenlex",
                   choices=sorted(POSET_REGISTRY))
    p.add_argument("--witness", default="cohen-canonical",
                   choices=sorted(WITNESS_REGISTRY))

    p = sub.add_parser("decode-wide", help="decode a wide-run trace's chains")
    p.add_argument("--trace", required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--budget", type=int, default=1024)

    p = sub.add_parser("build-generics", help="fold a plane family into row streams")
    _add_common(p)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)

    p = sub.add_parser("bound-chain", help="bound generic rows by one plane")
    _add_common(p)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--from-generics", help="reuse rows from a build-generics trace")
    p.add_argument("--retry-budget", type=int, default=8)

    p = sub.add_parser("verify", help="re-verify a trace file")
    p.add_argument("--trace", required=True)

    return top


def _write(args, trace) -> None:
    if getattr(args, "out", None):
        write_trace(args.out, trace)
        print(f"trace written to {args.out}")


def _run(args) -> int:
    cmd = args.command
    if cmd == "entangle-pair":
        family = _load_family(args)
        trace = entangle_pair(family, _parse_payload(args.payload),
                              args.stages)
        print(f"entangled pair over {args.stages} stages; "
              f"boundaries {trace.boundaries}")
        _write(args, trace)
        return 0
    if cmd == "decode-pair":
        c = BitStream(read_bit_file(args.c))
        d = BitStream(read_bit_file(args.d))
        bits, bounds = decode_pair(c, d, args.count, args.scan_budget)
        print(f"payload bits: {''.join(map(str, bits))}")
        print(f"boundaries:   {bounds}")
        return 0
    if cmd == "entangle-many":
        family = _load_family(args)
        trace = entangle_many(args.k, family, _parse_payload(args.payload),
                              args.stages)
        print(f"entangled {args.k}-tuple over {args.stages} stages; "
              f"{len(trace.payload_bits)} payload bits coded")
        _write(args, trace)
        return 0
    if cmd == "decode-many":
        streams = [BitStream(read_bit_file(f)) for f in args.streams]
        bits, markers = decode_many(streams, len(streams), args.count,
                                    args.scan_budget)
        print(f"payload bits: {''.join(map(str, bits))}")
        print(f"markers:      {markers}")
        return 0
    if cmd == "entangle-wide":
        family = _load_family(args)
        poset = POSET_REGISTRY[args.poset]()
        witness = WITNESS_REGISTRY[args.witness]()
        trace = entangle_wide(poset, witness, family,
                              _parse_payload(args.payload), args.steps)
        print(f"wide run of {args.steps} steps on {args.poset}; "
              f"payload {''.join(map(str, trace.payload_bits))}")
        _write(args, trace)
        return 0
    if cmd == "decode-wide":
        trace = load_trace(args.trace)
        if not isinstance(trace, WideTrace):
            raise UsageError(f"{args.trace} is not a wide trace")
        count = args.count or len(trace.payload_bits)
        triples = decode_wide(trace.g_chain, trace.h_chain, trace.poset,
                              trace.witness, trace.family, count, args.budget)
        bits = [z for _, _, z in triples]
        print(f"decoded z bits: {''.join(map(str, bits))}")
        return 0
    if cmd == "build-generics":
        family = load_family_file(args.family)
        trace = build_generics_run(family, args.rows, args.horizon,
                                   _default_seed(args))
        print(f"built {args.rows} generic rows to horizon {args.horizon}")
        _write(args, trace)
        return 0
    if cmd == "bound-chain":
        family = load_family_file(args.family)
        seed = _default_seed(args)
        if args.from_generics:
            src = load_trace(args.from_generics)
            if not isinstance(src, GenericsTrace):
                raise UsageError(f"{args.from_generics} is a {src.kind} trace, "
                                 f"not a {GenericsTrace.kind} trace")
            if not 0 <= args.rows <= src.rows:
                raise UsageError(f"{args.from_generics} has {src.rows} rows")
        else:
            src = build_generics_run(family, args.rows, len(family), seed)
        rows = [src.streams[str(r)] for r in range(args.rows)]
        trace = bound_chain(rows, family, retry_budget=args.retry_budget,
                            fill_seed=seed)
        total_patch = sum(len(p) for p in trace.patches.values())
        print(f"bounded {len(rows)} rows through {len(trace.conditions)} "
              f"stages; {total_patch} patched cells")
        _write(args, trace)
        return 0
    if cmd == "verify":
        trace = load_trace(args.trace)
        report = verify_trace(trace)
        print(report.summary())
        return 0 if report.all_passed else 1
    raise UsageError(f"unknown command {cmd!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call. Parsing makes a new
    Namespace each time, and the seed default is read at run time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
