"""Re-verification of persisted traces.

Every construction's trace can be re-read and checked from scratch: the
decoders are re-run against the recorded streams/chains, genericity is
re-checked with the family's member predicates, and recorded invariants
(marker spacing, frontier lengths, chain descent) are recomputed. The
result is an itemized report; nothing here mutates or re-runs the
construction itself.
"""

from __future__ import annotations

from .bits import PayloadSource
from .closure import verify_bound
from .entangle import decode_many, decode_pair, many_stages, pair_stages
from .errors import PayloadExhausted, UsageError
from .generic import meets_family, mutual_genericity_check
from .towers import nat_add, nat_equal, nat_mul_pow2
from .trace import (ChainBoundTrace, GenericsTrace, ManyTrace, PairTrace,
                    VerifyReport, WideTrace)
from .wide import decode_wide


def _scan_budget_for(boundaries) -> int:
    return max([4096] + [b + 8 for b in boundaries])


_SOURCE_MISMATCH = "payload source does not yield the payload bits"


def _source_yields(trace) -> bool:
    """Whether the payload source, drawn again from its start, yields the
    trace's payload bits; a `file` source, or none, is not checked."""
    source = PayloadSource.from_json(trace.payload_source)
    if source is None:
        return True
    try:
        drawn = [source.next_bit() for _ in trace.payload_bits]
    except PayloadExhausted:
        return False
    return drawn == trace.payload_bits


def verify_trace(trace) -> VerifyReport:
    verifier = _VERIFIERS.get(getattr(trace, "kind", None))
    if verifier is None:
        raise UsageError(f"cannot verify trace of type {type(trace).__name__}")
    return verifier(trace)


def _verify_pair(trace: PairTrace) -> VerifyReport:
    report = VerifyReport()
    c, d = trace.streams["c"], trace.streams["d"]
    horizon = len(trace.conditions)

    def decode_matches():
        bits, bounds = decode_pair(c, d, len(trace.payload_bits),
                                   _scan_budget_for(trace.boundaries))
        if bits != trace.payload_bits:
            return False, f"payload mismatch: {bits} != {trace.payload_bits}"
        if bounds != trace.boundaries:
            return False, f"boundary mismatch: {bounds} != {trace.boundaries}"
        if not _source_yields(trace):
            return False, _SOURCE_MISMATCH
        return True, f"{len(bits)} bits, boundaries {bounds[:6]}..."

    def marker_spacing():
        bad = [i for i in range(len(trace.boundaries) - 1)
               if trace.boundaries[i + 1] < trace.boundaries[i] + 2]
        return not bad, f"markers too close at {bad}" if bad else ""

    def stage_conditions():
        if (trace.stages != pair_stages(trace.conditions)
                or len(trace.boundaries) != 2 * len(trace.conditions) - 1):
            return False, "stage records do not match the stage conditions"
        for n, rec in enumerate(trace.conditions):
            for name, stream in (("c", c), ("d", d)):
                cond = rec[name]
                if stream.take(cond.length) != cond:
                    return False, f"stage {n} {name} not a stream prefix"
                if not trace.family[n].member(cond):
                    return False, f"stage {n} {name} not in D_{n}"
        return True, f"{len(trace.conditions)} stages"

    report.check("pair-decode-roundtrip", decode_matches)
    report.check("pair-marker-spacing", marker_spacing)
    report.check("pair-stage-conditions", stage_conditions)
    report.check("pair-c-generic",
                 lambda: _meets(c, trace.family, horizon))
    report.check("pair-d-generic",
                 lambda: _meets(d, trace.family, horizon))
    return report


def _meets(filt, family, horizon):
    rep = meets_family(filt, family, horizon)
    return rep.all_met, rep.summary()


def _verify_many(trace: ManyTrace) -> VerifyReport:
    report = VerifyReport()
    streams = list(trace.streams.values())
    horizon = len(trace.conditions)

    def decode_matches():
        bits, markers = decode_many(streams, trace.k, len(trace.payload_bits),
                                    _scan_budget_for(trace.boundaries))
        if bits != trace.payload_bits:
            return False, "payload mismatch"
        if markers != trace.boundaries:
            return False, "marker mismatch"
        if not _source_yields(trace):
            return False, _SOURCE_MISMATCH
        return True, f"{len(bits)} bits recovered"

    def frontier_invariant():
        records = many_stages(trace.k, trace.boundaries, trace.payload_bits)
        if (len(records) != trace.k * len(trace.conditions)
                or trace.stages != records):
            return False, "stage records do not match the markers and payload"
        for s, rec in enumerate(trace.conditions):
            lengths = records[(s + 1) * trace.k - 1]["lengths"]
            for i, stream in enumerate(streams):
                cond = rec[str(i)]
                if cond.length != lengths[i] or stream.take(lengths[i]) != cond:
                    return False, (f"stage {s} stream {i}: condition is not "
                                   f"its {lengths[i]}-bit prefix")
        spaced = all(b >= a + 2 for a, b in zip(trace.boundaries,
                                                trace.boundaries[1:]))
        if not spaced:
            return False, "markers closer than 2 apart"
        return True, f"{len(trace.stages)} sub-rounds"

    def subtuples_generic():
        for i in range(trace.k):
            others = [streams[j] for j in range(trace.k) if j != i]
            rep = mutual_genericity_check(others, trace.family, horizon)
            if not rep.all_met:
                return False, f"subtuple omitting {i}: {rep.summary()}"
        return True, f"all {trace.k} subtuples generic to horizon {horizon}"

    report.check("many-decode-roundtrip", decode_matches)
    report.check("many-frontier-invariant", frontier_invariant)
    report.check("many-subtuples-generic", subtuples_generic)
    return report


def _verify_wide(trace: WideTrace) -> VerifyReport:
    report = VerifyReport()
    family, poset, witness = trace.family, trace.poset, trace.witness
    g, h = trace.g_chain, trace.h_chain
    count = len(trace.payload_bits)

    def chains_descend():
        for name, chain in (("g", g), ("h", h)):
            for i in range(len(chain) - 1):
                if not chain[i + 1].proper_end_extends(chain[i]):
                    return False, f"{name} chain not strictly descending at {i}"
        return True, f"both chains strictly descend ({len(g)} conditions)"

    def chain_members():
        for name, chain in (("g", g), ("h", h)):
            for n, cond in enumerate(chain):
                if n < len(family) and not family[n].member(cond):
                    return False, f"{name}[{n}] not in D_{n}"
        return True, "every chain condition lies in its dense set"

    def decode_matches():
        if not len(trace.stages) == count == len(g) - 1 == len(h) - 1:
            return False, "stage records, chains and payload differ in length"
        triples = decode_wide(g, h, poset, witness, family, count)
        for n, (p, q, z) in enumerate(triples):
            if z != trace.payload_bits[n]:
                return False, f"z({n}) mismatch"
            if p != g[n] or q != h[n]:
                return False, f"conditions mismatch at step {n}"
            rec = trace.stages[n]
            if not (rec["step"] == n and rec["z"] == z
                    and nat_equal(rec["alpha"], poset.encode(q))
                    and nat_equal(rec["j"],
                                  nat_add(nat_mul_pow2(rec["alpha"], 1), z))
                    and poset.leq(h[n + 1], witness.antichain(q, rec["beta"]))):
                return False, f"stage record mismatch at step {n}"
        if not _source_yields(trace):
            return False, _SOURCE_MISMATCH
        return True, f"{count} triples reproduced"

    report.check("wide-chains-descending", chains_descend)
    report.check("wide-chain-membership", chain_members)
    report.check("wide-decode-roundtrip", decode_matches)
    return report


def _verify_chain(trace: ChainBoundTrace) -> VerifyReport:
    return verify_bound(trace)  # by name, so bench/layers.py can wrap it


def _verify_generics(trace: GenericsTrace) -> VerifyReport:
    report = VerifyReport()
    plane = trace.plane

    report.check("generics-plane-meets-family",
                 lambda: _meets(plane, trace.family, trace.horizon))

    def rows_are_slices():
        for name, stream in trace.streams.items():
            if stream.to_json() != plane.row_stream(int(name)).to_json():
                return False, f"row {name} differs from the plane's row"
        return True, f"{len(trace.streams)} row streams match the plane"

    report.check("generics-rows-are-slices", rows_are_slices)
    return report


_VERIFIERS = {PairTrace.kind: _verify_pair, ManyTrace.kind: _verify_many,
              WideTrace.kind: _verify_wide, ChainBoundTrace.kind: _verify_chain,
              GenericsTrace.kind: _verify_generics}
