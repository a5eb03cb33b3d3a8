"""Re-verification of persisted traces.

Every construction's trace can be re-read and checked from scratch: the
decoders are re-run against the recorded streams/chains, genericity is
re-checked with the family's member predicates, and recorded invariants
(marker spacing, frontier lengths, chain descent) are recomputed. The
result is an itemized report; nothing here mutates or re-runs the
construction itself.
"""

from __future__ import annotations

from .bits import _MATERIALIZE_LIMIT, PayloadSource
from .closure import verify_bound
from .entangle import decode_many, decode_pair, many_stages, pair_stages
from .errors import AmbiguousNat, CheckFailure, PayloadExhausted, UsageError
from .generic import (GenericityReport, SetResult, meets_family,
                      mutual_genericity_check)
from .trace import (ChainBoundTrace, GenericsTrace, ManyTrace, PairTrace,
                    VerifyReport, WideTrace)
from .wide import decode_wide


def _scan_budget_for(boundaries) -> int:
    """The scan budget of a decode that reads 8 bits past every boundary,
    and at least 4096; one past the decoders' cap fails the item."""
    budget = max([4096] + [b + 8 for b in boundaries])
    if budget > _MATERIALIZE_LIMIT:
        raise CheckFailure(f"boundary {budget - 8} needs a scan budget of "
                           f"{budget} bits, past the decoders' cap of "
                           f"{_MATERIALIZE_LIMIT}")
    return budget


_SOURCE_MISMATCH = "payload source does not yield the payload bits"


def _require_sets(family, need: int, runs: str) -> None:
    """Fail the item, naming both counts, where `runs` need more sets than
    the family has."""
    if len(family) < need:
        raise CheckFailure(f"{runs} need {need} dense sets, "
                           f"family has {len(family)}")


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
    """The five pair items. pair-c-generic and pair-d-generic read each
    stream's genericity off the stage conditions, with no search: stage n
    of the construction densifies into D_n, so its condition is the
    witness the construction chose. A stream meets D_n exactly where some
    prefix of it lies in D_n, and where its stage-n condition is such a
    prefix the item names that witness. An edit that cuts a condition to
    a prefix outside D_n, with its stage record to match, fails the item
    alone; a stream whose witnesses lie past any search budget passes.
    """
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
        return True, f"{len(trace.conditions)} stages"

    def generic(name):
        """Whether the stream meets D_n, for each n below the horizon, at
        its stage-n condition: a prefix of the stream lying in D_n."""
        stream = trace.streams[name]
        _require_sets(trace.family, horizon, f"{horizon} stages")
        rep = GenericityReport(horizon=horizon, budget=0)
        for n, rec in enumerate(trace.conditions):
            cond = rec[name]
            met = stream.starts_with(cond) and trace.family[n].member(cond)
            rep.results.append(SetResult(n, met, cond if met else None))
        return rep.all_met, rep.summary()

    report.check("pair-decode-roundtrip", decode_matches)
    report.check("pair-marker-spacing", marker_spacing)
    report.check("pair-stage-conditions", stage_conditions)
    report.check("pair-c-generic", lambda: generic("c"))
    report.check("pair-d-generic", lambda: generic("d"))
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
        if not trace.conditions:
            return False, "no stage"  # entangle_many runs at least one
        records = many_stages(trace.k, trace.boundaries, trace.payload_bits)
        if (len(records) != trace.k * len(trace.conditions)
                or trace.stages != records):
            return False, "stage records do not match the markers and payload"
        for s, rec in enumerate(trace.conditions):
            lengths = records[(s + 1) * trace.k - 1]["lengths"]
            for i, stream in enumerate(streams):
                cond = rec[str(i)]
                if cond.length != lengths[i] or not stream.starts_with(cond):
                    return False, (f"stage {s} stream {i}: condition is not "
                                   f"its {lengths[i]}-bit prefix")
        spaced = all(b >= a + 2 for a, b in zip(trace.boundaries,
                                                trace.boundaries[1:]))
        if not spaced:
            return False, "markers closer than 2 apart"
        return True, f"{len(trace.stages)} sub-rounds"

    def subtuples_generic():
        if trace.family.arity != trace.k - 1:
            return False, (f"family arity {trace.family.arity}, but each "
                           f"subtuple holds {trace.k - 1} streams")
        _require_sets(trace.family, horizon, f"{horizon} stages")
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
    """The three wide items. The first two pass wherever the third does,
    so no edit fails either of them alone:

    wide-decode-roundtrip passing means both chains hold steps + 1 >= 2
    conditions, the family at least as many sets, and the chains, stage
    records and payload bits equal those of the walk `wide.decode_wide`
    replays from the chains. The walk's condition at n is
    `family.densify(n, c)`: c is the poset's first element at n = 0, and
    at n >= 1 the registered witness's A(x, k) = x 0^k 1 below the walk's
    condition x at n - 1, at the hit k, which the walk checks to lie
    properly below x. Each record names the hits its step branched at,
    and no other node. `family.densify` accepts only outputs that lie in
    D_n and end-extend c, and c properly end-extends x. So every condition
    lies in its set (wide-chain-membership, which reads each set's member
    on the same values), and each chain strictly descends
    (wide-chains-descending). Its prefix tests raise no AmbiguousNat: the
    symbolic runs of a walk condition are 0^k blocks, each ended by the
    marker bit 1, and the densifiers append a few concrete bits, so x's
    last run has a small int length.
    """
    report = VerifyReport()
    family, poset, witness = trace.family, trace.poset, trace.witness
    g, h = trace.g_chain, trace.h_chain
    count = len(trace.payload_bits)

    def chains_descend():
        for name, chain in (("g", g), ("h", h)):
            for i in range(len(chain) - 1):
                try:
                    descends = chain[i + 1].proper_end_extends(chain[i])
                except AmbiguousNat:
                    return False, (f"{name} chain cannot be ordered at {i}: "
                                   f"{name}[{i + 1}] against {name}[{i}]")
                if not descends:
                    return False, f"{name} chain not strictly descending at {i}"
        return True, f"both chains strictly descend ({len(g)} conditions)"

    def chain_members():
        for name, chain in (("g", g), ("h", h)):
            for n, cond in enumerate(chain):
                if n < len(family) and not family[n].member(cond):
                    return False, f"{name}[{n}] not in D_{n}"
        return True, "every chain condition lies in its dense set"

    def decode_matches():
        if not 0 < len(trace.stages) == count == len(g) - 1 == len(h) - 1:
            return False, ("stage records, chains and payload differ in "
                           "length or hold no step")
        _require_sets(family, count + 1, f"{count} steps")
        # the hit for step n lies at chain element n + 1
        replay = decode_wide(g, h, poset, witness, family, count,
                             budget=len(g))
        if replay.payload_bits != trace.payload_bits:
            return False, "payload bits do not match the decoded z bits"
        if replay.conditions != trace.conditions:
            return False, "chains do not match the decoded walk"
        if replay.stages != trace.stages:
            return False, "stage records do not match the chains and payload"
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
