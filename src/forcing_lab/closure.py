"""Bounding a chain of Cohen extensions by one generic plane.

Given finitely mutually generic row streams b_0, ..., b_{m-1}, the bound
construction walks the plane family stage by stage, committing a finite
plane condition p_n in every D_n that is compatible with all rows already
finalized. Finding p_n is the reveal-and-retry search: reveal a growing
rectangle of finalized bits, merge it into the previous commitment,
densify, and accept once the candidate agrees with the actual rows. An
attempt reads each finalized row once, as text (`take01`), and the row's
stream keeps what it has read, so a retry generates only the newly
revealed bits. Row n is then finalized as b_n patched at the committed
row-n cells (rows beyond the input get the fill rule as their base), so
the final plane extends every commitment and each b_n differs from its
row only at the recorded patch.

The fresh-cell invariant: the previous commitment agrees with every
finalized row (it was accepted only when the cells its densifier added
did, and its own row is patched to its cells), and so do the revealed
bits, so an attempt compares with the rows only the cells the densifier
added to the merged condition.

The existence of a compatible extension is a genericity fact about the
inputs, not of this code: with non-generic rows the search can stall, and
that surfaces honestly as RetryBudgetExceeded.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Dict, List, Sequence

from .bits import BitStream, PatchedStream
from .dense import CARRIER_PLANE, DenseFamily, checked_densify
from .errors import (FamilyTooSmall, IncompatibleCommitment,
                     IncompatibleConditions, RetryBudgetExceeded, UsageError)
from .generic import meets_family
from .plane import GenericPlane, PlaneCondition, merge_conditions
from .trace import ChainBoundTrace, GenericsTrace, VerifyReport


def _plane_leq(a: PlaneCondition, b: PlaneCondition) -> bool:
    return a.leq(b)


def build_generics_run(family: DenseFamily, rows: int, horizon: int,
                       seed=None) -> GenericsTrace:
    """Fold the family's densifiers into one plane and slice out row streams.

    Any finite subtuple of the rows passes mutual_genericity_check against
    the family's row restrictions up to the horizon.
    """
    if family.carrier != CARRIER_PLANE:
        raise UsageError("generic planes need a plane-carrier family")
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    if horizon > len(family):
        raise FamilyTooSmall(
            f"horizon {horizon} exceeds family size {len(family)}")
    if rows < 0:
        raise UsageError("rows must be >= 0")
    cond = PlaneCondition.empty()
    for n in range(horizon):
        cond = checked_densify(family[n], cond, _plane_leq)
    trace = GenericsTrace(family=family, seed=seed, rows=rows,
                          horizon=horizon, conditions=[cond])
    plane = trace.plane
    trace.streams = {str(r): plane.row_stream(r) for r in range(rows)}
    return trace


def bound_chain(b: Sequence[BitStream], family: DenseFamily,
                retry_budget: int = 8, fill_seed=None) -> ChainBoundTrace:
    """Bound the rows b_0..b_{m-1} by a plane generic for the family.

    Runs one stage per family set. Stage n finds p_n <= p_{n-1} inside D_n
    agreeing with all finalized rows, then finalizes row n (b_n patched at
    the committed row-n cells; fill-rule base beyond the inputs). The trace
    holds the plane, the commitments (`conditions`), patches and rows.
    """
    if family.carrier != CARRIER_PLANE:
        raise UsageError("bound_chain needs a plane-carrier family")
    if retry_budget < 1:
        raise UsageError("retry budget must be >= 1")
    m = len(b)
    stages = len(family)
    if stages < m:
        raise FamilyTooSmall(
            f"{m} rows need a family of at least {m} sets, got {stages}")

    finalized: Dict[int, BitStream] = {}
    chain: List[PlaneCondition] = []
    patches: Dict[int, Dict[int, int]] = {}
    stage_records: List[dict] = []
    prev = PlaneCondition.empty()
    fill = GenericPlane(fill_seed=fill_seed)

    for n in range(stages):
        reveal_to = 0
        retries = 0
        transcript: List[dict] = []
        merged, shown = prev, 0   # merged holds the columns below `shown`
        while True:
            revealed = PlaneCondition.from_rows(
                {k: finalized[k].take01(reveal_to)[shown:]
                 for k in range(n)}, shown)
            try:
                merged = merge_conditions(merged, revealed)
            except IncompatibleConditions as exc:
                raise IncompatibleCommitment(n, str(exc)) from exc
            shown = reveal_to
            cand = checked_densify(family[n], merged, _plane_leq)
            # merged agrees with every finalized row, so only the cells the
            # densifier added can clash
            fresh = [(k, col) for k, col in
                     filterfalse(merged.cells.__contains__, cand.cells)
                     if k < n]
            width: Dict[int, int] = {}
            for k, col in fresh:
                if col >= width.get(k, 0):
                    width[k] = col + 1
            rows = {k: finalized[k].take01(w) for k, w in width.items()}
            clashes = [(k, col) for k, col in fresh
                       if int(rows[k][col]) != cand.cells[(k, col)]]
            if not clashes:
                commit = cand
                break
            retries += 1
            transcript.append({"reveal_to": reveal_to,
                               "clashes": sorted(clashes)})
            if retries > retry_budget:
                raise RetryBudgetExceeded(
                    n, f"{len(clashes)} cells still disagree "
                       f"(inputs not generic for this family?)")
            reveal_to = max(reveal_to + 1,
                            max(col for _, col in clashes) + 1)
        chain.append(commit)
        prev = commit
        row_patch = commit.row_cells(n)
        if n < m:
            patches[n] = row_patch
        base = b[n] if n < m else fill.row_stream(n)
        finalized[n] = PatchedStream(base, row_patch)
        stage_records.append({"stage": n, "retries": retries,
                              "revealed_cols": reveal_to,
                              "committed_cells": len(commit),
                              "attempts": transcript})

    top = chain[-1] if chain else PlaneCondition.empty()
    return ChainBoundTrace(
        family=family, seed=fill_seed, rows=m,
        stages=stage_records, conditions=chain, patches=patches,
        streams={**{f"b{k}": b[k] for k in range(m)},
                 **{f"d{k}": finalized[k] for k in range(m)}},
        plane=GenericPlane(commitments=top, rows=finalized,
                           fill_seed=fill_seed))


def verify_bound(trace: ChainBoundTrace) -> VerifyReport:
    """Independently re-check a chain-bound run; reports, never raises.

    Checks: commitments in their sets, the commitment chain descending,
    the last (so every) commitment contained in the plane, every patch
    cell being a cell of the last commitment, each row d_k being the
    plane's row k and b_k patched at exactly its recorded patch (so the
    plane's row equals b_k off the patch at every column), and the plane
    meeting the family.
    """
    report = VerifyReport()
    plane, b, family = trace.plane, trace.row_streams("b"), trace.family
    chain = trace.conditions
    horizon = len(family)

    def members():
        bad = [n for n in range(min(len(chain), len(family)))
               if not family[n].member(chain[n])]
        return not bad, f"commitments outside their sets: {bad}" if bad else ""

    def descending():
        bad = [n + 1 for n in range(len(chain) - 1)
               if not chain[n + 1].leq(chain[n])]
        return not bad, f"chain breaks at: {bad}" if bad else ""

    def rows_preserved():
        top = chain[-1] if chain else PlaneCondition.empty()
        stray = [(k, col) for k, cols in sorted(trace.patches.items())
                 for col, bit in sorted(cols.items())
                 if top.get(k, col) != bit]
        if stray:
            return False, f"patch cells not in the last commitment: {stray[:6]}"
        bad = [k for k, d in enumerate(trace.row_streams("d"))
               if d.to_json() != plane.row_stream(k).to_json()
               or not isinstance(d, PatchedStream)
               or d.base.to_json() != b[k].to_json()
               or d.patch != trace.patches.get(k)]
        # the window only labels the report; no column is scanned
        window = max([horizon + 16]
                     + [c + 1 for cols in trace.patches.values()
                        for c in cols])
        return (not bad, f"rows not b_k patched as recorded: {bad[:6]}" if bad
                else f"window {window}")

    def meets():
        rep = meets_family(plane, family, horizon)
        return rep.all_met, rep.summary()

    report.check("chain-commitments-in-sets", members)
    report.check("chain-chain-descending", descending)
    report.check("chain-commitments-in-plane",
                 lambda: not chain or plane.contains(chain[-1]))
    report.check("chain-rows-preserved-off-patches", rows_preserved)
    report.check("chain-plane-meets-family", meets)
    return report
