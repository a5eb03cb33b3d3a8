"""Bounding a chain of Cohen extensions by one generic plane.

Given finitely mutually generic row streams b_0, ..., b_{m-1}, the bound
construction walks the plane family stage by stage, committing a finite
plane condition p_n in every D_n that is compatible with all rows already
finalized. Finding p_n is the reveal-and-retry search: reveal a growing
rectangle of finalized bits, merge it into the previous commitment,
densify, and accept once the candidate agrees with the actual rows. An
attempt reveals each finalized row as text (`take01`) and reads the row
bit of each cell its densify added (`bit`); the row's stream keeps what
it has read, so a retry generates only the newly revealed bits. The
clash test walks only the cells the candidate holds and the merged
condition lacks (`PlaneCondition.fresh_cells`). Row n is then finalized
by one rule, `chain_row`: b_n, or past the inputs the fill rule's row n,
patched at commitment n's row-n cells. So the final plane extends every
commitment, each b_n differs from its row only at the recorded patch,
and `verify_bound` rebuilds every row by the same rule.

The fresh-cell invariant: the previous commitment agrees with every
finalized row (it was accepted only when the cells its densifier added
did, and its own row is patched to its cells), and so do the revealed
bits, so an attempt compares with the rows only the cells the densifier
added to the merged condition. For the same reason a stage whose previous
commitment covers the n x n corner counts those columns as already
revealed, and a retry merges only the columns past them.

The existence of a compatible extension is a genericity fact about the
inputs, not of this code: with non-generic rows the search can stall, and
that surfaces honestly as RetryBudgetExceeded.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .bits import BitStream, PatchedStream
from .dense import DenseFamily
from .errors import (IncompatibleCommitment, IncompatibleConditions,
                     RetryBudgetExceeded, UsageError)
from .generic import meets_family
from .plane import GenericPlane, PlaneCondition, merge_conditions
from .trace import ChainBoundTrace, GenericsTrace, VerifyReport


def build_generics_run(family: DenseFamily, rows: int, horizon: int,
                       seed=None) -> GenericsTrace:
    """Fold the family's densifiers into one plane and slice out row streams.

    Any finite subtuple of the rows passes mutual_genericity_check against
    the family's row restrictions up to the horizon.
    """
    family.require(GenericsTrace.carriers, horizon, "build_generics_run")
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    if rows < 0:
        raise UsageError("rows must be >= 0")
    cond = PlaneCondition.empty()
    for n in range(horizon):
        cond = family.densify(n, cond)
    trace = GenericsTrace(family=family, seed=seed, rows=rows,
                          horizon=horizon, conditions=[cond])
    plane = trace.plane
    trace.streams = {str(r): plane.row_stream(r) for r in range(rows)}
    return trace


def bound_chain(b: Sequence[BitStream], family: DenseFamily,
                retry_budget: int = 8, fill_seed=None) -> ChainBoundTrace:
    """Bound the rows b_0..b_{m-1} by a plane generic for the family.

    Runs one stage per family set. Stage n finds p_n <= p_{n-1} inside D_n
    agreeing with all finalized rows, then finalizes row n by `chain_row`
    from the committed row-n cells. The trace holds the plane, the
    commitments (`conditions`), patches and rows.
    """
    m = len(b)
    family.require(ChainBoundTrace.carriers, m, "bound_chain")
    if retry_budget < 1:
        raise UsageError("retry budget must be >= 1")

    finalized: Dict[int, BitStream] = {}
    chain: List[PlaneCondition] = []
    patches: Dict[int, Dict[int, int]] = {}
    clash_lists: List[List[list]] = []
    commit = PlaneCondition.empty()
    fill = GenericPlane(fill_seed=fill_seed)

    for n in range(len(family)):
        reveal_to, tried = 0, []
        clash_lists.append(tried)
        # merged holds the columns below `shown` of every finalized row
        merged, shown = commit, 0 if commit.square_gaps(n) else n
        while True:
            if reveal_to > shown:
                revealed = PlaneCondition.from_rows(
                    {k: finalized[k].take01(reveal_to)[shown:]
                     for k in range(n)}, shown)
                try:
                    merged = merge_conditions(merged, revealed)
                except IncompatibleConditions as exc:
                    raise IncompatibleCommitment(n, str(exc)) from exc
                shown = reveal_to
            commit = family.densify(n, merged)
            # merged agrees with every finalized row, so only the cells the
            # densifier added can clash
            clashes = [(k, col)
                       for (k, col), bit in commit.fresh_cells(merged)
                       if k < n and finalized[k].bit(col) != bit]
            if not clashes:
                break
            tried.append(sorted(clashes))
            if len(tried) > retry_budget:
                raise RetryBudgetExceeded(
                    n, f"{len(clashes)} cells still disagree "
                       f"(inputs not generic for this family?)")
            reveal_to = _next_reveal(reveal_to, clashes)
        chain.append(commit)
        row_patch = commit.row_cells(n)
        if n < m:
            patches[n] = row_patch
        finalized[n] = chain_row(n, b, fill, row_patch)

    return ChainBoundTrace(
        family=family, seed=fill_seed, rows=m, conditions=chain,
        stages=chain_stages(chain, clash_lists), patches=patches,
        streams={**{f"b{k}": b[k] for k in range(m)},
                 **{f"d{k}": finalized[k] for k in range(m)}},
        plane=GenericPlane(commitments=commit, rows=finalized,
                           fill_seed=fill_seed))


def chain_row(n: int, b: Sequence[BitStream], fill: GenericPlane,
              patch: Dict[int, int]) -> PatchedStream:
    """Row n of a chain bound: input b_n, or past the inputs the fill
    rule's row n, patched at `patch`, commitment n's row-n cells."""
    return PatchedStream(b[n] if n < len(b) else fill.row_stream(n), patch)


def _next_reveal(reveal_to: int, clashes) -> int:
    """The retry rule: after an attempt at `reveal_to` finds `clashes`,
    reveal below max(reveal_to + 1, largest clash column + 1)."""
    return max([reveal_to + 1] + [col + 1 for _, col in clashes])


def chain_stages(conditions, clash_lists) -> List[dict]:
    """The stage records of a run whose stage n committed conditions[n]
    after failed attempts finding clash_lists[n]: attempt 0 reveals from
    column 0, a retry by `_next_reveal`, and `revealed_cols` is the
    reveal after a stage's last attempt."""
    records = []
    for n, (cond, tried) in enumerate(zip(conditions, clash_lists)):
        reveal, attempts = 0, []
        for clashes in tried:
            attempts.append({"reveal_to": reveal, "clashes": clashes})
            reveal = _next_reveal(reveal, clashes)
        records.append({"stage": n, "retries": len(attempts),
                        "revealed_cols": reveal,
                        "committed_cells": len(cond), "attempts": attempts})
    return records


def verify_bound(trace: ChainBoundTrace) -> VerifyReport:
    """Independently re-check a chain-bound run; reports, never raises.

    Checks: one commitment per set and per stage record, each record the
    one `chain_stages` rebuilds from the commitments and its clash lists,
    each of those lists distinct cells, sorted, in rows below its stage
    and at or past its reveal (the merged condition holds those rows'
    columns below it), commitments in their sets, the commitment chain
    descending, the last (so every) commitment contained in the plane,
    the plane's fill seed being the trace's seed as JSON text, the plane
    holding one row per set and the inputs no more rows, every row n
    being `chain_row` rebuilt from commitment n's row-n cells (the plane's
    row n, d_n for an input row, and the input rows' `patches` whole, so
    the plane's row equals b_n off the patch at every column), and the
    plane meeting the family. Patches are compared as dicts and bases as
    JSON, so no column is read. Which cells clashed is read as given.
    """
    report = VerifyReport()
    plane, b, family = trace.plane, trace.row_streams("b"), trace.family
    chain = trace.conditions
    horizon = len(family)

    def members():
        if not len(chain) == len(family) == len(trace.stages):
            return False, "commitments, sets and stage records differ in number"
        built = chain_stages(chain, [[a["clashes"] for a in rec["attempts"]]
                                     for rec in trace.stages])
        bad = [n for n, (rec, want) in enumerate(zip(trace.stages, built))
               if rec != want or not all(
                   c and sorted(set(map(tuple, c))) == list(map(tuple, c))
                   and all(0 <= row < n and col >= a["reveal_to"]
                           for row, col in c)
                   for a in want["attempts"] for c in [a["clashes"]])]
        if bad:
            return False, f"stage records disagree with the chain at: {bad}"
        bad = [n for n in range(len(chain)) if not family[n].member(chain[n])]
        return not bad, f"commitments outside their sets: {bad}" if bad else ""

    def descending():
        bad = [n + 1 for n in range(len(chain) - 1)
               if not chain[n + 1].leq(chain[n])]
        return not bad, f"chain breaks at: {bad}" if bad else ""

    def rows_preserved():
        # compared as JSON text, as the fill rule reads the seed's text: a
        # true is not a 1 (an in-memory run's seed need not be JSON)
        if not (plane.fill_seed is trace.seed
                or json.dumps(plane.fill_seed) == json.dumps(trace.seed)):
            return False, "the plane's fill_seed is not the trace's seed"
        odd = sorted((plane.rows.keys() | set(range(len(b))))
                     ^ set(range(horizon)))
        if odd:
            return False, f"plane or input rows not one per set: {odd[:6]}"
        # commitment n is stage n's only when there is one per set, which
        # chain-commitments-in-sets checks; else each row's recorded patch
        # stands in. As the chain descends (chain-chain-descending), its
        # row-n cells are among the last commitment's, so one pass over
        # those finds every row's
        if len(chain) == horizon:
            top_rows = {n: [] for n in range(horizon)}
            for cell in chain[-1].cells if chain else ():
                if cell[0] < horizon:
                    top_rows[cell[0]].append(cell)
            patches = {}
            for n, keys in top_rows.items():
                cells = chain[n].cells
                patches[n] = {k[1]: cells[k] for k in keys if k in cells}
        else:
            patches = {n: getattr(plane.rows[n], "patch", {})
                       for n in range(horizon)}
        fill = GenericPlane(fill_seed=trace.seed)
        rows = [chain_row(n, b, fill, patches[n]) for n in range(horizon)]
        d = trace.row_streams("d")
        bad = [n for n, row in enumerate(rows) for base in [row.base.to_json()]
               if not all(isinstance(got, PatchedStream)
                          and got.patch == row.patch
                          and got.base.to_json() == base
                          for got in [plane.rows[n]] + d[n:n + 1])]
        if bad:
            return False, (f"rows not b_n, or the fill rule's row n, patched "
                           f"at commitment n's row-n cells: {bad[:6]}")
        want = {n: rows[n].patch for n in range(len(b))}
        if trace.patches != want:
            off = sorted(r for r in trace.patches.keys() | want.keys()
                         if trace.patches.get(r) != want.get(r))
            cells = sorted({(r, c) for r in off for c, _ in
                            trace.patches.get(r, {}).items()
                            ^ want.get(r, {}).items()})
            return False, (f"patches not the rows' patches at rows "
                           f"{off[:6]}, cells {cells[:6]}")
        # the window only labels the report; no column is scanned
        window = max([horizon + 16]
                     + [c + 1 for cols in trace.patches.values()
                        for c in cols])
        return True, f"window {window}"

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
