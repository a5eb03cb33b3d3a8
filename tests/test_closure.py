"""Chain bounding: worked SQ example, verification checks, mutations."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import bits
from forcing_lab.bits import BitStream, ConstTail, PatchedStream, PrngTail
from forcing_lab.closure import bound_chain, build_generics_run, verify_bound
from forcing_lab.dense import (DenseFamily, DenseSet, family_from_spec,
                               mixed_plane_family, square_family)
from forcing_lab.errors import (EmptyFamily, FamilyTooSmall,
                                RetryBudgetExceeded, UsageError)
from forcing_lab.generic import meets_family, mutual_genericity_check
from forcing_lab.plane import GenericPlane, PlaneCondition, merge_conditions
from forcing_lab.trace import load_trace, write_trace
from forcing_lab.verify import verify_trace
from test_dense import restrict_rows
from test_mutations import run_cli

FAMILIES = Path(__file__).resolve().parents[1] / "docs" / "families"


def generic_rows(family, rows, horizon, seed=None):
    return list(build_generics_run(family, rows, horizon, seed).streams.values())


def hunting_family(skip=0):
    """D_1 wants a 1 in row 0; its densifier guesses one `skip` columns
    past the first column of row 0 that its input leaves open."""
    def member(p):
        return any(r == 0 and b == 1 for (r, _), b in p.cells.items())

    def densify(p):
        if member(p):
            return p
        free = 0
        while (0, free) in p.cells:
            free += 1
        return PlaneCondition({**p.cells, (0, free + skip): 1})

    return DenseFamily(
        [DenseSet(0, lambda p: True, lambda p: p, spec={"type": "trivial"}),
         DenseSet(1, member, densify, spec={"type": "hunt"})],
        "plane", entries=[{"type": "trivial"}, {"type": "hunt"}])


def reference_stages(b, family, retry_budget=8, fill_seed=None):
    """bound_chain's stage loop as first written: every attempt rebuilds
    the revealed rectangle from one bit() call per cell.

    Returns the commitments, patches and stage records."""
    finalized, chain, patches, records = {}, [], {}, []
    prev = PlaneCondition.empty()
    fill = GenericPlane(fill_seed=fill_seed)
    for n in range(len(family)):
        reveal_to, attempts = 0, []
        while True:
            revealed = PlaneCondition(
                {(k, col): finalized[k].bit(col)
                 for k in range(n) for col in range(reveal_to)})
            cand = family.densify(n, merge_conditions(prev, revealed))
            clashes = [(k, col) for (k, col), bit in cand.cells.items()
                       if k < n and finalized[k].bit(col) != bit]
            if not clashes:
                break
            attempts.append({"reveal_to": reveal_to,
                             "clashes": sorted(clashes)})
            if len(attempts) > retry_budget:
                raise RetryBudgetExceeded(n, "reference")
            reveal_to = max(reveal_to + 1,
                            max(col for _, col in clashes) + 1)
        chain.append(cand)
        prev = cand
        row_patch = {c: b for (r, c), b in cand.cells.items() if r == n}
        if n < len(b):
            patches[n] = row_patch
        base = b[n] if n < len(b) else fill.row_stream(n)
        finalized[n] = PatchedStream(base, row_patch)
        records.append({"stage": n, "retries": len(attempts),
                        "revealed_cols": reveal_to,
                        "committed_cells": len(cand), "attempts": attempts})
    return chain, patches, records


def retrying_runs():
    yield [BitStream.from_prefix("0000", ConstTail(1))], hunting_family(), None
    yield [BitStream.from_prefix("0" * 7, ConstTail(1))], hunting_family(2), None
    yield [BitStream.constant(1),
           BitStream.from_prefix("10" * 10, ConstTail(0))], square_family(2), None
    for n, rows in ((12, 4), (20, 3)):
        fam = mixed_plane_family(n, seed="mixed")
        yield generic_rows(fam, rows, n, seed="rows"), fam, "other-fill"
    rows = generic_rows(square_family(12, seed="g"), 5, 12, seed="sq")
    yield rows, mixed_plane_family(12), "sq-other"


def test_bound_chain_matches_rebuilt_rectangle_reference():
    total_retries = 0
    for b, fam, fill_seed in retrying_runs():
        trace = bound_chain(b, fam, fill_seed=fill_seed)
        chain, patches, records = reference_stages(b, fam, fill_seed=fill_seed)
        assert trace.conditions == chain
        assert trace.patches == patches
        assert trace.stages == records
        total_retries += sum(rec["retries"] for rec in records)
    assert total_retries >= 4  # the runs above do exercise retries


def test_kept_commitments_hold_no_added_cells():
    """The clash test reads a candidate's added cells once; no commitment
    the trace keeps still holds them."""
    for b, fam, fill_seed in retrying_runs():
        trace = bound_chain(b, fam, fill_seed=fill_seed)
        assert [p._added for p in trace.conditions] == [None] * len(fam)


def cacheless(family, first=None):
    """The family with the densifiers of its sets 0..first - 1 (all of them
    by default) rebuilding their output from its cells, so that it carries
    no cache: no base, no added cells, no known side, no row segments."""
    first = len(family) if first is None else first
    return DenseFamily(
        [DenseSet(s.index, s.member,
                  lambda p, s=s: PlaneCondition(s.densify(p).cells))
         if s.index < first else s for s in family.sets],
        "plane", entries=family.entries)


def fallback_runs():
    """(rows, family, fill seed, whether the last commitment has row
    segments): runs whose clash test or row patch cannot use the caches.
    With every densifier cache-less, each clash test takes the difference
    of the cell maps and each row patch scans its condition's cells. With
    only the first one cache-less, every later merge gets a base with no
    row segments; an unseeded family never learns them, a seeded one
    learns them for its fill key."""
    for seed in (None, "mixed"):
        fam = mixed_plane_family(12, seed=seed)
        b = generic_rows(fam, 4, 12, seed="rows")
        yield b, cacheless(fam), "fb", False
        yield b, cacheless(fam, 1), "fb", seed is not None


def test_runs_without_caches_match_the_reference():
    """The clash test falls back to the difference of the cell maps, and
    the row patch to a scan, where a commitment carries no caches; the
    runs give the reference's commitments, patches and stage records."""
    retries = 0
    for b, fam, fill_seed, segments in fallback_runs():
        trace = bound_chain(b, fam, fill_seed=fill_seed)
        assert (trace.conditions, trace.patches, trace.stages) == \
            reference_stages(b, fam, fill_seed=fill_seed)
        assert trace.conditions[0]._base is None
        assert (trace.conditions[-1]._rows is not None) == segments
        assert verify_bound(trace).all_passed
        retries += sum(rec["retries"] for rec in trace.stages)
    assert retries >= 4  # the runs above do retry


def _reveal_edits(rec, n):
    """(name, edit of stage record `rec` of stage n, which has two or more
    attempts), each breaking the retry rule in one place."""
    first = rec["attempts"][0]["clashes"]
    second = rec["attempts"][1]["reveal_to"]
    return [
        ("revealed-cols", lambda r: r.update(revealed_cols=r["revealed_cols"]
                                             + 1)),
        ("first-reveal", lambda r: r["attempts"][0].update(reveal_to=1)),
        ("later-reveal", lambda r: r["attempts"][1].update(
            reveal_to=second - 1)),
        ("no-clashes", lambda r: r["attempts"][0].update(clashes=[])),
        ("clash-twice", lambda r: r["attempts"][0].update(
            clashes=first + first[-1:])),
        ("clash-row-past-stage", lambda r: r["attempts"][0].update(
            clashes=first + [[n, 0]])),
        ("clash-col-below-reveal", lambda r: r["attempts"][1].update(
            clashes=[[0, second - 1]])),
    ]


def test_reveal_columns_follow_the_retry_rule():
    """Every retrying run's stage records pass `chain-commitments-in-sets`;
    one edit of a multi-attempt stage's reveal columns or clashes fails
    it, with no replay of the search."""
    traces = [bound_chain(b, fam, fill_seed=fill_seed)
              for b, fam, fill_seed in retrying_runs()]
    for trace in traces:
        assert verify_bound(trace).items[0][1]
    trace = traces[0]  # its stage 1 took 4 attempts
    n = next(n for n, rec in enumerate(trace.stages)
             if len(rec["attempts"]) >= 2)
    for name, edit in _reveal_edits(trace.stages[n], n):
        stages = json.loads(json.dumps(trace.stages))
        edit(stages[n])
        item, ok, detail = verify_bound(
            dataclasses.replace(trace, stages=stages)).items[0]
        assert (item, ok) == ("chain-commitments-in-sets", False), name
        assert detail.startswith("stage records disagree"), (name, detail)


def test_frozen_sq_example():
    """m=2, square family, b0 = 1111..., b1 = 1010...."""
    fam = square_family(2)
    b0 = BitStream.constant(1)
    b1 = BitStream.from_prefix("10" * 10, ConstTail(0))
    trace = bound_chain([b0, b1], fam)
    assert trace.conditions[0] == PlaneCondition({(0, 0): 0})
    assert trace.conditions[1] == PlaneCondition(
        {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    d0, d1 = trace.row_streams("d")
    assert d0.take01(4) == "0111"
    assert d1.take01(4) == "0010"
    assert trace.patches == {0: {0: 0}, 1: {0: 0, 1: 0}}
    assert trace.stages[1]["retries"] == 1  # revealed d_0(1) = 1 and retried


def test_empty_chain_is_plain_fold():
    fam = square_family(3)
    trace = bound_chain([], fam)
    assert trace.row_streams("d") == [] and trace.patches == {}
    assert len(trace.conditions) == 3
    assert meets_family(trace.plane, fam, 3).all_met
    report = verify_bound(trace)
    assert report.all_passed, report.summary()


def test_zero_rows_build():
    assert build_generics_run(square_family(2), 0, 2).streams == {}


def test_built_rows_are_mutually_generic():
    fam = mixed_plane_family(20, seed="mg")
    rows = generic_rows(fam, 3, 20, seed="fill")
    assert len(rows) == 3
    for subset in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
        sub_fam = restrict_rows(fam, subset)
        streams = [rows[i] for i in subset]
        assert mutual_genericity_check(streams, sub_fam, 20).all_met


def test_single_row_build_meets_row_restriction():
    fam = square_family(8)
    rows = generic_rows(fam, 1, 8, seed="one")
    rep = mutual_genericity_check(rows, restrict_rows(fam, [0]), 8)
    assert rep.all_met


def test_bound_chain_full_verification():
    fam = mixed_plane_family(16, seed=None)
    b = generic_rows(fam, 4, 16, seed="rows")
    trace = bound_chain(b, fam, fill_seed="rows")
    report = verify_bound(trace)
    assert report.all_passed, report.summary()
    # patch support never exceeds the committed cells of its row
    top = trace.conditions[-1]
    for row, patch in trace.patches.items():
        assert set(patch) <= set(top.row_cells(row))
    # every committed stage lies inside its dense set and the final plane
    for n, p in enumerate(trace.conditions):
        assert fam[n].member(p)
        assert trace.plane.contains(p)


def test_mutation_outside_commitments_caught_by_patch_check():
    fam = square_family(6)
    b = generic_rows(fam, 2, 6, seed="mut")
    trace = bound_chain(b, fam, fill_seed="mut")
    committed_cols = set(trace.conditions[-1].row_cells(0))
    flip_col = max(committed_cols, default=-1) + 3
    # tamper with row 0 of the plane outside every commitment
    d0 = trace.plane.rows[0]
    patched = dict(d0.patch)
    patched[flip_col] = 1 - d0.bit(flip_col)
    from forcing_lab.bits import PatchedStream
    rows = dict(trace.plane.rows)
    rows[0] = PatchedStream(d0.base, patched)
    tampered = GenericPlane(trace.plane.commitments, rows,
                            trace.plane.fill_seed)
    report = verify_bound(dataclasses.replace(trace, plane=tampered))
    failed = {name for name, ok, _ in report.items if not ok}
    assert "chain-rows-preserved-off-patches" in failed
    assert "chain-commitments-in-sets" not in failed
    assert "chain-chain-descending" not in failed
    assert "chain-commitments-in-plane" not in failed


def test_retry_budget_exceeded_on_adversarial_family():
    """A densifier that keeps inventing fresh wrong cells must give up."""
    evil = hunting_family()
    zeros = BitStream.constant(0)
    with pytest.raises(RetryBudgetExceeded) as err:
        bound_chain([zeros], evil, retry_budget=5)
    assert err.value.stage == 1
    with pytest.raises(RetryBudgetExceeded) as ref:
        reference_stages([zeros], evil, retry_budget=5)
    assert ref.value.stage == err.value.stage


def test_family_smaller_than_rows_rejected():
    with pytest.raises(FamilyTooSmall):
        bound_chain([BitStream.constant(0)] * 3, square_family(2))
    with pytest.raises(EmptyFamily):
        bound_chain([BitStream.constant(0)], square_family(0))
    with pytest.raises(EmptyFamily):
        build_generics_run(square_family(0), 1, 1)
    with pytest.raises(UsageError):
        bound_chain([], square_family(1), retry_budget=0)


def test_runs_of_no_set_accept_an_empty_family():
    """A generics run to horizon 0 and a chain bound of 0 rows need no
    set; over the empty family both verify."""
    generics = build_generics_run(square_family(0), 2, 0)
    chain = bound_chain([], square_family(0))
    assert generics.conditions == [PlaneCondition.empty()]
    assert chain.conditions == [] and chain.stages == []
    for trace in (generics, chain):
        assert verify_trace(trace).all_passed


def test_rows_beyond_inputs_get_fill_bases():
    fam = square_family(5)
    b = generic_rows(fam, 2, 5, seed="fillrow")
    trace = bound_chain(b, fam, fill_seed="fillrow")
    # rows 2..4 were finalized from the fill rule plus commitments
    for r in range(2, 5):
        stream = trace.plane.rows[r]
        for c in range(8):
            assert stream.bit(c) == trace.plane.cell(r, c)


@pytest.mark.parametrize("family", [
    square_family(12, seed="sq"),
    family_from_spec(json.loads((FAMILIES / "plane-mixed12.json").read_text())),
], ids=["squares12", "plane-mixed12"])
def test_deciding_catalog_sets_reads_no_row(tmp_path, monkeypatch, family):
    """On a loaded chain-bound trace of 8 rows, meets_family decides every
    square and cell set from its witness search and the corner's bounds:
    no row stream is read and no fill bit hashed. Verify's report is the
    one of a second loaded copy, read without the counters."""
    path = tmp_path / "chain.json"
    rows = generic_rows(family, 8, len(family), seed="rows")
    write_trace(path, bound_chain(rows, family, fill_seed="s1"))
    trace, copy = load_trace(path), load_trace(path)
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(BitStream, "take01"), (BitStream, "_read"),
                        (PatchedStream, "_read"), (bits, "prng_bit")]:
        counted(owner, name)
    report = meets_family(trace.plane, trace.family, len(trace.family))
    assert report.all_met and calls == []
    monkeypatch.undo()
    assert verify_trace(trace).summary() == verify_trace(copy).summary()


def test_verify_never_raises_on_garbage():
    fam = square_family(2)
    b = generic_rows(fam, 1, 2)
    trace = bound_chain(b, fam)
    broken = GenericPlane(PlaneCondition({(0, 0): 1 - trace.plane.cell(0, 0)}),
                          {}, None)
    report = verify_bound(dataclasses.replace(trace, plane=broken))
    assert not report.all_passed  # reports, does not throw


PLANE_SETS = st.one_of(st.just({"type": "square"}),
                       st.builds(lambda r: {"type": "cell", "row": r},
                                 st.integers(0, 5)))
SEEDS = st.one_of(st.none(), st.sampled_from(["a", "b7", "\u00e9"]))


@given(sets=st.lists(PLANE_SETS, min_size=1, max_size=6),
       family_seed=SEEDS, run_seed=SEEDS, rows=st.integers(1, 5),
       generics=st.one_of(st.none(), st.integers(0, 6)))
@settings(max_examples=30, deadline=None)
def test_random_bound_chains_verify_or_are_too_small(
        tmp_path_factory, sets, family_seed, run_seed, rows, generics):
    tmp = tmp_path_factory.mktemp("bound")
    family = tmp / "family.json"
    family.write_text(json.dumps({"carrier": "plane", "seed": family_seed,
                                  "sets": sets}))
    seed = [] if run_seed is None else ["--seed", run_seed]
    argv = ["bound-chain", "--family", family, "--rows", rows,
            "--out", tmp / "chain.json", *seed]
    if generics is not None:
        horizon = min(generics, len(sets))
        assert run_cli(["build-generics", "--family", family, "--rows", rows,
                         "--horizon", horizon, "--out", tmp / "gen.json",
                         *seed]) == (0, "")
        argv += ["--from-generics", tmp / "gen.json"]
    rc, err = run_cli(argv)
    if rc == 2:
        assert len(sets) < rows
        assert err == (f"error: bound_chain needs {rows} dense sets, "
                       f"family has {len(sets)}\n")
    else:
        assert (rc, err) == (0, "")
        assert run_cli(["verify", "--trace", tmp / "chain.json"]) == (0, "")


STREAMS = st.builds(
    lambda prefix, tail: BitStream.from_prefix(prefix, tail),
    st.text(alphabet="01", max_size=8),
    st.one_of(st.integers(0, 1).map(ConstTail),
              st.sampled_from(["p", "q"]).map(PrngTail)))


@given(sets=st.lists(PLANE_SETS, min_size=1, max_size=8),
       family_seed=SEEDS, fill_seed=SEEDS, rows=st.integers(0, 5),
       generic=st.booleans(), streams=st.lists(STREAMS, max_size=5),
       retry_budget=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_bound_chains_match_the_full_scan_reference(
        sets, family_seed, fill_seed, rows, generic, streams, retry_budget):
    """bound_chain checks only the cells each densify adds; the reference
    checks every cell of every candidate. On random families, with the
    family's own generic rows or arbitrary streams, the two give the same
    commitments, patches and stage records (attempt transcripts included),
    or fail at the same stage."""
    fam = family_from_spec({"carrier": "plane", "seed": family_seed,
                            "sets": sets})
    rows = min(rows, len(fam))
    b = (generic_rows(fam, rows, len(fam), seed=fill_seed) if generic
         else streams[:rows])
    try:
        want = reference_stages(b, fam, retry_budget, fill_seed)
    except RetryBudgetExceeded as ref:
        with pytest.raises(RetryBudgetExceeded) as err:
            bound_chain(b, fam, retry_budget, fill_seed)
        assert err.value.stage == ref.stage
        return
    trace = bound_chain(b, fam, retry_budget, fill_seed)
    assert (trace.conditions, trace.patches, trace.stages) == want
