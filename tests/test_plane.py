"""Plane conditions: merge as greatest lower bound, order, planes."""

import json

import pytest
from hypothesis import given, strategies as st

from forcing_lab.bits import (BitStream, PatchedStream, PrngTail,
                              derive_seed, prng_bit)
from forcing_lab.errors import IncompatibleConditions
from forcing_lab.plane import GenericPlane, PlaneCondition, merge_conditions

cells = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(0, 1),
    max_size=12)
conditions = cells.map(PlaneCondition)


def test_merge_identity():
    p = PlaneCondition({(0, 0): 1})
    assert merge_conditions(p, PlaneCondition.empty()) == p
    assert merge_conditions(PlaneCondition.empty(), p) == p


def test_merge_single_cell_clash():
    p = PlaneCondition({(0, 0): 1})
    q = PlaneCondition({(0, 0): 0})
    with pytest.raises(IncompatibleConditions) as err:
        merge_conditions(p, q)
    assert err.value.cell == (0, 0)


def test_merge_disjoint_supports():
    p = PlaneCondition({(0, 0): 1})
    q = PlaneCondition({(1, 0): 0})
    assert merge_conditions(p, q) == PlaneCondition({(0, 0): 1, (1, 0): 0})


@given(conditions, conditions)
def test_merge_is_greatest_lower_bound(p, q):
    if not p.compatible(q):
        with pytest.raises(IncompatibleConditions):
            merge_conditions(p, q)
        return
    m = merge_conditions(p, q)
    assert m.leq(p) and m.leq(q)
    # any common strengthening r of p and q is also below m
    r = PlaneCondition({**p.cells, **q.cells, (9, 9): 1})
    assert r.leq(m)


@given(conditions, conditions)
def test_leq_is_partial_order(p, q):
    assert p.leq(p)
    if p.leq(q) and q.leq(p):
        assert p == q


def test_plane_cells_and_rows_agree():
    commit = PlaneCondition({(0, 0): 1, (0, 3): 0, (2, 1): 1})
    for seed in (None, "s1"):
        plane = GenericPlane(commitments=commit, fill_seed=seed)
        for r in range(4):
            stream = plane.row_stream(r)
            for c in range(8):
                assert stream.bit(c) == plane.cell(r, c)
        assert plane.cell(0, 0) == 1 and plane.cell(2, 1) == 1
        restr = plane.restriction(4)
        assert plane.contains(restr)
        assert plane.contains(commit)


row_bases = st.dictionaries(
    st.integers(0, 5),
    st.tuples(st.text(alphabet="01", max_size=6),
              st.dictionaries(st.integers(0, 9), st.integers(0, 1),
                              max_size=3)),
    max_size=3)


@given(conditions, row_bases, st.sampled_from([None, "s1", "é"]),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 14)), max_size=4))
def test_plane_rows_cells_and_fill_agree(commit, bases, seed, warm_cells):
    rows = {r: PatchedStream(BitStream.from_prefix(prefix, PrngTail(f"b{r}")),
                             patch)
            for r, (prefix, patch) in bases.items()}
    plane = GenericPlane(commitments=commit, rows=rows, fill_seed=seed)
    for r, c in warm_cells:  # read other cells first; the bits must not move
        plane.cell(r, c)
    fresh = GenericPlane(fill_seed=seed)
    corner = plane.restriction(7)
    for r in range(7):
        stream = plane.row_stream(r)
        for c in range(12):
            fill = (0 if seed is None
                    else prng_bit(derive_seed(seed, "plane-fill", r), c))
            assert fresh.cell(r, c) == fill
            assert stream.bit(c) == plane.cell(r, c)
            if c < 7:
                assert corner.get(r, c) == plane.cell(r, c)
            if r in rows:
                assert plane.cell(r, c) == rows[r].bit(c)
            elif (r, c) in commit.cells:
                assert plane.cell(r, c) == commit.cells[(r, c)]
            else:
                assert plane.cell(r, c) == fill


def test_plane_json_roundtrip():
    commit = PlaneCondition({(1, 1): 1})
    plane = GenericPlane(commitments=commit, fill_seed="xyz")
    plane2 = GenericPlane.from_json(json.loads(
        json.dumps(plane.to_json(), default=PlaneCondition.to_json)))
    assert plane2.commitments == commit
    assert all(plane.cell(r, c) == plane2.cell(r, c)
               for r in range(4) for c in range(4))


@st.composite
def condition_pairs(draw):
    """(p, q) where q takes some of p's cells, flips some of those, and
    adds cells of its own, so that q is often above, clashing with or
    disjoint from p."""
    p = draw(cells)
    q = {}
    for cell, bit in p.items():
        use = draw(st.sampled_from(["keep", "flip", "drop", "drop"]))
        if use != "drop":
            q[cell] = bit if use == "keep" else 1 - bit
    q.update(draw(cells))
    order = draw(st.permutations(list(q)))
    return PlaneCondition(p), PlaneCondition({c: q[c] for c in order})


def per_cell_merge(p, q):
    """merge_conditions as a loop over q's cells: the union, or the first
    cell of q, in q's order, that p sets to the other bit."""
    merged = dict(p.cells)
    for cell, bit in q.cells.items():
        if merged.get(cell, bit) != bit:
            return cell
        merged[cell] = bit
    return PlaneCondition(merged)


@given(condition_pairs())
def test_view_kernels_match_per_cell_definitions(pq):
    p, q = pq
    for a, b in ((p, q), (q, p)):
        assert a.leq(b) == all(a.cells.get(c) == bit
                               for c, bit in b.cells.items())
        assert a.compatible(b) == all(a.cells.get(c, bit) == bit
                                      for c, bit in b.cells.items())
        want = per_cell_merge(a, b)
        if isinstance(want, PlaneCondition):
            got = merge_conditions(a, b)
            assert got == want and list(got.cells) == list(want.cells)
        else:
            with pytest.raises(IncompatibleConditions) as err:
                merge_conditions(a, b)
            assert err.value.cell == want
            assert str(err.value) == f"conditions disagree at cell {want}"


@given(cells, st.integers(0, 6), st.sampled_from([None, "s1"]))
def test_restriction_and_row_cells_match_per_cell_definitions(commit, size,
                                                               seed):
    p = PlaneCondition(commit)
    plane = GenericPlane(commitments=p, fill_seed=seed)
    assert plane.restriction(size).cells == {
        (r, c): plane.cell(r, c) for r in range(size) for c in range(size)}
    for row in range(7):
        assert p.row_cells(row) == {c: b for (r, c), b in commit.items()
                                    if r == row}
    assert PlaneCondition.from_json(p.to_json()) == p
