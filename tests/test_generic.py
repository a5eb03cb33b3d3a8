"""meets_family / mutual_genericity_check semantics."""

import pytest
from hypothesis import example, given, settings, strategies as st

from forcing_lab.bits import BitStream, BitString, PrngTail
from forcing_lab.dense import (DenseFamily, DenseSet, family_from_spec,
                               min_length_family)
from forcing_lab.errors import (BadArity, FamilyTooSmall,
                                IncompatibleConditions)
from forcing_lab.generic import meets_family, mutual_genericity_check
from forcing_lab.plane import GenericPlane, PlaneCondition, merge_conditions


def test_all_zero_stream_misses_ones_set():
    fam = family_from_spec([{"type": "pattern", "word": "1"}])
    rep = meets_family(BitStream.constant(0), fam, 1, budget=256)
    assert not rep.met(0)
    assert not rep.all_met


def test_every_stream_meets_min_length():
    fam = min_length_family(6)
    for stream in (BitStream.constant(0), BitStream.seeded("q")):
        rep = meets_family(stream, fam, 6)
        assert rep.all_met
        for n in range(6):
            w = rep.witness(n)
            assert w.length == n + 1          # the shortest possible witness
            assert fam[n].member(w)
            assert stream.take(n + 1) == w    # witness lies in the filter


def test_finite_condition_filter():
    fam = min_length_family(6)
    rep = meets_family(BitString.from01("010"), fam, 6)
    assert [rep.met(n) for n in range(6)] == [True] * 3 + [False] * 3


@given(st.integers(0, 2 ** 16 - 1), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_budget_monotonicity(seed, factor):
    """Enlarging the budget never flips met(n) from True to False."""
    fam = family_from_spec(
        [{"type": "pattern", "word": "11"}, {"type": "min-length"},
         {"type": "parity", "parity": 1}])
    stream = BitStream.seeded(seed)
    small = meets_family(stream, fam, 3, budget=8)
    large = meets_family(stream, fam, 3, budget=8 * factor)
    for n in range(3):
        assert not small.met(n) or large.met(n)


def test_product_diagonal_fails_separating():
    sep = family_from_spec({"carrier": "product", "arity": 2,
                            "sets": [{"type": "separating"}]})
    c = BitStream.seeded("diag")
    rep = mutual_genericity_check([c, c], sep, 1, budget=128)
    assert not rep.met(0)
    d = BitStream.seeded("other")
    assert mutual_genericity_check([c, d], sep, 1, budget=128).met(0)


def test_empty_filters_empty_family_vacuous():
    fam = family_from_spec({"carrier": "product", "arity": 0, "sets": []})
    rep = mutual_genericity_check([], fam, 0)
    assert rep.all_met and rep.results == []


def test_arity_mismatch():
    fam = min_length_family(2, carrier="product", arity=2)
    with pytest.raises(BadArity):
        mutual_genericity_check([BitStream.constant(0)], fam, 1)
    with pytest.raises(BadArity):
        mutual_genericity_check([BitStream.constant(0)], min_length_family(2), 1)


def test_horizon_beyond_family():
    with pytest.raises(FamilyTooSmall):
        meets_family(BitStream.constant(0), min_length_family(2), 3)


def test_plane_meets():
    fam = family_from_spec({"carrier": "plane",
                            "sets": [{"type": "square"},
                                     {"type": "cell", "row": 1},
                                     {"type": "square"}]})
    commit = PlaneCondition({(r, c): 0 for r in range(3) for c in range(3)})
    plane = GenericPlane(commitments=commit)
    rep = meets_family(plane, fam, 3)
    assert rep.all_met
    assert all(plane.contains(rep.witness(n)) for n in range(3))


# --- finite conditions as filters: witnesses against a brute-force scan ----

STRING_COHEN = family_from_spec(
    [{"type": "min-length"}, {"type": "pattern", "word": "1"},
     {"type": "parity", "parity": 1}, {"type": "pattern", "word": "011"},
     {"type": "parity", "parity": 0}, {"type": "min-length"},
     {"type": "pattern", "word": "10"}, {"type": "parity", "parity": 1}] * 2)
STRING_PRODUCT = family_from_spec(
    {"carrier": "product", "arity": 2,
     "sets": [{"type": "separating"}, {"type": "min-length"},
              {"type": "coord-min-length", "coord": 1}] * 3})
texts01 = st.text(alphabet="01", max_size=40)
budgets = st.one_of(st.none(), st.integers(1, 60))


def _assert_shortest_witnesses(rep, family, cap, candidate):
    """Each reported witness is the shortest member candidate(k), k <= cap,
    and a set is missed exactly when no such candidate exists."""
    for n in range(len(family)):
        want = next((candidate(k) for k in range(cap + 1)
                     if family[n].member(candidate(k))), None)
        assert rep.met(n) == (want is not None)
        assert rep.witness(n) == want


@given(texts01, budgets)
@example("111", None)      # parity 1 (D_2) first met by the whole string
@example("1100000", 5)     # parity 0 (D_4) first met at k = budget
@settings(max_examples=60, deadline=None)
def test_string_filter_witness_is_shortest_member_prefix(text, budget):
    s = BitString.from01(text)
    rep = meets_family(s, STRING_COHEN, len(STRING_COHEN), budget=budget)
    cap = min(rep.budget, len(text))
    _assert_shortest_witnesses(rep, STRING_COHEN, cap, s.prefix)


@given(texts01, texts01, budgets)
@settings(max_examples=60, deadline=None)
def test_string_tuple_witness_is_shortest_member_prefix(a, b, budget):
    pair = (BitString.from01(a), BitString.from01(b))
    rep = meets_family(pair, STRING_PRODUCT, len(STRING_PRODUCT),
                       budget=budget)
    cap = min(rep.budget, len(a), len(b))
    _assert_shortest_witnesses(rep, STRING_PRODUCT, cap,
                               lambda k: (pair[0].prefix(k),
                                          pair[1].prefix(k)))


@given(st.text(alphabet="01", max_size=20), texts01, budgets)
@settings(max_examples=40, deadline=None)
def test_stream_and_string_tuple_witness(prefix, text, budget):
    stream = BitStream.from_prefix(prefix, PrngTail(prefix))
    s = BitString.from01(text)
    rep = meets_family((stream, s), STRING_PRODUCT, len(STRING_PRODUCT),
                       budget=budget)
    cap = min(rep.budget, len(text))
    _assert_shortest_witnesses(rep, STRING_PRODUCT, cap,
                               lambda k: (stream.take(k), s.prefix(k)))


# --- streams and planes as filters: witnesses against a brute-force scan ---

@given(st.text(alphabet="01", max_size=20), budgets)
@settings(max_examples=40, deadline=None)
def test_stream_filter_witness_is_shortest_member_prefix(prefix, budget):
    stream = BitStream.from_prefix(prefix, PrngTail(prefix))
    rep = meets_family(stream, STRING_COHEN, len(STRING_COHEN), budget=budget)
    _assert_shortest_witnesses(rep, STRING_COHEN, rep.budget, stream.take)


plane_entries = st.lists(
    st.one_of(st.just({"type": "square"}),
              st.builds(lambda r: {"type": "cell", "row": r},
                        st.integers(0, 9))),
    min_size=1, max_size=8)
plane_commits = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(0, 1),
    max_size=20)
plane_rows = st.dictionaries(st.integers(0, 9),
                             st.text(alphabet="01", max_size=12), max_size=3)


@given(plane_entries, plane_commits, plane_rows,
       st.sampled_from([None, "f"]), st.data())
@settings(max_examples=60, deadline=None)
def test_plane_filter_witness_is_least_member_corner(entries, commit, rows,
                                                     seed, data):
    """Square and cell sets, and a set with no witness search (some cell
    is 1), against budgets below and above the largest square. The plane's
    corners (`corners`) are views that read the rows only when a value is
    asked for, and must equal fresh restrictions whatever order they are
    asked in."""
    fam = family_from_spec({"carrier": "plane", "sets": entries})
    has_a_one = DenseSet(len(fam), lambda p: 1 in p.cells.values(),
                         lambda p: p)
    fam = DenseFamily(fam.sets + [has_a_one], "plane")
    plane = GenericPlane(
        PlaneCondition(commit), fill_seed=seed,
        rows={r: BitStream.from_prefix(t, PrngTail(t))
              for r, t in rows.items()})
    budget = data.draw(st.one_of(st.none(), st.integers(1, len(fam) + 2)))
    rep = meets_family(plane, fam, len(fam), budget=budget)
    _assert_shortest_witnesses(rep, fam, rep.budget, plane.restriction)
    corner = plane.corners()
    for k in data.draw(st.lists(st.integers(0, 12), max_size=6)):
        assert corner(k) == plane.restriction(k)



def _outcome(fn):
    """fn()'s value, or the type and text of what it raised."""
    try:
        return "value", fn()
    except (IncompatibleConditions, TypeError) as exc:
        return type(exc), str(exc)


# keys a member predicate or caller may test that are not pairs of ints
ODD_KEYS = [(True, 0), (0, True), (True, True), (1.0, 1), (0, 2.0),
            (0.5, 0), (1, 0.5), (1,), (1, 1, 1), 3, "a", None, [0, 0],
            (0, [0])]


@given(plane_commits, plane_rows, st.sampled_from([None, "f"]),
       st.lists(st.integers(0, 12), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(-2, 14), st.integers(-2, 14)),
                max_size=12),
       st.sampled_from(ODD_KEYS))
@settings(max_examples=80, deadline=None)
def test_plane_corner_view_reads_as_its_restriction(commit, rows, seed, ks,
                                                    cells, odd):
    """Each corner from `corners`, asked in any order, against a fresh
    `restriction(k)` on every read a member predicate or caller can make:
    cells inside, outside and at negative coordinates and keys that are
    not pairs of ints (asked before any value is read), then the cell map,
    order, compatibility, merge, key text, JSON and square gaps on both
    sides of k."""
    plane = GenericPlane(
        PlaneCondition(commit), fill_seed=seed,
        rows={r: BitStream.from_prefix(t, PrngTail(t))
              for r, t in rows.items()})
    corner = plane.corners()
    previous = plane.commitments
    for k in ks:
        view, ref = corner(k), plane.restriction(k)
        assert corner(k) is view
        for cell in cells + [(k - 1, k - 1), (k, 0), (0, k), (k, k)]:
            assert (cell in view.cells) == (cell in ref.cells)
        assert (_outcome(lambda: odd in view.cells)
                == _outcome(lambda: odd in ref.cells))
        assert len(view) == len(ref) == len(view.cells) == k * k
        for r, c in cells:
            assert view.get(r, c) == ref.get(r, c)
        assert list(view.cells) == list(ref.cells)
        assert list(view.cells.items()) == list(ref.cells.items())
        assert view == ref and ref == view
        assert view.cells == ref.cells and ref.cells == view.cells
        for other in (previous, plane.commitments, ref):
            assert view.leq(other) == ref.leq(other)
            assert other.leq(view) == other.leq(ref)
            assert view.compatible(other) == ref.compatible(other)
            assert other.compatible(view) == other.compatible(ref)
            for merged in ((view, other), (other, view)):
                swapped = [ref if p is view else p for p in merged]
                assert (_outcome(lambda: merge_conditions(*merged).to_json())
                        == _outcome(lambda: merge_conditions(*swapped)
                                    .to_json()))
        assert view.key_text() == ref.key_text()
        assert view.to_json() == ref.to_json()
        for size in range(max(k - 2, 0), k + 3):
            assert view.square_gaps(size) == ref.square_gaps(size)
        previous = view
