"""The family catalog: densifier contracts, exact structural word search."""

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import bits, dense
from forcing_lab.bits import BitStream, BitString, PrngTail, derive_seed, prng_bit
from forcing_lab.dense import (DenseFamily, DenseSet, build_set,
                               contains_word_at_or_after, family_from_spec,
                               first_difference, load_family_file,
                               min_length_family, mixed_cohen_family,
                               mixed_plane_family, square_family)
from forcing_lab.errors import UsageError
from forcing_lab.plane import PlaneCondition
from forcing_lab.towers import nat_le, nat_pow2

bit_texts = st.text(alphabet="01", max_size=30)
seeds = st.one_of(st.none(), st.integers(0, 5).map(lambda i: f"seed{i}"))


def restrict_rows(family, rows):
    """Project a catalog plane family onto a tuple of rows.

    The result is a product family over streams indexed by `rows`: a square
    set becomes per-coordinate min-length, a cell set constrains the
    coordinate owning its row (or nothing, if the row was dropped).
    """
    rows = list(rows)
    sets = []
    for i, entry in enumerate(family.entries):
        if entry["type"] == "square":
            spec = {"type": "min-length"}
        elif entry["row"] in rows:
            spec = {"type": "coord-min-length",
                    "coord": rows.index(entry["row"])}
        else:
            sets.append(DenseSet(i, lambda t: True, lambda t: t))
            continue
        sets.append(build_set(i, spec, "product", len(rows), None))
    return DenseFamily(sets, "product", arity=len(rows))


def cohen_family(seed):
    return family_from_spec({
        "carrier": "cohen", "seed": seed,
        "sets": [{"type": "min-length"}, {"type": "pattern", "word": "101"},
                 {"type": "parity", "parity": 1}, {"type": "pattern", "word": "11"},
                 {"type": "min-length"}, {"type": "parity", "parity": 0}]})


@given(bit_texts, seeds)
@settings(max_examples=60)
def test_cohen_densifier_contract(text, seed):
    """densify(p) <= p and member(densify(p)), for every catalog set."""
    fam = cohen_family(seed)
    p = BitString.from01(text)
    for dset in fam:
        out = dset.densify(p)
        assert out.end_extends(p)
        assert dset.member(out)
        again = dset.densify(p)
        assert again == out  # purity


@given(bit_texts, bit_texts, seeds)
@settings(max_examples=40)
def test_product_densifier_contract(a, b, seed):
    fam = family_from_spec({
        "carrier": "product", "arity": 2, "seed": seed,
        "sets": [{"type": "min-length"}, {"type": "separating"},
                 {"type": "coord-min-length", "coord": 1}]})
    tup = (BitString.from01(a), BitString.from01(b))
    for dset in fam:
        out = dset.densify(tup)
        assert len(out) == 2
        assert all(o.end_extends(i) for o, i in zip(out, tup))
        assert dset.member(out)


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.integers(0, 1), max_size=8),
       seeds)
@settings(max_examples=40)
def test_plane_densifier_contract(cells, seed):
    fam = family_from_spec({
        "carrier": "plane", "seed": seed,
        "sets": [{"type": "square"}, {"type": "cell", "row": 2},
                 {"type": "square"}]})
    p = PlaneCondition(cells)
    for dset in fam:
        out = dset.densify(p)
        assert out.leq(p)
        assert dset.member(out)


plane_cells = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(0, 1),
    max_size=16)
fill_seeds = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(
    ["s", "fill-1", "é", "семя", "种子"]))


def reference_fill_bit(seed, index, p, r, c):
    """The plane fill rule written per cell, as a reference."""
    if seed is None:
        return 0
    key = derive_seed(seed, "densify", index, json.dumps(p.to_json()))
    return prng_bit(derive_seed(key, r), c)


@given(plane_cells, st.integers(0, 6), st.integers(0, 6), fill_seeds)
@settings(max_examples=80)
def test_plane_fill_matches_per_cell_reference(cells, index, row, seed):
    p = PlaneCondition(cells)
    size = index + 1
    square = dict(p.cells)
    for r in range(size):
        for c in range(size):
            if (r, c) not in square:
                square[(r, c)] = reference_fill_bit(seed, index, p, r, c)
    dset = build_set(index, {"type": "square"}, "plane", None, seed)
    assert dset.densify(p) == PlaneCondition(square)

    cell = dict(p.cells)
    if (row, index) not in cell:
        cell[(row, index)] = reference_fill_bit(seed, index, p, row, index)
    dset = build_set(index, {"type": "cell", "row": row}, "plane", None, seed)
    assert dset.densify(p) == PlaneCondition(cell)


@given(plane_cells, st.integers(0, 6), st.integers(0, 6), fill_seeds)
@settings(max_examples=80)
def test_plane_members_match_per_cell_definitions(cells, index, row, seed):
    """Square and cell `member` against their sets' definitions, before and
    after `densify`; every set is asked twice, so a square's cell list is
    reused."""
    square = build_set(index, {"type": "square"}, "plane", None, seed)
    cell = build_set(index, {"type": "cell", "row": row}, "plane", None, seed)
    size = index + 1
    for p in (PlaneCondition(cells), PlaneCondition.empty()):
        for _ in range(2):
            assert square.member(p) == all(
                (r, c) in p.cells for r in range(size) for c in range(size))
            assert cell.member(p) == ((row, index) in p.cells)
        for dset in (square, cell):
            out = dset.densify(p)
            assert dset.member(out) and out.leq(p)
            assert set(out.cells) - set(p.cells) == {
                rc for rc in ({(r, c) for r in range(size)
                               for c in range(size)}
                              if dset is square else {(row, index)})
                if rc not in p.cells}


def test_plane_fill_serializes_once_per_densify(monkeypatch):
    calls = {"dumps": 0, "derive_seed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dense.json, "dumps", counted("dumps", json.dumps))
    monkeypatch.setattr(dense, "derive_seed",
                        counted("derive_seed", dense.derive_seed))
    p = PlaneCondition({(0, 0): 1, (2, 1): 0})
    size = 9
    square_family(size, seed="count")[size - 1].densify(p)
    assert calls["dumps"] == 1
    assert calls["derive_seed"] <= size + 1
    calls.update(dumps=0, derive_seed=0)
    square_family(size)[size - 1].densify(p)
    assert calls == {"dumps": 0, "derive_seed": 0}


def bit_by_bit_parity_search(stream, budget, need, target):
    """The parity witness search as one bit read per position."""
    ones = 0
    for k in range(budget):
        if k >= need and ones % 2 == target:
            return k
        ones += stream.bit(k)
    return None


def bit_by_bit_separating_search(streams, budget):
    """The separating witness search as one bit read per position."""
    for k in range(budget):
        column = [s.bit(k) for s in streams]
        if any(b != column[0] for b in column[1:]):
            return k + 1
    return None


stream_prefixes = st.text(alphabet="01", max_size=12)


@given(stream_prefixes, st.integers(0, 8), st.integers(0, 1),
       st.integers(0, 40))
def test_parity_search_matches_bit_by_bit(prefix, index, target, budget):
    stream = BitStream.from_prefix(prefix, PrngTail(prefix))
    search = build_set(index, {"type": "parity", "parity": target},
                       "cohen", None, None).witness_search
    assert search(stream, budget) == bit_by_bit_parity_search(
        stream, budget, index + 1, target)


@given(st.lists(stream_prefixes, min_size=2, max_size=4), st.integers(0, 40))
def test_separating_search_matches_bit_by_bit(prefixes, budget):
    # equal tails, so prefixes that agree give streams that agree
    streams = [BitStream.from_prefix(p, PrngTail("t")) for p in prefixes]
    search = build_set(0, {"type": "separating"}, "product", len(streams),
                       None).witness_search
    assert search(streams, budget) == bit_by_bit_separating_search(
        streams, budget)


# At the real limit every string here is text-backed; at 8 most of them
# are run-backed, so the run-compressed paths meet the same naive model.
limits = pytest.mark.parametrize("limit", [bits._MATERIALIZE_LIMIT, 8])


@limits
@given(bit_texts, st.sampled_from(["1", "01", "101", "11", "000"]),
       st.integers(0, 8))
def test_word_search_matches_naive(limit, text, word, minpos):
    with mock.patch.object(bits, "_MATERIALIZE_LIMIT", limit):
        s = BitString.from01(text)
        assert contains_word_at_or_after(s, word, minpos) == \
            (text.find(word, minpos) != -1)


def test_word_search_on_huge_strings():
    big = nat_pow2(5000)
    s = BitString.from01("00001").append_run(0, big).append_bit(1)
    assert contains_word_at_or_after(s, "01", 2)       # at the huge boundary
    assert contains_word_at_or_after(s, "001", 2)
    assert not contains_word_at_or_after(s, "11", 0)
    assert not contains_word_at_or_after(s, "101", 0)
    assert contains_word_at_or_after(s, "0000", 1000)  # inside the huge run
    # occurrence exists only below minpos
    t = BitString.from01("11").append_run(0, big)
    assert not contains_word_at_or_after(t, "11", 1)
    assert contains_word_at_or_after(t, "11", 0)


@limits
@given(bit_texts, bit_texts)
def test_first_difference_matches_naive(limit, a, b):
    with mock.patch.object(bits, "_MATERIALIZE_LIMIT", limit):
        s, t = BitString.from01(a), BitString.from01(b)
        naive = next((i for i in range(min(len(a), len(b))) if a[i] != b[i]),
                     None)
        assert first_difference(s, t) == naive


def test_first_difference_on_huge_strings():
    big = nat_pow2(5000)
    s = BitString.from01("01").append_run(0, big).append_bit(1)
    assert first_difference(s, BitString.from01("011")) == 2
    assert first_difference(s, BitString.from01("0100")) is None
    assert first_difference(s, s) is None
    assert first_difference(BitString.from01("1").append_run(0, big), s) == 0


def test_parity_sets_on_huge_strings():
    fam = family_from_spec([{"type": "parity", "parity": 0},
                            {"type": "parity", "parity": 1}])
    huge = BitString.from01("1").append_run(0, nat_pow2(5000)).append_bit(1)
    assert fam[0].member(huge)          # two 1s, even
    assert not fam[1].member(huge)
    extended = fam[1].densify(huge)
    assert fam[1].member(extended)
    assert extended.end_extends(huge)


def test_min_length_sets_on_huge_strings():
    fam = min_length_family(5)
    huge = BitString.empty().append_run(0, nat_pow2(4200))
    for dset in fam:
        assert dset.member(huge)
        assert dset.densify(huge) is huge


def test_pattern_set_semantics():
    fam = family_from_spec([{"type": "pattern", "word": "101"}] * 3)
    d2 = fam[2]  # needs an occurrence starting at index >= 3
    assert not d2.member(BitString.from01("101"))
    assert not d2.member(BitString.from01("00101"))   # occurrence at 2
    assert d2.member(BitString.from01("000101"))      # occurrence at 3
    out = d2.densify(BitString.from01("1"))
    assert nat_le(3 + 3, out.length)


def test_family_loading(tmp_path):
    spec = {"carrier": "cohen", "sets": [{"type": "min-length"}] * 4}
    path = tmp_path / "fam.json"
    import json
    path.write_text(json.dumps(spec))
    fam = load_family_file(path)
    assert len(fam) == 4 and fam.carrier == "cohen"
    assert fam.describe()["sets"] == spec["sets"]

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([{"type": "min-length"}]))
    assert load_family_file(bare).carrier == "cohen"

    with pytest.raises(UsageError):
        family_from_spec([{"type": "nonsense"}])
    with pytest.raises(UsageError):
        load_family_file(tmp_path / "missing.json")


def test_builders_and_restriction():
    assert len(min_length_family(5)) == 5
    assert len(mixed_cohen_family(64, seed="s")) == 64
    assert square_family(3).carrier == "plane"
    assert mixed_plane_family(48).carrier == "plane"

    plane_fam = mixed_plane_family(9)
    prod = restrict_rows(plane_fam, [0, 2])
    assert prod.carrier == "product" and prod.arity == 2
    tup = (BitString.from01(""), BitString.from01(""))
    for dset in prod:
        out = dset.densify(tup)
        assert dset.member(out)
