"""The family catalog: densifier contracts, exact structural word search."""

import bisect
import gc
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import bits, dense, towers
from forcing_lab.bits import BitStream, BitString, PrngTail, derive_seed, prng_bit
from forcing_lab.dense import (DenseFamily, DenseSet, build_set,
                               contains_word_at_or_after, family_from_spec,
                               first_difference, load_family_file,
                               min_length_family, mixed_cohen_family,
                               mixed_plane_family, square_family)
from forcing_lab.errors import (AmbiguousNat, CheckFailure, EmptyFamily,
                                FamilyTooSmall, UsageError)
from forcing_lab.plane import GenericPlane, PlaneCondition, merge_conditions
from forcing_lab.towers import (Nat, nat_add, nat_equal, nat_le,
                                nat_mul_pow2, nat_pow2, nat_sub)

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


def _any(cond):
    return True


def _none(cond):
    return False


S = BitString.from01
CELL = PlaneCondition({(0, 0): 1})
# carrier -> (input, densifier, member) of a D_0 whose densifier breaks
# the contract in the carrier's order
NOT_AN_EXTENSION = {
    "cohen": (S("01"), lambda s: S("1"), _any),
    "poset": (S("01"), lambda s: S("00"), _any),
    "product/coordinate-swapped": ((S("0"), S("1")),
                                   lambda t: (t[1], t[0]), _any),
    # zip alone would compare the kept coordinate and pass it
    "product/tuple-shortened": ((S("0"), S("1")), lambda t: t[:1], _any),
    "product/tuple-lengthened": ((S("0"), S("1")),
                                 lambda t: t + (S(""),), _any),
    "plane": (CELL, lambda p: PlaneCondition({(0, 0): 0}), _any),
}
OUTSIDE_ITS_SET = {
    "cohen": (S("01"), lambda s: s.append_bit(1), _none),
    "poset": (S("01"), lambda s: s, _none),
    "product": ((S("0"), S("1")), lambda t: t, _none),
    "plane": (CELL, lambda p: p, _none),
}


def _one_set_family(carrier, member, densify):
    return DenseFamily([DenseSet(0, member, densify)], carrier,
                       arity=2 if carrier == "product" else None)


@pytest.mark.parametrize("case", sorted(NOT_AN_EXTENSION))
def test_densify_rejects_a_non_extension_in_the_carriers_order(case):
    cond, densify, member = NOT_AN_EXTENSION[case]
    fam = _one_set_family(case.split("/")[0], member, densify)
    with pytest.raises(CheckFailure,
                       match="^densifier of D_0 did not extend its input$"):
        fam.densify(0, cond)


@pytest.mark.parametrize("carrier", sorted(OUTSIDE_ITS_SET))
def test_densify_rejects_an_output_outside_its_set(carrier):
    cond, densify, member = OUTSIDE_ITS_SET[carrier]
    fam = _one_set_family(carrier, member, densify)
    with pytest.raises(CheckFailure,
                       match="^densifier of D_0 landed outside its set$"):
        fam.densify(0, cond)


def test_densify_returns_what_the_set_densifies_to():
    fam = family_from_spec({"carrier": "product", "arity": 2, "sets": [
        {"type": "min-length"}, {"type": "separating"}]})
    tup = (S("0"), S("0"))
    assert fam.densify(1, tup) == fam[1].densify(tup) == (S("00"), S("01"))


def test_require_checks_carrier_then_size():
    empty = DenseFamily([], "plane")
    empty.require(("plane",), 0, "a run of no set")
    empty.require(("plane",), -1, "a run of no set")
    with pytest.raises(FamilyTooSmall) as err:
        empty.require(("cohen",), 1, "bound_chain")
    assert type(err.value) is EmptyFamily
    assert str(err.value) == "bound_chain needs at least one dense set"
    fam = min_length_family(2)
    fam.require(("poset", "cohen"), 2, "entangle_wide")
    with pytest.raises(UsageError) as err:
        fam.require(("poset", "plane"), 3, "a wide trace")
    assert not isinstance(err.value, FamilyTooSmall)
    assert str(err.value) == ("a wide trace needs a family over the poset or "
                              "plane carrier, got 'cohen'")
    with pytest.raises(FamilyTooSmall) as err:
        fam.require(("cohen",), 3, "entangle_pair")
    assert str(err.value) == "entangle_pair needs 3 dense sets, family has 2"


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


def test_plane_fill_key_serializes_no_condition(monkeypatch):
    """A seeded densify joins its key from the condition's row segments: no
    json.dumps or to_json of the condition, one derive_seed for the key and
    one per filled row. Unseeded, it derives nothing. The input conditions
    start without segments (PlaneCondition(...), from_json) or carry them
    from the densify that made them."""
    calls = {"dumps": 0, "to_json": 0, "derive_seed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dense.json, "dumps", counted("dumps", json.dumps))
    monkeypatch.setattr(PlaneCondition, "to_json",
                        counted("to_json", PlaneCondition.to_json))
    monkeypatch.setattr(dense, "derive_seed",
                        counted("derive_seed", dense.derive_seed))
    size = 9
    seeded, unseeded = square_family(size, seed="count"), square_family(size)
    cells = [[0, 0, 1], [2, 1, 0], [2, 7, 1]]
    made = PlaneCondition.from_json(cells)
    for p in (PlaneCondition({(r, c): b for r, c, b in cells}), made):
        for dset in (seeded[size - 2], seeded[size - 1]):
            out = dset.densify(p)
            assert calls["dumps"] == calls["to_json"] == 0
            rows = len({r for r, _ in out.cells.keys() - p.cells.keys()})
            assert 0 < calls["derive_seed"] <= rows + 1
            calls.update(derive_seed=0)
            p = out
    for dset in unseeded:
        dset.densify(made)
    assert calls == {"dumps": 0, "to_json": 0, "derive_seed": 0}


@st.composite
def derivations(draw, seeds=fill_seeds):
    """A random plane condition made by a random sequence of square and
    cell densifies (seeded or not), merges of compatible cells, merged
    reveals of a plane's rows (`from_rows`), and `from_json` reloads;
    returns every condition of the sequence. Each step may ask for the fill
    key, so segments are sometimes built from scratch, sometimes grown."""
    seed = draw(seeds)
    conds = [PlaneCondition(draw(plane_cells))]
    for _ in range(draw(st.integers(0, 8))):
        p = conds[-1]
        kind = draw(st.sampled_from(["square", "cell", "merge", "reveal",
                                     "reload"]))
        if kind == "square":
            p = build_set(draw(st.integers(0, 7)), {"type": "square"},
                          "plane", None, seed).densify(p)
        elif kind == "cell":
            p = build_set(draw(st.integers(0, 9)),
                          {"type": "cell", "row": draw(st.integers(0, 9))},
                          "plane", None, seed).densify(p)
        elif kind == "merge":
            q = draw(plane_cells)
            p = merge_conditions(p, PlaneCondition(
                {c: p.cells.get(c, b) for c, b in q.items()}))
        elif kind == "reveal":
            plane = GenericPlane(commitments=p, fill_seed=seed)
            start = draw(st.integers(0, 4))
            stop = start + draw(st.integers(0, 6))
            p = merge_conditions(p, PlaneCondition.from_rows(
                {r: plane.row_stream(r).take01(stop)[start:]
                 for r in draw(st.sets(st.integers(0, 8), max_size=4))},
                start))
        else:
            p = PlaneCondition.from_json(p.to_json())
        if draw(st.booleans()):
            p.key_text()
        conds.append(p)
    return conds


@given(derivations())
@settings(max_examples=150, deadline=None)
def test_plane_key_text_is_the_json_of_the_condition(conds):
    for p in conds:
        assert p.key_text() == json.dumps(p.to_json())


@given(derivations(), st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_square_cache_matches_the_full_square_scan(conds, size):
    """Square `member` and `densify`, which read only the border past the
    corner a condition is known to cover, against a scan of the whole
    square: the same answer, and the missing cells added in row-major
    order after the input's own. Each set is asked twice."""
    square = build_set(size - 1, {"type": "square"}, "plane", None, "sq")
    for p in conds:
        gaps = [(r, c) for r in range(size) for c in range(size)
                if (r, c) not in p.cells]
        for _ in range(2):
            assert square.member(p) == (not gaps)
            out = square.densify(p)
            assert list(out.cells) == list(p.cells) + gaps
            assert square.member(out) and out.leq(p)
            assert (out is p) == (not gaps)


@given(derivations())
@settings(max_examples=150, deadline=None)
def test_leq_matches_the_view_compare_on_every_pair(conds):
    for a in conds:
        for b in conds:
            assert a.leq(b) == (a.cells.items() >= b.cells.items())


def test_a_dead_base_never_answers_leq():
    """A condition made from a base that has since been freed compares by
    its cells, even against new conditions, one of which may reuse the
    base's memory."""
    base = PlaneCondition({(0, 0): 1})
    made = build_set(3, {"type": "square"}, "plane", None, "d").densify(base)
    assert made.leq(base)
    del base
    gc.collect()
    assert made._base() is None
    assert not any(map(made.leq, [PlaneCondition({(9, 9): 1})
                                  for _ in range(200)]))


def bit_by_bit_parity_search(stream, budget, need, target):
    """The parity witness search as one bit read per position, k = 0..budget."""
    ones = 0
    for k in range(budget + 1):
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


# --- the run branches against their two-cursor reference --------------------
#
# Before they decided by the last capped match and the first differing run,
# the run branches of `contains_word_at_or_after` and `first_difference`
# searched every capped match and walked both run lists with two cursors.
# Those branches are kept here as the reference.

def reference_word_search_on_runs(s, word, minpos):
    w = len(word)
    blocks = []  # (bit, true_start, true_len, sprime_start, trunc_len)
    sprime = []
    pos = 0
    spos = 0
    for bit, length in s.runs:
        trunc = (length if not isinstance(length, Nat) and length <= w
                 else w)
        blocks.append((bit, pos, length, spos, trunc))
        sprime.append(str(bit) * trunc)
        pos = nat_add(pos, length)
        spos += trunc
    text = "".join(sprime)
    starts = [b[3] for b in blocks]
    hit = text.find(word)
    while hit != -1:
        i = bisect.bisect_right(starts, hit) - 1
        j = bisect.bisect_right(starts, hit + w - 1) - 1
        ok = True
        for k in range(i + 1, j):
            bit, _, length, _, trunc = blocks[k]
            if isinstance(length, Nat) or length > trunc:
                ok = False
                break
        if ok:
            if i == j:
                _, tstart, tlen, _, _ = blocks[i]
                anchor = nat_sub(nat_add(tstart, tlen), w)
            else:
                _, tstart, tlen, sstart, trunc = blocks[i]
                d = (sstart + trunc) - hit
                anchor = nat_sub(nat_add(tstart, tlen), d)
            if nat_le(minpos, anchor):
                return True
        hit = text.find(word, hit + 1)
    return False


def reference_first_difference_on_runs(a, b):
    ra, rb = list(a.runs), list(b.runs)
    i = j = 0
    la = ra[0][1] if ra else 0
    lb = rb[0][1] if rb else 0
    pos = 0
    while i < len(ra) and j < len(rb):
        if ra[i][0] != rb[j][0]:
            return pos
        if nat_le(la, lb):
            step = la
        else:
            step = lb
        pos = nat_add(pos, step)
        la = nat_sub(la, step)
        lb = nat_sub(lb, step)
        if nat_equal(la, 0):
            i += 1
            la = ra[i][1] if i < len(ra) else 0
        if nat_equal(lb, 0):
            j += 1
            lb = rb[j][1] if j < len(rb) else 0
    return None


def _run_lengths():
    """Run lengths: small ints, ints at and past `_SMALL_CMP_BOUND` (the
    last is 2^4050), and symbolic lengths, among them two pairs of
    distinct nodes of one value. Built per example, so no node outlives
    the test."""
    x, y = nat_pow2(5000), nat_pow2(5001)
    bound = towers._SMALL_CMP_BOUND
    return (1, 2, 3, 4, 5, 7, 9, bound - 1, bound, bound << 50,
            x, nat_mul_pow2(2, 4999), y, nat_add(x, y), nat_add(y, x),
            nat_add(x, 3))


def _outcome(fn, *args):
    """What fn returns, or the text of the AmbiguousNat it raises."""
    try:
        return "value", fn(*args)
    except AmbiguousNat as exc:
        return "AmbiguousNat", str(exc)


def _same(got, want):
    """Equal outcomes: one kind, and values of one type that are equal (a
    symbolic position only to the same interned node)."""
    return (got[0] == want[0] and type(got[1]) is type(want[1])
            and got[1] == want[1])


def _run_string(spec, lengths):
    return BitString([(bit, lengths[i]) for bit, i in spec])


run_lists = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 15)),
                     max_size=6)
# below the bound, near a run end of the string's int prefix, or anywhere
minposes = st.one_of(
    st.integers(0, 40),
    st.tuples(st.integers(0, 6), st.integers(-9, 9)),
    st.integers(0, towers._SMALL_CMP_BOUND - 1))


@settings(max_examples=400)
@given(run_lists, st.text(alphabet="01", min_size=1, max_size=7), minposes)
def test_word_search_on_run_lists_matches_the_reference(spec, word, minpos):
    """`minpos` is a set index, far below `_SMALL_CMP_BOUND`, which is
    where the word search is exact; each string here is held as runs."""
    lengths = _run_lengths()
    with mock.patch.object(bits, "_MATERIALIZE_LIMIT", 0):
        s = _run_string(spec, lengths)
    if isinstance(minpos, tuple):
        index, shift = minpos
        ends = list(itertools.accumulate(
            itertools.takewhile(lambda n: type(n) is int,
                                (length for _, length in s.runs))))
        minpos = ends[index % len(ends)] + shift if ends else shift
        minpos = min(max(minpos, 0), towers._SMALL_CMP_BOUND - 1)
    assert s.is_empty or s._runs is not None
    got = _outcome(contains_word_at_or_after, s, word, minpos)
    want = _outcome(reference_word_search_on_runs, s, word, minpos)
    assert _same(got, want), (got, want)


@settings(max_examples=400)
@given(run_lists, run_lists, run_lists)
def test_first_difference_on_run_lists_matches_the_reference(
        shared, tail_a, tail_b):
    """Two strings sharing a run prefix, held as runs, both ways round."""
    lengths = _run_lengths()
    with mock.patch.object(bits, "_MATERIALIZE_LIMIT", 0):
        a = _run_string(shared + tail_a, lengths)
        b = _run_string(shared + tail_b, lengths)
    for s, t in ((a, b), (b, a), (a, a)):
        got = _outcome(first_difference, s, t)
        want = _outcome(reference_first_difference_on_runs, s, t)
        assert _same(got, want), (got, want)


def test_a_match_from_a_capped_run_into_the_next_starts_where_it_must():
    """A run capped at the word's width holds the match's first bits; the
    match starts that many bits before the run's true end."""
    with mock.patch.object(bits, "_MATERIALIZE_LIMIT", 0):
        s = BitString.from01("1" + "0" * 10 + "1")
    assert s._runs is not None
    assert contains_word_at_or_after(s, "0001", 8)       # 0001 at 8
    assert not contains_word_at_or_after(s, "0001", 9)
    assert not contains_word_at_or_after(s, "1001", 0)
    big = nat_pow2(5000)
    t = BitString.from01("1").append_run(0, big).append01("10")
    for word, want in (("001", True), ("0011", False), ("0010", True),
                       ("10001", False)):
        assert contains_word_at_or_after(t, word, 1000) is want
        assert reference_word_search_on_runs(t, word, 1000) is want


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
