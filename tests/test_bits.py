"""BitString order laws, stream tails, payload sources."""

import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from forcing_lab import bits, towers
from forcing_lab.bits import (BitStream, BitString, ConstTail, PatchedStream,
                              PayloadSource, PrngTail, read_bit_file,
                              stream_from_json, write_bit_file)
from forcing_lab.errors import AmbiguousNat, PayloadExhausted, UsageError
from forcing_lab.towers import (NatTable, is_huge, nat_add, nat_equal, nat_le,
                                nat_mul_pow2, nat_pow2, nat_sub)

bit_texts = st.text(alphabet="01", max_size=40)


@given(bit_texts)
def test_from01_roundtrip(text):
    s = BitString.from01(text)
    assert s.to01() == text
    assert s.length == len(text)


def test_runs_normalize():
    s = BitString([(0, 2), (0, 3), (1, 0), (1, 1)])
    assert s.runs == ((0, 5), (1, 1))
    assert s.to01() == "000001"


def test_invalid_characters_rejected():
    with pytest.raises(UsageError):
        BitString.from01("010x")


@given(bit_texts, bit_texts)
def test_concat_and_strip(a, b):
    sa, sb = BitString.from01(a), BitString.from01(b)
    joined = sa.concat(sb)
    assert joined.to01() == a + b
    assert joined.strip_prefix(sa) == sb
    assert joined.end_extends(sa)


@given(bit_texts, bit_texts)
def test_end_extension_is_prefix_order(a, b):
    sa, sb = BitString.from01(a), BitString.from01(b)
    assert sa.end_extends(sb) == a.startswith(b)


@given(bit_texts)
def test_order_laws(text):
    s = BitString.from01(text)
    assert s.end_extends(s)
    for k in range(len(text) + 1):
        p = s.prefix(k)
        assert s.end_extends(p)
        if k < len(text):
            assert s.proper_end_extends(p)
        assert not p.proper_end_extends(s) or len(text) == k


@given(bit_texts)
def test_bit_indexing_matches_text(text):
    s = BitString.from01(text)
    for i, ch in enumerate(text):
        assert s.bit(i) == int(ch)
    with pytest.raises(IndexError):
        s.bit(len(text))


def test_pad_and_append():
    s = BitString.from01("01")
    assert s.pad_zeros_to(5).to01() == "01000"
    assert s.append_bit(1).to01() == "011"
    assert s.append01("11").to01() == "0111"
    assert s.pad_zeros_to(2) is s


def test_huge_runs_stay_structural():
    big = nat_pow2(5000)
    s = BitString.from01("01").append_run(0, big).append_bit(1)
    assert is_huge(s.length)
    assert not s.is_concrete
    assert s.end_extends(BitString.from01("01"))
    rest = s.strip_prefix(BitString.from01("01"))
    assert rest.runs[0] == (0, big) and rest.runs[0][1] is big
    assert s.bit(0) == 0 and s.bit(1) == 1 and s.bit(2) == 0
    key1, key2 = s.stable_key(), s.stable_key()
    assert key1 == key2 and "runs" in key1
    table = NatTable()
    obj = s.to_json(table)
    assert BitString.from_json(obj, NatTable.decode_all(table.nodes)) == s


# --- differential test against a plain str model --------------------------

def _runs(text):
    return tuple((int(b), len(list(g))) for b, g in itertools.groupby(text))


def _run_json(text):
    return json.dumps({"runs": [list(r) for r in _runs(text)], "nats": []},
                      sort_keys=True, separators=(",", ":"))


short_texts = st.text(alphabet="01", max_size=12)
string_ops = st.lists(st.one_of(
    st.tuples(st.just("append_run"), st.integers(0, 1), st.integers(0, 12)),
    st.tuples(st.just("append01"), short_texts),
    st.tuples(st.just("concat"), short_texts),
    st.tuples(st.just("pad_zeros_to"), st.integers(0, 12)),
    st.tuples(st.just("prefix"), st.integers(0, 99)),
    st.tuples(st.just("strip_prefix"), st.integers(0, 99)),
), max_size=12)


def _apply(s, model, op):
    name, *args = op
    if name == "append_run":
        bit, n = args
        return s.append_run(bit, n), model + str(bit) * n
    if name == "append01":
        return s.append01(args[0]), model + args[0]
    if name == "concat":          # an operand built from runs, not from text
        return s.concat(BitString(_runs(args[0]))), model + args[0]
    if name == "pad_zeros_to":
        n = len(model) + args[0]
        return s.pad_zeros_to(n), model.ljust(n, "0")
    k = args[0] % (len(model) + 1)
    if name == "prefix":
        return s.prefix(k), model[:k]
    return s.strip_prefix(BitString.from01(model[:k])), model[k:]


def _assert_agrees(s, model, other, limit):
    assert s.length == len(model) and s.is_concrete
    if len(model) <= limit:
        assert s.to01() == model
    else:
        with pytest.raises(AmbiguousNat):
            s.to01()
    assert s.runs == _runs(model)
    assert [s.bit(i) for i in range(len(model))] == [int(c) for c in model]
    with pytest.raises(IndexError):
        s.bit(len(model))
    assert s.ones() == model.count("1")
    o = BitString.from01(other)
    assert s.end_extends(o) == model.startswith(other)
    assert (s.strip_prefix(o) is None) == (not model.startswith(other))
    assert s.stable_key() == (model if len(model) <= min(limit, 4096)
                              else _run_json(model))
    assert BitString.from_json(s.to_json(NatTable()), []) == s
    for twin in (BitString.from01(model), BitString(_runs(model))):
        assert s == twin and hash(s) == hash(twin)
    assert (s == o) == (model == other)


# The real limit keeps every string here as text; a limit of 8 makes most
# of them run-backed, so each operation also meets mixed operands.
@pytest.mark.parametrize("limit", [bits._MATERIALIZE_LIMIT, 8])
@given(short_texts, string_ops, short_texts)
def test_bitstring_agrees_with_str_model(limit, start, ops, other):
    with mock.patch.object(bits, "_MATERIALIZE_LIMIT", limit):
        s, model = BitString.from01(start), start
        _assert_agrees(s, model, other, limit)
        for op in ops:
            s, model = _apply(s, model, op)
            _assert_agrees(s, model, other, limit)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5)), max_size=8))
def test_pairs_and_text_build_equal_strings(pairs):
    text = "".join(str(b) * n for b, n in pairs)
    a, b = BitString(pairs), BitString.from01(text)
    assert a == b and hash(a) == hash(b)
    assert a.runs == b.runs == _runs(text)


def _walk_strip_prefix(s, other):
    """strip_prefix as a walk over other's runs, as it was before run
    prefixes were compared as tuples: (the rest or None, None), or (None,
    the index of other's run at which it raised AmbiguousNat)."""
    mine = list(s.runs)
    i = 0
    for r, (b, want) in enumerate(other.runs):
        if i >= len(mine):
            return None, None
        mb, ml = mine[i]
        if mb != b:
            return None, None
        try:
            if type(want) is int and type(ml) is int:
                if want > ml:
                    return None, None
                if want == ml:
                    i += 1
                else:
                    mine[i] = (mb, ml - want)
            elif nat_le(want, ml):
                rest = nat_sub(ml, want)
                if nat_equal(rest, 0):
                    i += 1
                else:
                    mine[i] = (mb, rest)
            else:
                return None, None
        except AmbiguousNat:
            return None, r
    left = tuple(mine[i:])
    return BitString._make(left, nat_add(*(l for _, l in left), 0)), None


def _length_pool():
    """Run lengths: small ints, an int just past the bound below which an
    int compares with a Nat, and distinct interned Nats, two of them sums
    holding another as a child. Built per example, so no node outlives the
    test. Each is set by the towers module's limits: at LIMIT_BITS = 4096,
    the int is 2^4050 and the Nats are built on 2^5000 and 2^5001."""
    top = towers.LIMIT_BITS + 904
    a, b = nat_pow2(top), nat_pow2(top + 1)
    return (1, 2, 3, 5, towers._SMALL_CMP_BOUND << 50, a, b, nat_add(a, 3),
            nat_add(a, b), nat_mul_pow2(3, top))


run_specs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9)),
                     min_size=1, max_size=8)
prefix_edits = st.lists(st.one_of(
    st.tuples(st.just("length"), st.integers(0, 99), st.integers(0, 9)),
    st.tuples(st.just("flip"), st.integers(0, 99)),
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("add"), st.integers(0, 1), st.integers(0, 9)),
), max_size=2)


@given(run_specs, st.integers(0, 99), st.integers(0, 9), prefix_edits)
@example([(0, 1), (1, 0)], 1, 0, [])  # the cut ends inside the last run
def test_run_prefix_compare_matches_the_run_walk(specs, cut, part, edits):
    """A prefix is cut from a run-backed string (whole runs, then part of
    one: a smaller int or another pool length), then edited. strip_prefix
    agrees with the walk, except that where the walk raised AmbiguousNat
    before other's last run, the tuple compare finds the runs unequal."""
    _check_run_prefix_compare(specs, cut, part, edits)


LOW_LIMIT = 160


@given(run_specs, st.integers(0, 99), st.integers(0, 9), prefix_edits)
def test_run_prefix_compare_matches_the_run_walk_at_a_lowered_limit(
        specs, cut, part, edits):
    """The run walk differential at LIMIT_BITS = 160, `_SMALL_CMP_BOUND`
    set by its formula, and the length pool by both: its int is 2^114 and
    its Nats are built on 2^1064 and 2^1065."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "LIMIT_BITS", LOW_LIMIT)
        mp.setattr(towers, "_SMALL_CMP_BOUND", 1 << (LOW_LIMIT - 96))
        _check_run_prefix_compare(specs, cut, part, edits)


def _check_run_prefix_compare(specs, cut, part, edits):
    pool = _length_pool()
    s = BitString([(b, pool[i]) for b, i in specs] + [(1, pool[5])])
    assert s._runs is not None
    runs = list(s.runs)
    cut %= len(runs) + 1
    head = runs[:cut]
    if cut < len(runs):
        bit, length = runs[cut]
        if type(length) is int:
            head.append((bit, 1 + part % length if length > 1 else 1))
        else:
            head.append((bit, pool[part]))
    for edit in edits:
        if edit[0] == "add":
            head.append((edit[1], pool[edit[2]]))
        elif head:
            at = edit[1] % len(head)
            bit, length = head[at]
            if edit[0] == "length":
                head[at] = (bit, pool[edit[2]])
            elif edit[0] == "flip":
                head[at] = (1 - bit, length)
            else:
                del head[at]
    other = BitString(head)
    want, raised_at = _walk_strip_prefix(s, other)
    if raised_at is not None and raised_at < len(other.runs) - 1:
        assert s.strip_prefix(other) is None
    elif raised_at is not None:
        with pytest.raises(AmbiguousNat):
            s.strip_prefix(other)
    else:
        got = s.strip_prefix(other)
        assert got == want
        if got is not None:
            assert nat_equal(got.length, want.length)
            assert s.end_extends(other)


def test_text_backed_string_with_a_huge_run_strips_back():
    big = nat_pow2(5000)
    head = BitString.from01("0110")
    s = head.concat(BitString.zeros(big))
    rest = s.strip_prefix(head)
    assert rest.runs[0][1] is big and rest == BitString.zeros(big)
    assert s.prefix(4) == head and hash(s.prefix(4)) == hash(head)
    assert s.end_extends(head) and not head.end_extends(s)
    assert s.strip_prefix(BitString.from01("0111")) is None


def test_long_concrete_string_is_run_backed():
    n = bits._MATERIALIZE_LIMIT + 1
    z = BitString.zeros(n)
    assert z.is_concrete and z.runs == ((0, n),)
    with pytest.raises(AmbiguousNat):
        z.to01()
    twin = BitString.from01("0" * n)
    assert z == twin and hash(z) == hash(twin)
    assert z.prefix(n - 1).to01() == "0" * (n - 1)
    assert z.ones() == 0 and z.bit(n - 1) == 0
    assert z.stable_key() == '{"nats":[],"runs":[[0,%d]]}' % n


# --- stable_key against the compact dump of to_json -----------------------

def _reference_key(s):
    """stable_key as the compact `json.dumps` of to_json and its table."""
    table = NatTable()
    obj = s.to_json(table)
    if isinstance(obj, str):
        return obj
    return json.dumps({**obj, "nats": table.nodes},
                      sort_keys=True, separators=(",", ":"))


nat_steps = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 99), st.integers(0, 99),
              st.integers(-9, 9)),
    st.tuples(st.just("mul"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("pow2"), st.integers(0, 99)),
), max_size=12)


def _nat_pool(steps):
    """Lengths built by the tower helpers from a few ints and Nats: sums
    with negative consts and repeated children, mul2 nodes with int or
    symbolic arg and exp. Negative ints are left out, as no run has one."""
    pool = [1, 3, 4090, nat_pow2(5000), nat_mul_pow2(3, 4999)]
    for name, i, *rest in steps:
        x = pool[i % len(pool)]
        if name == "add":
            value = nat_add(x, pool[rest[0] % len(pool)], rest[1])
        elif name == "mul":
            value = nat_mul_pow2(x, pool[rest[0] % len(pool)])
        else:
            value = nat_pow2(x)
        if not (type(value) is int and value < 0):
            pool.append(value)
    return pool


@given(nat_steps, st.lists(st.tuples(st.integers(0, 1), st.integers(0, 99)),
                           min_size=1, max_size=8))
@example([("add", 3, 3, -2), ("mul", 5, 4), ("add", 6, 5, 0)],
         [(0, 6), (1, 0), (0, 5), (1, 6)])  # shared children, reused nodes
def test_stable_key_of_nat_runs_matches_the_dump(steps, specs):
    pool = _nat_pool(steps)
    s = BitString([(b, pool[i % len(pool)]) for b, i in specs])
    assert s.stable_key() == _reference_key(s)


@given(st.integers(4090, 4102), st.integers(1, 600), st.integers(0, 2**32))
def test_stable_key_of_long_text_matches_the_dump(n, longest, seed):
    """Text-backed strings either side of the 4096 bits where the key
    turns from 0/1 text into runs, of runs up to `longest` bits."""
    rnd = random.Random(seed)
    text = "".join(rnd.choice("01") * rnd.randint(1, longest)
                   for _ in range(n))[:n]
    s = BitString.from01(text)
    assert s.stable_key() == _reference_key(s)


growth_ops = st.lists(st.one_of(
    st.tuples(st.just("append_run"), st.integers(0, 1), st.integers(0, 1500)),
    st.tuples(st.just("append_huge"), st.integers(0, 1)),
    st.tuples(st.just("append_bit"), st.integers(0, 1)),
    st.tuples(st.just("concat"), short_texts, st.booleans()),
    st.tuples(st.just("pad_zeros_to"), st.integers(0, 1500)),
), max_size=12)


@given(short_texts, growth_ops)
def test_stable_key_matches_the_dump_as_strings_grow(start, ops):
    """Appends that carry a string across the 4096-bit line, some of them
    symbolic, key as the dump at every step."""
    huge = nat_pow2(5000)
    s = BitString.from01(start)
    for name, *args in ops:
        if name == "append_run":
            s = s.append_run(*args)
        elif name == "append_huge":
            s = s.append_run(args[0], huge)
        elif name == "append_bit":
            s = s.append_bit(args[0])
        elif name == "concat":    # an operand with a symbolic run, or text
            other = BitString.from01(args[0])
            s = s.concat(other.append_run(0, huge) if args[1] else other)
        elif s.is_concrete:
            s = s.pad_zeros_to(s.length + args[0])
        assert s.stable_key() == _reference_key(s)


# (op, bit, pool index, text): the bit of an appended run, or of a concat
# operand's symbolic run after its text
branch_ops = st.tuples(
    st.sampled_from(["append_run", "append_huge", "append_bit",
                     "pad_zeros_to", "concat"]),
    st.integers(0, 1), st.integers(0, 99), short_texts)


def _extend(s, op, pool):
    """s after one growth op, its lengths from `pool`. An append merges
    into s's last run when its bit is that run's bit. A concat operand is
    a run-backed string, keyed before it is joined.

    The pool can fold a length such as nat_pow2(4090) into an int at or
    above `towers._SMALL_CMP_BOUND`, outside the lazy naturals' contract,
    which answers arithmetic on it with AmbiguousNat. Where s's length or
    the op's length is such an int, that answer is taken and the op
    builds nothing (s is returned); any other AmbiguousNat is raised."""
    name, bit, i, text = op
    huge = [v for v in pool if is_huge(v)]
    length = {"append_huge": huge[i % len(huge)], "append_bit": 1,
              "concat": pool[3]}.get(name, pool[i % len(pool)])
    try:
        if name in ("append_run", "append_huge"):
            return s.append_run(bit, length)
        if name == "append_bit":
            return s.append_bit(bit)
        if name == "pad_zeros_to":
            return (s.pad_zeros_to(nat_add(s.length, length)) if s.is_concrete
                    else s.append_run(0, length))
        other = BitString.from01(text).append_run(bit, length)
        assert other.stable_key() == _reference_key(other)
        return s.concat(other)
    except AmbiguousNat:
        if not any(type(v) is int and v >= towers._SMALL_CMP_BOUND
                   for v in (s.length, length)):
            raise
        return s


@given(nat_steps, st.one_of(st.integers(0, 40), st.integers(4080, 4400)),
       st.integers(0, 2**32), st.lists(st.tuples(branch_ops, st.booleans()),
                                       max_size=6),
       st.lists(st.lists(branch_ops, min_size=1, max_size=3), min_size=2,
                max_size=4),
       st.booleans(), st.randoms(use_true_random=False),
       st.integers(0, 300))
@example([], 4300, 0, [(("append_run", 1, 2, ""), True)],
         [[("append_run", 1, 0, "")], [("append_run", 0, 0, "")],
          [("concat", 1, 0, "0")]], False, random.Random(0), 100)
# lengths the pool folds into ints past the contract's compare bound
@example([("mul", 0, 0), ("pow2", 74), ("pow2", 0), ("mul", 0, 0),
          ("mul", 0, 0), ("pow2", 0), ("mul", 0, 0), ("mul", 0, 0),
          ("mul", 0, 0)], 0, 0, [(("append_run", 0, 90, ""), False)],
         [[("append_run", 0, 0, "")], [("pad_zeros_to", 0, 3, "")]], False,
         random.Random(0), 0)
@example([("pow2", 0), ("pow2", 0), ("pow2", 23), ("add", 0, 0, 0)], 0, 0,
         [(("append_run", 0, 97, ""), False),
          (("pad_zeros_to", 0, 21, ""), False)],
         [[("append_bit", 0, 0, "")], [("append_bit", 1, 0, "")]], False,
         random.Random(0), 0)
def test_carried_keys_match_the_dump_under_branching(
        steps, n, seed, trunk, kids, early, rnd, cut):
    """Strings that extend a keyed parent start their keys from its
    state: a chain keyed at some of its elements, then two or more
    children of its last element keyed in any order, then that parent
    again, and the prefix and strip_prefix results of keyed strings,
    which start from no state. Every key equals the dump. The prefixes
    are `cut` bits long, leaving a long rest, and `cut` bits short of the
    end (4000 + `cut` bits long for a symbolic string), ending inside or
    before the last run."""
    pool = _nat_pool(steps)
    text_rnd = random.Random(seed)
    s = BitString.from01("".join(text_rnd.choice("01") * text_rnd.randint(
        1, 40) for _ in range(n))[:n])
    for op, keyed in trunk:
        s = _extend(s, op, pool)
        if keyed:
            assert s.stable_key() == _reference_key(s)
    parent = s
    if not early:  # else the children take the state of an older string
        assert parent.stable_key() == _reference_key(parent)
    children = []
    for ops in kids:
        child = parent
        for op in ops:
            child = _extend(child, op, pool)
        children.append(child)
    for child in rnd.sample(children, len(children)):
        assert child.stable_key() == _reference_key(child)
    assert parent.stable_key() == _reference_key(parent)
    for keyed in (parent, children[0]):
        long_cut = (max(keyed.length - cut, 0) if keyed.is_concrete
                    else 4000 + cut)
        for head in (keyed.prefix(min(cut, long_cut)), keyed.prefix(long_cut)):
            for t in (head, keyed.strip_prefix(head)):
                assert t.stable_key() == _reference_key(t)


def test_keys_along_appends_scan_the_text_once(monkeypatch):
    """300 keyed appends grow a text-backed string past 8192 bits; the
    keys' `_runs_of` scans reach back only to the last run of the string
    before the append, so they cover at most 3 characters per bit of the
    final string (each key scanned the whole text before keys resumed)."""
    scanned = []
    runs_of = bits._runs_of
    monkeypatch.setattr(bits, "_runs_of", lambda text, start=0: scanned.append(
        len(text) - start) or runs_of(text, start))
    rnd = random.Random(7)
    s = BitString.empty()
    for _ in range(300):
        s = s.append_run(rnd.randint(0, 1), rnd.randint(1, 60))
        key = s.stable_key()
    assert s.length > 8192 and s._text is not None
    assert sum(scanned) <= 3 * s.length
    monkeypatch.undo()
    assert key == _reference_key(s)


@pytest.mark.parametrize("length", [True, False, 2.0, 0.5])
def test_a_run_length_must_be_an_int_or_a_nat(length):
    """A bool or float run length is refused on both backings, whether it
    comes to the constructor or to append_run."""
    huge = nat_pow2(5000)
    for build in (lambda: BitString([(0, huge), (1, length)]),
                  lambda: BitString.zeros(huge).append_run(1, length),
                  lambda: BitString([(0, 3), (1, length)]),
                  lambda: BitString.from01("01").append_run(1, length),
                  lambda: BitString.zeros(length)):
        with pytest.raises(UsageError, match="an int or a Nat"):
            build()


def test_stream_take_and_bits():
    s = BitStream.from_prefix("0110", ConstTail(0))
    assert s.take01(7) == "0110000"
    assert [s.bit(i) for i in range(6)] == [0, 1, 1, 0, 0, 0]
    ones = BitStream.constant(1)
    assert ones.take01(4) == "1111"


def test_prng_tail_deterministic():
    a = BitStream.seeded("alpha")
    b = BitStream.seeded("alpha")
    c = BitStream.seeded("beta")
    bits_a = a.take01(64)
    assert bits_a == b.take01(64)
    assert bits_a != c.take01(64)
    assert set(bits_a) <= {"0", "1"}


def test_stream_json_roundtrip():
    s = BitStream.from_prefix("0101", PrngTail("zeta"))
    t = stream_from_json(s.to_json())
    assert t.take01(32) == s.take01(32)


def test_patched_stream():
    base = BitStream.constant(0)
    p = PatchedStream(base, {0: 1, 5: 1})
    assert p.take01(7) == "1000010"
    assert p.bit(5) == 1 and p.bit(6) == 0
    q = stream_from_json(p.to_json())
    assert q.take01(16) == p.take01(16)


tails = st.one_of(st.integers(0, 1).map(ConstTail),
                  st.sampled_from(["t", "é", "7"]).map(PrngTail))
patches = st.dictionaries(st.integers(0, 50), st.integers(0, 1), max_size=6)


@given(bit_texts, tails, patches, st.integers(0, 80))
def test_take01_matches_bit_by_bit(prefix, tail, patch, n):
    plain = BitStream.from_prefix(prefix, tail)
    for s in (plain, PatchedStream(plain, patch)):
        assert s.take01(n) == "".join(str(s.bit(i)) for i in range(n))


def reference_bit(prefix, tail, patch, i):
    """Bit i of the stream `prefix` + `tail` patched by `patch`, from the
    tail rule's formula."""
    if i in patch:
        return patch[i]
    if i < len(prefix):
        return int(prefix[i])
    if isinstance(tail, ConstTail):
        return tail.bit_value
    return bits.prng_bit(tail.seed, i)


reads = st.lists(st.tuples(st.sampled_from(["bit", "take01", "take"]),
                           st.integers(0, 80)), max_size=12)


@given(bit_texts, tails, patches, reads)
def test_cached_reads_agree_with_a_fresh_stream(prefix, tail, patch, reads):
    for own_patch in ({}, patch):
        def fresh():
            plain = BitStream.from_prefix(prefix, tail)
            return PatchedStream(plain, own_patch) if own_patch else plain

        s = fresh()
        before = s.to_json()
        for op, n in reads:
            if op == "bit":
                assert s.bit(n) == fresh().bit(n)
            elif op == "take01":
                assert s.take01(n) == fresh().take01(n)
            else:
                assert s.take(n) == fresh().take(n)
        top = max([n + 1 for _, n in reads] + [len(prefix) + 8])
        assert s.take01(top) == "".join(
            str(reference_bit(prefix, tail, own_patch, i)) for i in range(top))
        assert s.to_json() == before


@given(bit_texts, tails, patches, reads, st.data())
def test_prefix_tests_and_marker_finds_answer_as_slices_do(
        prefix, tail, patch, reads, data):
    """After any reads, `starts_with(s)` answers `take(s.length) == s` and
    `find_one(start, stop)` answers `take01(stop).find("1", start)`, of a
    fresh stream, for s the stream's own prefix, that prefix with a bit
    flipped or with one bit past it, or random text."""
    for own_patch in ({}, patch):
        def fresh():
            plain = BitStream.from_prefix(prefix, tail)
            return PatchedStream(plain, own_patch) if own_patch else plain

        s = fresh()
        for op, n in reads:
            getattr(s, op)(n)
        text = fresh().take01(data.draw(st.integers(0, 80)))
        at = data.draw(st.integers(0, 80))
        cond = BitString.from01(data.draw(st.sampled_from([
            text, text[:at] + "10"[int(text[at])] + text[at + 1:]
            if at < len(text) else text + "1", text + "1", "1" + text])))
        assert s.starts_with(cond) == (fresh().take(cond.length) == cond)
        start = data.draw(st.integers(0, 80))
        stop = start + data.draw(st.integers(1, 40))
        assert s.find_one(start, stop) == fresh().take01(stop).find("1", start)


def test_prng_tail_bits_are_hashed_once_per_stream():
    s = BitStream.from_prefix("01", PrngTail("once"))
    with mock.patch.object(bits, "prng_bit", wraps=bits.prng_bit) as spy:
        s.take01(10)
        s.bit(5)
        s.take(12)
        s.bit(11)
    assert [c.args[1] for c in spy.call_args_list] == list(range(2, 12))


def test_patched_stream_reads_nothing_until_asked():
    base = BitStream.from_prefix("01", PrngTail("lazy"))
    far = 10 ** 6
    with mock.patch.object(bits, "prng_bit", wraps=bits.prng_bit) as spy:
        s = PatchedStream(base, {far: 1, 3: 0})
        assert s.bit(far) == 1 and s.bit(3) == 0 and s.bit(1) == 1
        assert s.to_json()["patch"] == {"3": 0, str(far): 1}
    assert spy.call_count == 0
    near = PatchedStream(base, {5: 1})
    assert near.prefix_string.to01() == "".join(
        str(reference_bit("01", base.tail, {5: 1}, i)) for i in range(6))


def test_payload_source_descriptions_draw_the_same_bits(tmp_path):
    path = tmp_path / "p.bits"
    path.write_text("0110")
    sources = [PayloadSource.from_bits("1101"), PayloadSource.from_hex("a5"),
               PayloadSource.from_seed("s"),
               PayloadSource.from_stream(PatchedStream(
                   BitStream.from_prefix("01", PrngTail("t")), {4: 1}))]
    for source in sources:
        again = PayloadSource.from_json(source.description)
        assert again.description == source.description
        drawn = [source.next_bit() for _ in range(4)]
        assert [again.next_bit() for _ in range(4)] == drawn
    assert PayloadSource.from_json(
        PayloadSource.from_file(path).description) is None
    assert PayloadSource.from_json(None) is None
    for bad in ({"kind": "bits", "bits": "12"}, {"kind": "hex", "hex": "g"},
                {"kind": "seed", "seed": "s", "algo": "md5"},
                {"kind": "seed", "seed": "s"}, {"kind": "file", "path": 1},
                {"kind": ["hex"]}, ["hex", "a5"]):
        with pytest.raises(UsageError):
            PayloadSource.from_json(bad)


def test_payload_sources():
    fin = PayloadSource.from_bits("101")
    assert [fin.next_bit() for _ in range(3)] == [1, 0, 1]
    with pytest.raises(PayloadExhausted):
        fin.next_bit()

    hexed = PayloadSource.from_hex("ff")
    got = [hexed.next_bit() for _ in range(10)]
    assert got == [1] * 8 + [0, 0]  # zero-extended beyond the hex prefix

    seeded = PayloadSource.from_seed(42)
    seeded2 = PayloadSource.from_seed(42)
    assert [seeded.next_bit() for _ in range(16)] == [seeded2.next_bit() for _ in range(16)]

    with pytest.raises(UsageError):
        PayloadSource.from_hex("zz")


def test_bit_files(tmp_path):
    path = tmp_path / "x.bits"
    write_bit_file(path, BitString.from01("010011"))
    assert read_bit_file(path).to01() == "010011"
    path2 = tmp_path / "y.bits"
    path2.write_text("01 10\n11\n")
    assert read_bit_file(path2).to01() == "011011"
