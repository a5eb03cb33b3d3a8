"""BitString order laws, stream tails, payload sources."""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from forcing_lab import bits
from forcing_lab.bits import (BitStream, BitString, ConstTail, PatchedStream,
                              PayloadSource, PrngTail, read_bit_file,
                              stream_from_json, write_bit_file)
from forcing_lab.errors import AmbiguousNat, PayloadExhausted, UsageError
from forcing_lab.towers import NatTable, is_huge, nat_pow2

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
    assert sa.compatible(sb) == (a.startswith(b) or b.startswith(a))


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
    assert BitString.from_json(obj, NatTable.decode_all(table.to_list())) == s


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
    assert s.compatible(o) == (model.startswith(other)
                               or other.startswith(model))
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
