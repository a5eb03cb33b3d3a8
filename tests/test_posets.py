"""The length-lex Cohen poset and antichain witnesses."""

import json

import pytest
from hypothesis import given, strategies as st

from forcing_lab.bits import BitString
from forcing_lab.dense import min_length_family
from forcing_lab.posets import (CountablePoset, bitstring_value,
                                cohen_element, cohen_index, cohen_poset,
                                cohen_wide_witness)
from forcing_lab.towers import Nat, nat_add, nat_equal, nat_pow2
from forcing_lab.trace import write_trace
from forcing_lab.wide import entangle_wide


def lenlex_oracle(max_len):
    """Independent enumeration: all strings sorted by (length, value)."""
    out = []
    for length in range(max_len + 1):
        for value in range(1 << length):
            out.append(format(value, f"0{length}b") if length else "")
    return out


def test_enumeration_matches_oracle():
    oracle = lenlex_oracle(6)
    for i, text in enumerate(oracle):
        el = cohen_element(i)
        assert el.to01() == text
        assert cohen_index(el) == i


def test_worked_index_values():
    assert cohen_index(BitString.from01("0")) == 1
    assert cohen_index(BitString.from01("00001")) == 32
    assert cohen_element(3).to01() == "00"
    assert bitstring_value(BitString.from01("01101")) == 13


def test_index_goes_symbolic_for_huge_strings():
    s = BitString.from01("0").append_run(0, nat_pow2(5000)).append_bit(1)
    idx = cohen_index(s)
    assert isinstance(idx, Nat)
    assert nat_equal(idx, cohen_index(s))  # recomputation is stable


def test_cohen_order_and_compat():
    poset = cohen_poset()
    a, b = BitString.from01("010"), BitString.from01("01")
    assert poset.leq(a, b) and not poset.leq(b, a)
    assert poset.decode(0) == BitString.empty()


def test_canonical_witness_members():
    wit = cohen_wide_witness()
    q = BitString.empty()
    members = [wit.antichain(q, k).to01() for k in range(4)]
    assert members == ["1", "01", "001", "0001"]


def test_extension_hits_canonical_antichain():
    # r = "0001" below q = "" extends A_q(3) = "0001" itself and no other
    wit = cohen_wide_witness()
    r = BitString.from01("0001")
    hits = [k for k in range(8)
            if r.end_extends(wit.antichain(BitString.empty(), k))]
    assert hits == [3]
    assert BitString.from01("00011").end_extends(wit.antichain(BitString.empty(), 3))


def test_witness_locate_roundtrip():
    wit = cohen_wide_witness()
    q = BitString.from01("0110")
    for k in (0, 1, 7):
        member = wit.antichain(q, k)
        assert wit.locate(q, member) == k
        assert wit.locate(q, member.append01("0101")) == k
    big = nat_pow2(4200)
    member = wit.antichain(q, big)
    assert wit.locate(q, member) is big
    assert wit.locate(q, q) is None
    assert wit.locate(q, q.append_run(0, 12)) is None  # padding, no marker
    assert wit.locate(q, BitString.from01("1")) is None


# (index of the string to extend, bit, run length: an index into the pool)
appends = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 1),
                             st.integers(0, 6)), min_size=1, max_size=16)


@given(appends)
def test_fold_memo_returns_the_plain_folds_nodes(steps):
    """Strings built by append_run from earlier ones, folded through one
    memo in build order and again in reverse, give the very values (the
    same node, for a symbolic one) the plain fold gives."""
    a = nat_pow2(5000)
    pool = (1, 2, 7, 4096, a, nat_pow2(a), nat_add(a, 5))
    strings = [BitString.empty()]
    for base, bit, i in steps:
        strings.append(strings[base % len(strings)].append_run(bit, pool[i]))
    memo = {}
    for s in strings + strings[::-1]:
        got, want = cohen_index(s, memo), cohen_index(s)
        assert got is want if isinstance(want, Nat) else got == want
        got, want = bitstring_value(s, memo), bitstring_value(s)
        assert got is want if isinstance(want, Nat) else got == want


@pytest.mark.parametrize("seed", [None, "memo"])
def test_memoized_encode_writes_the_plain_encodes_trace(tmp_path, seed):
    fam = min_length_family(13, seed=seed)
    plain = CountablePoset("cohen-lenlex", cohen_index, cohen_element,
                           cohen_poset().leq)
    paths = []
    for poset in (cohen_poset(), plain):
        paths.append(tmp_path / f"{len(paths)}.json")
        write_trace(paths[-1], entangle_wide(poset, cohen_wide_witness(), fam,
                                             "101101001101", 12))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert json.loads(paths[0].read_text())["nats"]
