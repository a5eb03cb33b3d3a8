"""The length-lex Cohen poset and antichain witnesses."""

import pytest

from forcing_lab.bits import BitString
from forcing_lab.errors import BudgetExceeded, UsageError, WitnessViolation
from forcing_lab.posets import (WidenessWitness, bitstring_value,
                                cohen_element, cohen_index, cohen_poset,
                                cohen_wide_witness, validate_wideness_witness)
from forcing_lab.towers import is_huge, nat_equal, nat_pow2


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
    assert is_huge(idx)
    assert nat_equal(idx, cohen_index(s))  # recomputation is stable


def test_cohen_order_and_compat():
    poset = cohen_poset()
    a, b = BitString.from01("010"), BitString.from01("01")
    assert poset.leq(a, b) and not poset.leq(b, a)
    assert poset.compat(a, b)
    assert not poset.compat(BitString.from01("00"), BitString.from01("01"))
    assert poset.decode(0) == BitString.empty()


def test_canonical_witness_members():
    wit = cohen_wide_witness()
    q = BitString.empty()
    members = [wit.antichain(q, k).to01() for k in range(4)]
    assert members == ["1", "01", "001", "0001"]
    report = validate_wideness_witness(cohen_poset(), wit, q, m=4,
                                       samples=8, seed="t")
    assert report.members_checked == 4


def test_extension_hits_canonical_antichain():
    # r = "0001" below q = "" is compatible with A_q(3) = "0001" itself
    wit = cohen_wide_witness()
    poset = cohen_poset()
    r = BitString.from01("0001")
    hits = [k for k in range(8) if poset.compat(r, wit.antichain(BitString.empty(), k))]
    assert hits == [3]
    assert BitString.from01("00011").end_extends(wit.antichain(BitString.empty(), 3))


def test_compat_agrees_with_bounded_search():
    """compat(p, q) iff some element below both exists (searched exactly)."""
    poset = cohen_poset()
    universe = [cohen_element(i) for i in range(63)]  # all strings, length <= 5
    short = [s for s in universe if isinstance(s.length, int) and s.length <= 2]
    for p in short:
        for q in short:
            witnessed = any(poset.leq(r, p) and poset.leq(r, q)
                            for r in universe)
            assert poset.compat(p, q) == witnessed


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


def test_witness_injectivity_violation():
    wit = WidenessWitness("dup", lambda q, k: q.append01("1"))
    with pytest.raises(WitnessViolation, match="injectivity"):
        validate_wideness_witness(cohen_poset(), wit, BitString.empty(),
                                  m=2, samples=1, seed="t")


def test_witness_below_violation():
    wit = WidenessWitness("off", lambda q, k: BitString.from01("1" * (k + 1)))
    with pytest.raises(WitnessViolation, match="below"):
        validate_wideness_witness(cohen_poset(), wit, BitString.from01("0"),
                                  m=2, samples=1, seed="t")


def test_witness_compat_violation():
    wit = WidenessWitness("comp", lambda q, k: q.append_run(1, k + 1))
    with pytest.raises(WitnessViolation, match="compatible"):
        validate_wideness_witness(cohen_poset(), wit, BitString.empty(),
                                  m=3, samples=1, seed="t")


def test_maximality_budget_exceeded():
    # members all start with 1 below q, so a sample extending q with 0 never
    # meets any of them within the search limit
    wit = WidenessWitness(
        "onesided", lambda q, k: q.append01("1").append_run(0, k).append_bit(1))
    with pytest.raises(BudgetExceeded):
        validate_wideness_witness(cohen_poset(), wit, BitString.empty(),
                                  m=3, samples=32, seed="t", search_limit=16)


def test_validate_args():
    with pytest.raises(UsageError):
        validate_wideness_witness(cohen_poset(), cohen_wide_witness(),
                                  BitString.empty(), m=0, samples=1, seed="t")
