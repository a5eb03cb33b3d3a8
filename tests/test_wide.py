"""Wide-poset coding: worked tower values, round trips, consistency traps."""

import pytest

from forcing_lab.bits import BitStream, BitString, PayloadSource
from forcing_lab.dense import DenseFamily, DenseSet, min_length_family
from forcing_lab.errors import (ConsistencyFailure, FamilyTooSmall,
                                NoAntichainHit, UsageError)
from forcing_lab.posets import cohen_poset, cohen_wide_witness
from forcing_lab.towers import is_huge, nat_equal, nat_mul_pow2
from forcing_lab.wide import decode_wide, entangle_wide

POSET = cohen_poset()
WITNESS = cohen_wide_witness()


def antichain_hits(chain, witness, base, poset):
    """All antichain indices below `base` hit by chain elements, each once."""
    hits = []
    for el in chain:
        k = witness.locate(base, el)
        if k is not None and poset.leq(el, witness.antichain(base, k)):
            if not any(nat_equal(k, seen) for seen in hits):
                hits.append(k)
    return hits


def test_worked_round_zero_and_one():
    fam = min_length_family(10)
    trace = entangle_wide(POSET, WITNESS, fam,
                          BitStream.from_prefix("110"), 3)
    g, h = trace.g_chain, trace.h_chain
    assert g[0].to01() == "0" and h[0].to01() == "0"
    step0 = trace.stages[0]
    assert step0["alpha"] == 1 and step0["j"] == 3 and step0["beta"] == 32
    assert g[1].to01() == "00001"
    assert h[1] == BitString.from01("0").append_run(0, 32).append_bit(1)
    assert h[1].length == 34
    # round 1: alpha = index(q_1) = 2^34, j = 2*alpha + z(1)
    step1 = trace.stages[1]
    assert step1["alpha"] == 2 ** 34
    assert step1["j"] == 2 ** 35 + 1  # z(1) = 1
    assert g[2].length == 5 + (2 ** 35 + 1) + 1
    # round 2 leaves the concrete regime entirely
    assert is_huge(trace.stages[2]["beta"])
    assert is_huge(h[2].length)


def test_payload_parity_only_flips_antichain_index():
    fam = min_length_family(6)
    t0 = entangle_wide(POSET, WITNESS, fam, BitStream.from_prefix("0"), 1)
    t1 = entangle_wide(POSET, WITNESS, fam, BitStream.from_prefix("1"), 1)
    assert t0.stages[0]["j"] + 1 == t1.stages[0]["j"]
    assert nat_equal(t0.stages[0]["j"],
                     nat_mul_pow2(t0.stages[0]["alpha"], 1))


def test_chains_descend_and_meet_sets():
    fam = min_length_family(16)
    trace = entangle_wide(POSET, WITNESS, fam, BitStream.seeded("wd"), 12)
    g, h = trace.g_chain, trace.h_chain
    for chain in (g, h):
        for n in range(12):
            assert chain[n + 1].proper_end_extends(chain[n])
            assert fam[n].member(chain[n])
        assert fam[12].member(chain[12])


def test_decode_roundtrip_with_towers():
    fam = min_length_family(16)
    payload = PayloadSource.from_bits("101101001101")
    trace = entangle_wide(POSET, WITNESS, fam, payload, 12)
    g, h = trace.g_chain, trace.h_chain
    triples = decode_wide(g, h, POSET, WITNESS, fam, 12)
    assert [z for _, _, z in triples] == trace.payload_bits
    for n, (p, q, _) in enumerate(triples):
        assert p == g[n]
        assert q == h[n]


def test_roundtrip_with_randomized_densifiers():
    """Seeded densifier freedom must be replayable by the decoder."""
    fam = min_length_family(12, seed="wide-free")
    trace = entangle_wide(POSET, WITNESS, fam, BitStream.seeded("wf"), 8)
    g, h = trace.g_chain, trace.h_chain
    triples = decode_wide(g, h, POSET, WITNESS, fam, 8)
    assert [z for _, _, z in triples] == trace.payload_bits
    assert all(p == g[n] and q == h[n] for n, (p, q, _) in enumerate(triples))


def test_antichain_hit_uniqueness():
    fam = min_length_family(10)
    trace = entangle_wide(POSET, WITNESS, fam, BitStream.seeded("uniq"), 6)
    g, h = trace.g_chain, trace.h_chain
    for n in range(6):
        assert len(antichain_hits(g, WITNESS, g[n], POSET)) == 1
        assert len(antichain_hits(h, WITNESS, h[n], POSET)) == 1


def test_same_chain_on_both_sides_fails():
    fam = min_length_family(8)
    trace = entangle_wide(POSET, WITNESS, fam, BitStream.seeded("gg"), 4)
    g = trace.g_chain
    with pytest.raises((ConsistencyFailure, NoAntichainHit)):
        decode_wide(g, g, POSET, WITNESS, fam, 4)


def test_decoder_needs_both_chains_in_order():
    fam = min_length_family(8)
    trace = entangle_wide(POSET, WITNESS, fam, BitStream.seeded("swap"), 4)
    g, h = trace.g_chain, trace.h_chain
    with pytest.raises((ConsistencyFailure, NoAntichainHit)):
        decode_wide(h, g, POSET, WITNESS, fam, 4)


def trivial_family(count):
    """Every condition is in every set; densifiers are the identity."""
    sets = [DenseSet(i, lambda s: True, lambda s: s, spec={"type": "trivial"})
            for i in range(count)]
    return DenseFamily(sets, "poset", entries=[s.spec for s in sets])


def test_round_zero_against_closed_form_oracle():
    """Independent arithmetic for round 0 with identity densifiers."""
    fam = trivial_family(2)
    for z in (0, 1):
        trace = entangle_wide(POSET, WITNESS, fam,
                              BitStream.from_prefix(str(z)), 1)
        g, h = trace.g_chain, trace.h_chain
        # independent: index(s) = 2^|s| - 1 + value(s), antichain = q 0^k 1
        p0 = ""
        alpha = (1 << len(p0)) - 1 + (int(p0, 2) if p0 else 0)
        j = 2 * alpha + z
        p1 = p0 + "0" * j + "1"
        beta = (1 << len(p1)) - 1 + int(p1, 2)
        q1 = p0 + "0" * beta + "1"
        assert g[0].to01() == p0 and h[0].to01() == p0
        assert g[1].to01() == p1
        assert h[1].to01() == q1
        assert trace.stages[0]["j"] == j
        assert trace.stages[0]["beta"] == beta


def test_chain_filter_meets_family_to_horizon():
    """Each chain meets D_n at its own n-th element, n <= 50."""
    fam = min_length_family(52)
    trace = entangle_wide(POSET, WITNESS, fam, BitStream.seeded("mf"), 50)
    for chain in (trace.g_chain, trace.h_chain):
        assert all(fam[n].member(chain[n]) for n in range(51))


def test_brute_force_decode_without_locate():
    """The literal bounded j-scan works while indices stay below the budget.

    On the Cohen poset that is only round 0 (the h-side index is already
    the enumeration position of p_1's densification at round 1).
    """
    from forcing_lab.posets import WidenessWitness
    plain = WidenessWitness("no-locate", WITNESS.antichain, locate=None)
    fam = trivial_family(4)
    for bit in "01":
        trace = entangle_wide(POSET, plain, fam,
                              BitStream.from_prefix(bit), 2)
        g, h = trace.g_chain, trace.h_chain
        triples = decode_wide(g, h, POSET, plain, fam, 1, budget=64)
        [(p, q, z)] = triples
        assert z == trace.payload_bits[0]
        assert p == g[0] and q == h[0]


def test_no_hit_within_budget():
    fam = trivial_family(4)
    from forcing_lab.posets import WidenessWitness
    plain = WidenessWitness("no-locate", WITNESS.antichain, locate=None)
    trace = entangle_wide(POSET, plain, fam, BitStream.constant(1), 2)
    g, h = trace.g_chain, trace.h_chain
    with pytest.raises(NoAntichainHit):
        decode_wide(g, h, POSET, plain, fam, 2, budget=2)


def test_family_size_guards():
    with pytest.raises(FamilyTooSmall):
        entangle_wide(POSET, WITNESS, min_length_family(3),
                      BitStream.constant(0), 3)
    with pytest.raises(UsageError):
        entangle_wide(POSET, WITNESS, min_length_family(3),
                      BitStream.constant(0), 0)
