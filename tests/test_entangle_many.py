"""Tuple protocol: sub-round frontiers, subtuple genericity, tampering."""

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab.bits import BitStream, BitString, ConstTail, PayloadSource
from forcing_lab.dense import min_length_family
from forcing_lab.entangle import decode_many, entangle_many, many_stages
from forcing_lab.errors import BadArity, NoMarker
from forcing_lab.generic import mutual_genericity_check


def test_frozen_stage_zero_k3():
    fam = min_length_family(4, carrier="product", arity=2)
    trace = entangle_many(3, fam, BitStream.constant(1), 1)
    streams = list(trace.streams.values())
    assert [s.prefix_string.to01() for s in streams] == \
        ["01100", "00011", "0000011"]
    # after sub-round 0: streams 1,2 at length L=1, stream 0 at L+2 with c0[L]=1
    first = trace.stages[0]
    assert first["excluded"] == 0 and first["marker"] == 1
    assert first["lengths"] == [3, 1, 1]
    assert streams[0].bit(1) == 1


def test_frontier_invariant_recorded():
    fam = min_length_family(8, carrier="product", arity=3)
    trace = entangle_many(4, fam, BitStream.seeded("f"), 8)
    for rec in trace.stages:
        i = rec["excluded"]
        lengths = rec["lengths"]
        assert lengths[i] == rec["marker"] + 2
        assert all(lengths[j] >= rec["marker"] for j in range(4) if j != i)


@given(st.integers(0, 2 ** 10 - 1), st.integers(3, 4), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_roundtrip(seed, k, stages):
    fam = min_length_family(stages, carrier="product", arity=k - 1)
    trace = entangle_many(k, fam, PayloadSource.from_seed(seed), stages)
    streams = list(trace.streams.values())
    bits, markers = decode_many(streams, k, k * stages, 4096)
    assert bits == trace.payload_bits
    assert markers == trace.boundaries


def test_thirty_stage_roundtrip_k3():
    fam = min_length_family(30, carrier="product", arity=2)
    trace = entangle_many(3, fam, BitStream.seeded("z30"), 30)
    streams = list(trace.streams.values())
    bits, _ = decode_many(streams, 3, 90, 4096)
    assert bits == trace.payload_bits


def test_every_two_subset_of_k3_is_mutually_generic():
    fam2 = min_length_family(12, carrier="product", arity=2)
    fam3 = min_length_family(12, carrier="product", arity=2)
    trace = entangle_many(3, fam3, BitStream.seeded("mg"), 12)
    streams = list(trace.streams.values())
    for i in range(3):
        pair = [streams[j] for j in range(3) if j != i]
        assert mutual_genericity_check(pair, fam2, 12).all_met


def test_tampered_padding_bit_breaks_roundtrip():
    fam = min_length_family(6, carrier="product", arity=2)
    trace = entangle_many(3, fam, BitStream.seeded("tamper"), 6)
    streams = list(trace.streams.values())
    # find a padding-region zero: a position below a marker of stream i,
    # at or after its previous frontier
    rec = trace.stages[4]
    i = rec["excluded"]
    text = streams[i].prefix_string.to01()
    marker = rec["marker"]
    flip = next(p for p in range(marker - 1, 0, -1) if text[p] == "0")
    mutated = text[:flip] + "1" + text[flip + 1:]
    streams[i] = BitStream(BitString.from01(mutated), ConstTail(0))
    try:
        bits, markers = decode_many(streams, 3, 18, 4096)
        assert (bits, markers) != (trace.payload_bits, trace.boundaries)
    except NoMarker:
        pass  # a misparse that runs off the streams is also a detection


def test_bad_arity_guards():
    fam = min_length_family(2, carrier="product", arity=2)
    with pytest.raises(BadArity):
        entangle_many(1, min_length_family(2, carrier="product", arity=1),
                      BitStream.constant(0), 1)
    with pytest.raises(BadArity):
        entangle_many(4, fam, BitStream.constant(0), 1)  # arity 2 != 3
    with pytest.raises(BadArity):
        decode_many([BitStream.constant(0)], 2, 1)


def test_zero_payload_markers_found():
    fam = min_length_family(5, carrier="product", arity=2)
    trace = entangle_many(3, fam, BitStream.constant(0), 5)
    streams = list(trace.streams.values())
    bits, _ = decode_many(streams, 3, 15, 1024)
    assert bits == [0] * 15


@given(st.integers(0, 2 ** 10 - 1), st.integers(2, 4), st.integers(1, 6),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_many_stages_reproduce_the_records(seed, k, stages, seeded):
    fam = min_length_family(stages, carrier="product", arity=k - 1,
                            seed=seed if seeded else None)
    trace = entangle_many(k, fam, PayloadSource.from_seed(seed), stages)
    assert trace.stages == many_stages(k, trace.boundaries, trace.payload_bits)
    assert len(trace.stages) == k * stages
    streams = list(trace.streams.values())
    for rec in trace.stages:
        excluded, marker = streams[rec["excluded"]], rec["marker"]
        assert excluded.bit(marker) == 1
        assert excluded.bit(marker + 1) == rec["payload_bit"]
    for s, cond in enumerate(trace.conditions):
        assert [len(cond[str(i)].to01()) for i in range(k)] == \
            trace.stages[(s + 1) * k - 1]["lengths"]
