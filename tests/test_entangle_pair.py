"""Pair protocol: frozen stage values, independent oracle, round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab.bits import BitStream, PayloadSource
from forcing_lab.dense import min_length_family, mixed_cohen_family
from forcing_lab.entangle import decode_pair, entangle_pair, pair_stages
from forcing_lab.errors import (EmptyFamily, FamilyTooSmall, NoMarker,
                                PayloadExhausted, UsageError)
from forcing_lab.generic import meets_family
from forcing_lab.posets import cohen_poset, cohen_wide_witness
from forcing_lab.verify import verify_trace
from forcing_lab.wide import entangle_wide


def reference_pair_len_family(payload_bits, stages):
    """Independent hand-rolled protocol for the LEN family (pad with 0s).

    Pure string arithmetic, sharing nothing with the implementation; used
    as the oracle for stage strings and boundaries.
    """
    bits = iter(payload_bits)
    c = "0"                                   # densify("") into length >= 1
    d = "0" * len(c) + "1" + str(next(bits))  # already length >= 1
    bounds = [len(c)]
    for n in range(1, stages):
        bounds.append(len(d))
        c = c + "0" * (len(d) - len(c)) + "1" + str(next(bits))
        if len(c) < n + 1:
            c += "0" * (n + 1 - len(c))
        bounds.append(len(c))
        d = d + "0" * (len(c) - len(d)) + "1" + str(next(bits))
        if len(d) < n + 1:
            d += "0" * (n + 1 - len(d))
    return c, d, bounds


def test_frozen_worked_example():
    fam = min_length_family(4)
    trace = entangle_pair(fam, BitStream.constant(1), 2)
    c, d = trace.streams["c"], trace.streams["d"]
    assert c.prefix_string.to01() == "00011"
    assert d.prefix_string.to01() == "0110011"
    assert trace.boundaries == [1, 3, 5]
    assert trace.payload_bits == [1, 1, 1]
    # marker positions: d[1], c[3], d[5]
    assert d.bit(1) == 1 and c.bit(3) == 1 and d.bit(5) == 1


def test_stage_zero_shape():
    """Before densification d_0 is 0^{|c_0|} followed by 1 and z(0)."""
    fam = min_length_family(4)
    for z0 in (0, 1):
        trace = entangle_pair(fam, BitStream.constant(z0), 1)
        d = trace.streams["d"]
        s0 = trace.boundaries[0]
        text = d.prefix_string.to01()
        assert text[:s0] == "0" * s0
        assert text[s0] == "1"
        assert text[s0 + 1] == str(z0)


@given(st.lists(st.integers(0, 1), min_size=15, max_size=15),
       st.integers(1, 8))
@settings(max_examples=60)
def test_matches_independent_oracle(payload, stages):
    fam = min_length_family(stages)
    trace = entangle_pair(fam, PayloadSource.from_bits(payload), stages)
    c, d = trace.streams["c"], trace.streams["d"]
    ref_c, ref_d, ref_bounds = reference_pair_len_family(payload, stages)
    assert c.prefix_string.to01() == ref_c
    assert d.prefix_string.to01() == ref_d
    assert trace.boundaries == ref_bounds


def test_zero_payload_still_has_markers():
    fam = min_length_family(4)
    trace = entangle_pair(fam, BitStream.constant(0), 4)
    c, d = trace.streams["c"], trace.streams["d"]
    bits, bounds = decode_pair(c, d, 7, 128)
    assert bits == [0] * 7
    assert bounds == trace.boundaries
    for k, s in enumerate(bounds):
        stream = d if k % 2 == 0 else c
        assert stream.bit(s) == 1


@given(st.integers(0, 2 ** 12 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_roundtrip_with_randomized_densifiers(seed, stages):
    """Decoding is exact despite densifier freedom."""
    fam = mixed_cohen_family(stages, seed=f"rand-{seed}")
    payload = PayloadSource.from_seed(seed)
    trace = entangle_pair(fam, payload, stages)
    c, d = trace.streams["c"], trace.streams["d"]
    bits, bounds = decode_pair(c, d, 2 * stages - 1, 4096)
    assert bits == trace.payload_bits
    assert bounds == trace.boundaries


def test_boundary_growth_invariant():
    fam = mixed_cohen_family(16, seed="growth")
    trace = entangle_pair(fam, BitStream.seeded("g"), 16)
    for a, b in zip(trace.boundaries, trace.boundaries[1:]):
        assert b >= a + 2


def test_genericity_of_both_outputs():
    fam = mixed_cohen_family(12, seed="gen")
    trace = entangle_pair(fam, BitStream.seeded("pz"), 12)
    c, d = trace.streams["c"], trace.streams["d"]
    assert meets_family(c, fam, 12).all_met
    assert meets_family(d, fam, 12).all_met


def test_error_cases():
    with pytest.raises(EmptyFamily):
        entangle_pair(min_length_family(0), BitStream.constant(0), 1)
    with pytest.raises(FamilyTooSmall):
        entangle_pair(min_length_family(2), BitStream.constant(0), 3)
    with pytest.raises(UsageError):
        entangle_pair(min_length_family(2), BitStream.constant(0), 0)
    with pytest.raises(PayloadExhausted):
        entangle_pair(min_length_family(3), PayloadSource.from_bits("1"), 2)


def test_a_payload_source_feeds_one_run():
    """A run's payload bits are a copy of its source's ledger. A source
    that has handed out bits is a usage error for a second run, whose trace
    would describe the source from its start."""
    fam = mixed_cohen_family(6, seed="ledger")
    source = PayloadSource.from_seed(7)
    trace = entangle_pair(fam, source, 6)
    with pytest.raises(UsageError):
        entangle_pair(fam, source, 6)
    with pytest.raises(UsageError):
        entangle_wide(cohen_poset(), cohen_wide_witness(),
                      min_length_family(4), source, 2)
    assert verify_trace(trace).all_passed
    bits = list(trace.payload_bits)
    assert bits == source.drawn and len(bits) == 11
    source.next_bit()
    assert trace.payload_bits == bits


def test_no_marker_on_all_zero_streams():
    zeros = BitStream.constant(0)
    with pytest.raises(NoMarker) as err:
        decode_pair(zeros, zeros, 1, scan_budget=512)
    assert err.value.step == 0


def test_decode_stops_mid_stream():
    fam = min_length_family(3)
    trace = entangle_pair(fam, BitStream.constant(1), 3)
    c, d = trace.streams["c"], trace.streams["d"]
    bits, bounds = decode_pair(c, d, 2, 256)
    assert bits == trace.payload_bits[:2]
    assert bounds == trace.boundaries[:2]


@given(st.integers(0, 2 ** 10 - 1), st.integers(1, 12), st.booleans())
@settings(max_examples=40, deadline=None)
def test_pair_stages_reproduce_the_records(seed, stages, seeded):
    fam = mixed_cohen_family(stages, seed=seed if seeded else None)
    trace = entangle_pair(fam, PayloadSource.from_seed(seed), stages)
    assert trace.stages == pair_stages(trace.conditions)
    assert trace.stages == [
        {"stage": n, "c_len": len(rec["c"].to01()),
         "d_len": len(rec["d"].to01())}
        for n, rec in enumerate(trace.conditions)]
    # markers sit at the end of c_0, d_0, c_1, d_1, ..., c_last
    assert trace.boundaries == [x for rec in trace.stages
                                for x in (rec["c_len"], rec["d_len"])][:-1]
