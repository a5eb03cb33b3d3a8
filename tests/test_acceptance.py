"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are exact equality everywhere, runtime bounds as stated.
"""

import time

import pytest

from forcing_lab.bits import BitStream, BitString, ConstTail, PayloadSource
from forcing_lab.closure import bound_chain, build_generics_run, verify_bound
from forcing_lab.dense import (family_from_spec, min_length_family,
                               mixed_cohen_family, square_family)
from forcing_lab.entangle import (decode_many, decode_pair, entangle_many,
                                  entangle_pair)
from forcing_lab.errors import NoMarker
from forcing_lab.generic import meets_family, mutual_genericity_check
from forcing_lab.posets import cohen_poset, cohen_wide_witness
from forcing_lab.towers import nat_equal
from forcing_lab.trace import write_trace
from forcing_lab.wide import decode_wide, entangle_wide


def report(line):
    print(f"\n{line}")


def test_criterion_1_pair_exhaustive_roundtrip():
    """All 256 payload prefixes of length 8, LEN family: exact round trip."""
    t0 = time.perf_counter()
    fam = min_length_family(8)
    for word in range(256):
        payload = BitStream.from_prefix(format(word, "08b"), ConstTail(0))
        trace = entangle_pair(fam, payload, 8)
        c, d = trace.streams["c"], trace.streams["d"]
        bits, bounds = decode_pair(c, d, 15, scan_budget=256)
        assert bits == trace.payload_bits, f"payload {word:08b}"
        assert bounds == trace.boundaries, f"payload {word:08b}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"
    report(f"PASS criterion 1: 256/256 exhaustive pair round trips exact "
           f"({elapsed:.2f}s < 1s)")


def test_criterion_2_pair_genericity_randomized():
    """100 seeded runs, 64-set mixed family, 128-bit payloads."""
    t0 = time.perf_counter()
    for run in range(100):
        fam = mixed_cohen_family(64, seed=f"criterion2-{run}")
        payload_bits = BitStream.seeded(f"payload-{run}").take01(128)
        trace = entangle_pair(fam, PayloadSource.from_bits(payload_bits), 64)
        c, d = trace.streams["c"], trace.streams["d"]
        bits, bounds = decode_pair(c, d, 127, scan_budget=8192)
        assert bits == trace.payload_bits
        assert bounds == trace.boundaries
        assert meets_family(c, fam, 64).all_met
        assert meets_family(d, fam, 64).all_met
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"
    report(f"PASS criterion 2: 100 randomized-densifier runs generic to "
           f"horizon 64 with exact decoding ({elapsed:.2f}s < 10s)")


def test_criterion_3_tuple_k4():
    """k=4, 32 stages: subtuple genericity, 128-bit decode, frontiers."""
    fam = min_length_family(32, carrier="product", arity=3)
    trace = entangle_many(4, fam, BitStream.seeded("criterion3"), 32)
    streams = list(trace.streams.values())
    for i in range(4):
        others = [streams[j] for j in range(4) if j != i]
        rep = mutual_genericity_check(others, fam, 32)
        assert rep.all_met, f"subtuple omitting {i}: {rep.summary()}"
    bits, markers = decode_many(streams, 4, 128, scan_budget=4096)
    assert len(bits) == 128
    assert bits == trace.payload_bits
    assert markers == trace.boundaries
    for rec in trace.stages:
        i = rec["excluded"]
        assert rec["lengths"][i] == rec["marker"] + 2
        assert all(rec["lengths"][j] >= rec["marker"]
                   for j in range(4) if j != i)
    report("PASS criterion 3: k=4 tuple, all 3-subtuples generic to 32, "
           "128/128 payload bits exact, frontier invariant holds")


def test_criterion_4_wide_50_steps():
    """Cohen-as-wide-poset, 50 steps, worked round-0 values, exact decode."""
    poset, witness = cohen_poset(), cohen_wide_witness()
    fam = min_length_family(52)
    payload_bits = "1" + BitStream.seeded("criterion4").take01(63)
    trace = entangle_wide(poset, witness, fam,
                          PayloadSource.from_bits(payload_bits), 50)
    g, h = trace.g_chain, trace.h_chain
    assert len(g) == 51 and len(h) == 51
    for chain in (g, h):
        for n in range(50):
            assert chain[n + 1].proper_end_extends(chain[n]), f"step {n}"
        for n in range(51):
            assert fam[n].member(chain[n]), f"membership at {n}"
    # worked round-0 values under LEN with payload starting 1
    assert trace.payload_bits[0] == 1
    assert trace.stages[0]["j"] == 3
    assert trace.stages[0]["beta"] == 32
    assert g[1] == BitString.from01("00001")
    triples = decode_wide(g, h, poset, witness, fam, 50)
    assert [z for _, _, z in triples] == trace.payload_bits[:50]
    for n, (p, q, _) in enumerate(triples):
        assert p == g[n] and q == h[n]
        assert nat_equal(trace.stages[n]["alpha"], poset.encode(q))
    report("PASS criterion 4: 50-step wide run, chains descend through every "
           "dense set, decode reproduces all 50 triples incl. round-0 "
           "(j=3, beta=32, p_1=00001)")


def test_criterion_5_chain_bound():
    """m=8 rows, 48-set plane family: all five checks, small retries."""
    t0 = time.perf_counter()
    build_fam = square_family(48, seed="criterion5-build")
    bound_fam = square_family(48)
    rows = list(build_generics_run(build_fam, 8, 48,
                                   seed="criterion5-fill").streams.values())
    trace = bound_chain(rows, bound_fam, retry_budget=8,
                        fill_seed="criterion5-fill")
    report_bound = verify_bound(trace)
    assert report_bound.all_passed, report_bound.summary()
    top = trace.conditions[-1]
    for row, patch in trace.patches.items():
        assert len(patch) <= len(top.row_cells(row))
        assert len(patch) < 10 ** 6  # finite and explicitly bounded
    assert meets_family(trace.plane, bound_fam, 48).all_met
    retries = [rec["retries"] for rec in trace.stages]
    assert max(retries) <= 2, f"retries per stage: {retries}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"
    report(f"PASS criterion 5: 8-row chain bound through 48 sets, verify "
           f"5/5, max retry {max(retries)} <= 2 ({elapsed:.2f}s < 10s)")


def test_criterion_6_negative_controls():
    """Diagonal pair, all-zero streams, single-bit padding mutation."""
    sep = family_from_spec({"carrier": "product", "arity": 2,
                            "sets": [{"type": "separating"}]})
    c = BitStream.seeded("criterion6")
    assert not mutual_genericity_check([c, c], sep, 1, budget=256).met(0)

    zeros = BitStream.constant(0)
    with pytest.raises(NoMarker):
        decode_pair(zeros, zeros, 1, scan_budget=512)

    fam = min_length_family(8)
    trace = entangle_pair(fam, BitStream.seeded("c6"), 8)
    cs, ds = trace.streams["c"], trace.streams["d"]
    text = ds.prefix_string.to01()
    s0 = trace.boundaries[0]
    mutated = BitStream(BitString.from01("1" + text[1:]), ConstTail(0))
    assert s0 >= 1 and text[0] == "0"
    bits, bounds = decode_pair(cs, mutated, 15, scan_budget=256)
    assert (bits, bounds) != (trace.payload_bits, trace.boundaries)
    report("PASS criterion 6: diagonal pair rejected, all-zero streams yield "
           "NoMarker, padding mutation detected")


def test_criterion_7_determinism(tmp_path):
    """Same seeds, fresh runs: byte-identical trace files."""
    def pair_run(path):
        fam = mixed_cohen_family(16, seed="d7")
        tr = entangle_pair(fam, PayloadSource.from_seed("d7"), 16)
        write_trace(path, tr)

    def wide_run(path):
        fam = min_length_family(14)
        tr = entangle_wide(cohen_poset(), cohen_wide_witness(), fam,
                           PayloadSource.from_seed("d7w"), 12)
        write_trace(path, tr)

    def chain_run(path):
        fam = square_family(12, seed="d7c")
        rows = list(build_generics_run(fam, 3, 12, seed="d7f").streams.values())
        tr = bound_chain(rows, square_family(12), fill_seed="d7f")
        write_trace(path, tr)

    for name, run in (("pair", pair_run), ("wide", wide_run),
                      ("chain", chain_run)):
        a, b = tmp_path / f"{name}-a.json", tmp_path / f"{name}-b.json"
        run(a)
        run(b)
        assert a.read_bytes() == b.read_bytes(), f"{name} traces differ"
    report("PASS criterion 7: pair/wide/chain traces byte-identical across "
           "re-runs with fixed seeds")
