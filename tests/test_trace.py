"""Trace persistence: round trips, determinism, verification hooks."""

import json

from forcing_lab.bits import BitStream, PayloadSource
from forcing_lab.closure import bound_chain, build_generics_run
from forcing_lab.dense import min_length_family, mixed_plane_family
from forcing_lab.entangle import entangle_many, entangle_pair
from forcing_lab.posets import cohen_poset, cohen_wide_witness
from forcing_lab.towers import nat_equal
from forcing_lab.trace import load_trace, trace_from_json, write_trace
from forcing_lab.verify import verify_trace
from forcing_lab.wide import entangle_wide


def roundtrip(tmp_path, trace, name):
    path = tmp_path / name
    write_trace(path, trace)
    again = load_trace(path)
    path2 = tmp_path / ("re-" + name)
    write_trace(path2, again)
    assert path.read_bytes() == path2.read_bytes()
    return again


def test_pair_trace_roundtrip_and_verify(tmp_path):
    fam = min_length_family(6, seed="tp")
    trace = entangle_pair(fam, BitStream.seeded("pp"), 6)
    again = roundtrip(tmp_path, trace, "pair.json")
    assert again.payload_bits == trace.payload_bits
    assert again.boundaries == trace.boundaries
    assert verify_trace(again).all_passed


def test_many_trace_roundtrip_and_verify(tmp_path):
    fam = min_length_family(5, carrier="product", arity=2)
    trace = entangle_many(3, fam, BitStream.seeded("mm"), 5)
    again = roundtrip(tmp_path, trace, "many.json")
    assert verify_trace(again).all_passed


def test_wide_trace_roundtrip_and_verify(tmp_path):
    fam = min_length_family(12)
    trace = entangle_wide(cohen_poset(), cohen_wide_witness(), fam,
                          BitStream.seeded("ww"), 8)
    g, h = trace.g_chain, trace.h_chain
    again = roundtrip(tmp_path, trace, "wide.json")
    # rebuilt chains intern back to equal conditions and nat values
    assert again.g_chain == g and again.h_chain == h
    for rec, rec2 in zip(trace.stages, again.stages):
        assert nat_equal(rec["alpha"], rec2["alpha"])
        assert nat_equal(rec["j"], rec2["j"])
        assert nat_equal(rec["beta"], rec2["beta"])
    assert verify_trace(again).all_passed


def test_chain_trace_roundtrip_and_verify(tmp_path):
    fam = mixed_plane_family(10)
    rows = list(build_generics_run(fam, 3, 10, seed="ct").streams.values())
    trace = bound_chain(rows, fam, fill_seed="ct")
    again = roundtrip(tmp_path, trace, "chain.json")
    assert again.patches == trace.patches
    assert verify_trace(again).all_passed


def test_generics_trace_roundtrip_and_verify(tmp_path):
    fam = mixed_plane_family(8)
    trace = build_generics_run(fam, 2, 8, seed="gt")
    again = roundtrip(tmp_path, trace, "generics.json")
    assert verify_trace(again).all_passed


def test_identical_runs_identical_bytes(tmp_path):
    def run(path):
        fam = min_length_family(6, seed="det")
        trace = entangle_pair(fam, PayloadSource.from_seed("det"), 6)
        write_trace(path, trace)

    run(tmp_path / "a.json")
    run(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_envelope_fields_present(tmp_path):
    fam = min_length_family(3)
    trace = entangle_pair(fam, BitStream.constant(0), 3)
    obj = json.loads(json.dumps(trace.to_json()))
    for key in ("kind", "family", "seed", "payload_source", "stages",
                "streams", "boundaries", "conditions"):
        assert key in obj
    assert obj["kind"] == "pair"
    assert trace_from_json(obj).boundaries == trace.boundaries


def test_wide_trace_sizes_stay_bounded(tmp_path):
    """Shared-node encoding keeps 20-step tower traces small on disk."""
    fam = min_length_family(30)
    trace = entangle_wide(cohen_poset(), cohen_wide_witness(), fam,
                          BitStream.seeded("sz"), 20)
    path = tmp_path / "w20.json"
    write_trace(path, trace)
    assert path.stat().st_size < 2_000_000
    assert verify_trace(load_trace(path)).all_passed
