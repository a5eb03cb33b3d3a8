"""Trace persistence: round trips, determinism, verification hooks, and the
writer's bytes against `json.dumps(indent=2, sort_keys=True)`."""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab.bits import BitStream, PayloadSource
from forcing_lab.closure import bound_chain, build_generics_run
from forcing_lab.dense import min_length_family, mixed_plane_family
from forcing_lab.entangle import entangle_many, entangle_pair
from forcing_lab.posets import cohen_poset, cohen_wide_witness
from forcing_lab.towers import nat_equal
from forcing_lab.trace import _dump, load_trace, trace_from_json, write_trace
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


def pair_trace():
    return entangle_pair(min_length_family(6, seed="tp"),
                         BitStream.seeded("pp"), 6)


def many_trace():
    fam = min_length_family(5, carrier="product", arity=2)
    return entangle_many(3, fam, BitStream.seeded("mm"), 5)


def wide_trace():
    return entangle_wide(cohen_poset(), cohen_wide_witness(),
                         min_length_family(12), BitStream.seeded("ww"), 8)


def chain_trace():
    fam = mixed_plane_family(10)
    rows = list(build_generics_run(fam, 3, 10, seed="ct").streams.values())
    return bound_chain(rows, fam, fill_seed="ct")


def generics_trace():
    return build_generics_run(mixed_plane_family(8), 2, 8, seed="gt")


def test_pair_trace_roundtrip_and_verify(tmp_path):
    trace = pair_trace()
    again = roundtrip(tmp_path, trace, "pair.json")
    assert again.payload_bits == trace.payload_bits
    assert again.boundaries == trace.boundaries
    assert verify_trace(again).all_passed


def test_many_trace_roundtrip_and_verify(tmp_path):
    again = roundtrip(tmp_path, many_trace(), "many.json")
    assert verify_trace(again).all_passed


def test_wide_trace_roundtrip_and_verify(tmp_path):
    trace = wide_trace()
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
    trace = chain_trace()
    again = roundtrip(tmp_path, trace, "chain.json")
    assert again.patches == trace.patches
    assert verify_trace(again).all_passed


def test_generics_trace_roundtrip_and_verify(tmp_path):
    again = roundtrip(tmp_path, generics_trace(), "generics.json")
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


def stdlib_dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# text heavy in what JSON must escape: quotes, backslashes, control
# characters, DEL, line separators, non-ASCII, astral and lone surrogates
_TEXT = st.text() | st.text(st.sampled_from(
    '"\\/\x00\x1f\x7f\u2028\xe9\u00fc\ud800\udfff\U0001f600ab0'))
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10 ** 300, max_value=10 ** 300)
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
            | _TEXT)
# lists of int lists, the shape of plane cells; some rows hold a bool
_INT_ROWS = st.lists(st.lists(st.integers(), min_size=1, max_size=4)
                     | st.lists(st.integers() | st.booleans(), max_size=4),
                     max_size=6)
_VALUES = st.recursive(
    _SCALARS | _INT_ROWS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=5)
                   | st.dictionaries(st.integers(), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_dump_matches_stdlib_json(value):
    assert _dump(value) == stdlib_dump(value)


# rows of 1-4 ints, as lists or tuples, mixed in one list (the templated
# row path), and str -> int maps such as patches
_CELL_ROWS = st.lists(st.lists(st.integers(), min_size=1, max_size=4)
                      | st.tuples(st.integers(), st.integers())
                      | st.tuples(st.integers(), st.integers(), st.integers()),
                      min_size=1, max_size=12)
_INT_MAPS = st.dictionaries(_TEXT, st.integers()
                            | st.integers(min_value=-10 ** 300,
                                          max_value=10 ** 300), max_size=8)


@settings(max_examples=200, deadline=None)
@given(_CELL_ROWS, _INT_MAPS)
def test_dump_of_int_rows_and_int_maps_matches_stdlib_json(rows, patch):
    for value in (rows, patch, {"conditions": [rows, rows[:1]],
                                "patches": {"0": patch}}):
        assert _dump(value) == stdlib_dump(value)


def test_dump_sorts_int_keys_numerically():
    value = {"a": {10: [1], 2: {}}, "b": [[]]}
    assert _dump(value) == stdlib_dump(value) == (
        '{\n  "a": {\n    "2": {},\n    "10": [\n      1\n    ]\n  },\n'
        '  "b": [\n    []\n  ]\n}\n')


@pytest.mark.parametrize("value", [{1: 0, "a": 0}, [{"x": {"b": 1, 2: 0}}],
                                   {"seed": {1, 2}}, [object()]])
def test_dump_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        stdlib_dump(value)
    with pytest.raises(TypeError):
        _dump(value)


def test_dump_writes_every_trace_kind_itself(monkeypatch):
    """The five kinds' JSON shapes never reach the json.dumps fallback."""
    objs = [build().to_json() for build in (pair_trace, many_trace, wide_trace,
                                            chain_trace, generics_trace)]
    expected = [stdlib_dump(obj) for obj in objs]

    def refuse(*args, **kwargs):
        raise AssertionError("_dump fell back to json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    assert [_dump(obj) for obj in objs] == expected


def _raise_value_error():
    raise ValueError("no JSON for this trace")


@pytest.mark.parametrize("to_json, error", [
    (_raise_value_error, ValueError), (lambda: {"seed": {1, 2}}, TypeError)],
    ids=["to_json-raises", "unencodable-value"])
def test_failed_write_keeps_the_previous_file(tmp_path, to_json, error):
    path = tmp_path / "trace.json"
    write_trace(path, pair_trace())
    before = path.read_bytes()
    with pytest.raises(error):
        write_trace(path, SimpleNamespace(to_json=to_json))
    assert path.read_bytes() == before
