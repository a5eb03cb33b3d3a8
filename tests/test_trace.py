"""Trace persistence: round trips, determinism, verification hooks, and the
writer's bytes against `json.dumps(indent=2, sort_keys=True)`."""

import copy
import dataclasses
import io
import json
import math
import os
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab import bits as bits_module
from forcing_lab import trace as trace_module
from forcing_lab.bits import (BitStream, BitString, PayloadSource,
                              chain_from_json, chain_to_json)
from forcing_lab.cli import ENV_SEED, main
from forcing_lab.closure import bound_chain, build_generics_run
from forcing_lab.dense import (min_length_family, mixed_cohen_family,
                               mixed_plane_family)
from forcing_lab.entangle import entangle_many, entangle_pair
from forcing_lab.errors import UsageError
from forcing_lab.plane import GenericPlane, PlaneCondition, merge_conditions
from forcing_lab.posets import cohen_poset, cohen_wide_witness
from forcing_lab.towers import (NatTable, nat_add, nat_equal, nat_mul_pow2,
                                nat_pow2)
from forcing_lab.trace import _dump, load_trace, trace_from_json, write_trace
from forcing_lab.verify import verify_trace
from forcing_lab.wide import entangle_wide

FAMILIES = Path(__file__).resolve().parents[1] / "docs" / "families"


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


def plane_cells(value) -> list:
    """The `default` hook of the trace file definition: a plane condition
    is its cell list, and anything else raises as json does."""
    if type(value) is PlaneCondition:
        return value.to_json()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def stdlib_dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True,
                      default=plane_cells) + "\n"


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


def test_dump_hands_plane_conditions_to_the_hook_in_any_value():
    """A plane condition the writer meets inside a value it leaves to
    json.dumps, such as a dict with int keys, is still its cell list."""
    p = PlaneCondition({(0, 2): 1, (0, 1): 0})
    value = {"a": {2: p, 1: [p]}, "b": [p, {"c": p}]}
    assert _dump(value) == stdlib_dump(value)
    assert json.loads(_dump(value))["a"]["2"] == [[0, 1, 0], [0, 2, 1]]


def test_dump_sorts_int_keys_numerically():
    value = {"a": {10: [1], 2: {}}, "b": [[]]}
    assert _dump(value) == stdlib_dump(value) == (
        '{\n  "a": {\n    "2": {},\n    "10": [\n      1\n    ]\n  },\n'
        '  "b": [\n    []\n  ]\n}\n')


# keys a record template must escape (quotes, backslashes, `%`), from a
# small set so that one list holds several key tuples
_KEYS = st.sampled_from(["a", "b", "op", "$nat", "%", "%s", "100%%", '"',
                         "\\", "\xe9", "\u2028", "\U0001f600"]) | _TEXT
# nat references, and dicts that only look like one
_NAT_REFS = (st.builds(lambda n: {"$nat": n}, st.integers(0, 2 ** 70))
             | st.sampled_from([{"$nat": True}, {"$nat": 1, "x": 2},
                                {"$nat": None}, {"$nat": 1.0}, {}]))
_INT_KEYED = st.dictionaries(st.integers(), _SCALARS, max_size=3)
# lists of records: several key tuples, empty dicts, every JSON scalar,
# nat references and nested values; records with int keys, sorted
# numerically
_RECORDS = st.lists(st.dictionaries(_KEYS, _SCALARS | _NAT_REFS | _VALUES,
                                    max_size=4), min_size=1, max_size=8)
_INT_KEYED_RECORDS = st.lists(_INT_KEYED, min_size=1, max_size=4)
# run rows: ints and nat references, or dicts that only look like one
_RUN_ROWS = st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70) | _NAT_REFS,
                              min_size=1, max_size=4), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(_RECORDS, _INT_KEYED_RECORDS, _RUN_ROWS, st.integers(0, 8))
def test_dump_of_records_and_run_rows_matches_stdlib_json(records, int_keyed,
                                                          runs, at):
    for value in (records, int_keyed, runs, records + int_keyed,
                  {"conditions": {"g": ["0", {"runs": runs}]},
                   "nats": records, "stages": [records, runs]}):
        assert _dump(value) == stdlib_dump(value)
    # a record or run row item with int and str keys raises as json does
    mixed = {"a": 0, 1: 0}
    for value in (records[:at] + [mixed] + records[at:],
                  runs + [[1, mixed]]):
        with pytest.raises(TypeError):
            stdlib_dump(value)
        with pytest.raises(TypeError):
            _dump(value)


def test_dump_of_a_pair_trace_makes_as_many_calls_at_8_stages_as_at_64():
    """Each list of records is written from templates: one `_dump` of a
    pair trace over a seeded mixed Cohen family makes as many Python calls
    into the trace module at 64 stages as at 8, not some per record."""
    counts = []
    for stages in (8, 64):
        trace = entangle_pair(mixed_cohen_family(stages, seed="calls"),
                              PayloadSource.from_seed("calls"), stages)
        obj = trace.to_json()
        calls = []

        def count(frame, event, arg):
            if (event == "call"
                    and frame.f_code.co_filename == trace_module.__file__):
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            text = _dump(obj)
        finally:
            sys.setprofile(None)
        assert text == stdlib_dump(obj)
        counts.append(len(calls))
    assert counts[0] == counts[1], (counts, calls)


@pytest.mark.parametrize("value", [{1: 0, "a": 0}, [{"x": {"b": 1, 2: 0}}],
                                   {"seed": {1, 2}}, [object()]])
def test_dump_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        stdlib_dump(value)
    with pytest.raises(TypeError):
        _dump(value)


def test_dump_writes_every_trace_kind_itself(monkeypatch):
    """The five kinds' JSON values, the plane kinds' holding PlaneCondition
    objects, never reach the json.dumps fallback."""
    objs = [build().to_json() for build in (pair_trace, many_trace,
                                            wide_trace, chain_trace,
                                            generics_trace)]
    expected = list(map(stdlib_dump, objs))

    def refuse(*args, **kwargs):
        raise AssertionError("_dump fell back to json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    assert [_dump(obj) for obj in objs] == expected


# cells from a small grid with some wide columns, so that conditions share
# cells, sometimes with the other bit
_PLANE_CELLS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 2, 9, 10, 123456])),
    st.integers(0, 1), max_size=6).map(PlaneCondition)


@settings(max_examples=100, deadline=None)
@given(st.lists(_PLANE_CELLS, max_size=5), _PLANE_CELLS, st.data())
def test_plane_writer_bytes_match_stdlib_json(conditions, commitments, data):
    """The writer's plane path on random chain-bound and generic-plane
    traces: built ones, and ones whose conditions are replaced by empty,
    one-cell and overlapping conditions, and a descending chain of them."""
    chain_bound = chain_trace()
    generics = generics_trace()
    descending = list(accumulate(
        conditions, lambda p, q: merge_conditions(
            p, PlaneCondition({c: p.cells.get(c, b)
                               for c, b in q.cells.items()}))))
    traces = [
        chain_bound, generics,
        dataclasses.replace(chain_bound, conditions=conditions,
                            plane=GenericPlane(commitments=commitments)),
        dataclasses.replace(chain_bound, conditions=descending,
                            plane=GenericPlane(commitments=(
                                descending or [commitments])[-1])),
        dataclasses.replace(generics, conditions=[data.draw(_PLANE_CELLS)])]
    for trace in traces:
        obj = trace.to_json()
        assert _dump(obj) == stdlib_dump(obj)


def _raise_value_error():
    raise ValueError("no JSON for this trace")


@pytest.mark.parametrize("to_json, error", [
    (_raise_value_error, ValueError), (lambda: {"seed": {1, 2}}, TypeError)],
    ids=["to_json-raises", "unencodable-value"])
def test_failed_write_keeps_the_previous_file(tmp_path, to_json, error):
    """`write_trace` writes a trace's `to_json()`; a stand-in whose hook
    raises, or returns a value JSON cannot hold, leaves the file as it
    was."""
    path = tmp_path / "trace.json"
    write_trace(path, pair_trace())
    before = path.read_bytes()
    with pytest.raises(error):
        write_trace(path, SimpleNamespace(to_json=to_json))
    assert path.read_bytes() == before


# --- wide chains: each run list written and read on the one before it ------

def _nat_length(i: int):
    """One of three lazy naturals, made when drawn: a Nat held by the
    module would keep the intern table from emptying (see test_towers)."""
    return [nat_pow2(5000), nat_add(nat_pow2(5000), 7),
            nat_mul_pow2(3, nat_pow2(5000))][i]


# int lengths keep short strings as text (to_json writes text up to 4096
# bits, runs past it); 2^22 + 1 and the Nats give run-backed strings
_RUN_LENGTHS = (st.sampled_from([1, 2, 3, 40, 3000, 2 ** 22 + 1])
                | st.integers(0, 2).map(_nat_length))
_RUN_PAIRS = st.lists(st.tuples(st.integers(0, 1), _RUN_LENGTHS),
                      min_size=1, max_size=4)


@st.composite
def _chains(draw):
    """Strings each of which extends the one before it, sharing all its
    runs or all but the last, or is built anew, sharing none."""
    chain = [BitString(draw(_RUN_PAIRS))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            s = chain[-1]
            for bit, length in draw(_RUN_PAIRS):
                s = s.append_run(bit, length)
        else:
            s = BitString(draw(_RUN_PAIRS))
        chain.append(s)
    return chain


@pytest.fixture(scope="module")
def wide():
    return wide_trace()


def _outcome(read):
    try:
        strings = read()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)
    return strings, [s.length for s in strings]


def _prefix_edit(chain: list, data) -> Optional[str]:
    """Edit `chain` (JSON values) inside the rows a run list shares with
    the run list before it, all of its rows but the last; the edit's name,
    or None where no run list shares a row."""
    shared = [i for i in range(1, len(chain))
              if isinstance(chain[i], dict) and isinstance(chain[i - 1], dict)
              and len(chain[i - 1]["runs"]) > 1
              and chain[i]["runs"][:len(chain[i - 1]["runs"]) - 1]
              == chain[i - 1]["runs"][:-1]]
    if not shared:
        return None
    i = data.draw(st.sampled_from(shared))
    rows = chain[i]["runs"]
    j = data.draw(st.integers(0, len(chain[i - 1]["runs"]) - 2))
    bit, length = rows[j]
    kind = data.draw(st.sampled_from(["bit_true", "bit_float", "length_true",
                                      "length_float", "drop", "swap",
                                      "extra_key"]))
    if kind == "bit_true":
        rows[j][0] = bool(bit)
    elif kind == "bit_float":
        rows[j][0] = float(bit)
    elif kind in ("length_true", "length_float"):
        cast = bool if kind == "length_true" else float
        if type(length) is int:
            rows[j][1] = cast(length)
        else:  # a nat reference: its id
            length["$nat"] = cast(length["$nat"])
    elif kind == "drop":
        del rows[j]
    elif kind == "swap":
        rows[j], rows[-1] = rows[-1], rows[j]
    else:
        chain[i]["extra"] = 1
    return kind


@settings(max_examples=150, deadline=None)
@given(g=_chains(), h=_chains(), data=st.data())
def test_wide_chains_write_and_read_as_their_elements_do(wide, g, h, data):
    """A wide trace's chains, each run list written and read on the one
    before it, against the plain per-element path: the written bytes are
    `json.dumps` of each string's own `to_json`, with the `nats` table it
    makes, and the read strings are each run list's `BitString.from_json`.
    Edits inside the rows a run list shares with the one before it (a bit,
    an int length or a nat reference id made a bool or a float, a row
    dropped or swapped with the last, an extra key) read as they read
    element by element: the same strings, or the same error class and
    text."""
    trace = dataclasses.replace(wide, conditions={"g": g, "h": h})
    obj = trace.to_json()
    table = NatTable()
    for rec in trace.stages:
        for key in ("alpha", "j", "beta"):
            table.encode(rec[key])
    plain = {side: [s.to_json(table) for s in chain]
             for side, chain in (("g", g), ("h", h))}
    plain_obj = json.loads(json.dumps(
        {**obj, "conditions": plain, "nats": table.nodes}))
    text = _dump(obj)
    assert text == stdlib_dump(plain_obj)
    loaded = json.loads(text)
    again = trace_from_json(loaded)
    built = NatTable.decode_all(loaded["nats"])
    for side, chain in (("g", g), ("h", h)):
        each = [BitString.from_json(s, built)
                for s in loaded["conditions"][side]]
        assert again.conditions[side] == each == chain
        assert [s.length for s in again.conditions[side]] == [
            s.length for s in each]
    side = data.draw(st.sampled_from(["g", "h"]))
    edited = copy.deepcopy(loaded["conditions"][side])
    if _prefix_edit(edited, data) is not None:
        assert _outcome(lambda: chain_from_json(edited, built)) == _outcome(
            lambda: [BitString.from_json(s, built) for s in edited])


def test_a_run_list_inside_the_rows_of_the_one_before_reads_alone():
    """A run list no longer than the rows it shares with the one before,
    and the run list after it: each reads as `from_json` reads it."""
    huge = nat_pow2(5000)
    chain = [BitString([(1, huge), (0, 5)]), BitString([(1, huge)]),
             BitString([(1, huge), (0, 1)])]
    table = NatTable()
    objs = json.loads(json.dumps(chain_to_json(chain, table)))
    built = NatTable.decode_all(table.nodes)
    assert chain_from_json(objs, built) == [
        BitString.from_json(s, built) for s in objs] == chain


def _wide_io_counts(monkeypatch, steps: int) -> Counter:
    """The row texts and nat reference texts `_dump` makes of a wide trace
    of `steps` steps, and the run rows loading it normalizes."""
    trace = entangle_wide(cohen_poset(), cohen_wide_witness(),
                          min_length_family(steps + 1),
                          PayloadSource.from_bits("10" * (steps // 2)), steps)
    counts = Counter()

    def tally(values):
        for v in values:
            if type(v) is list and v and type(v[0]) is int:
                counts["row texts"] += 1
            elif type(v) is dict and "$nat" in v:
                counts["reference texts"] += 1

    items, encode = trace_module._items, trace_module._encode
    normalize = bits_module._normalize_runs

    def counted_normalize(pairs, runs=()):
        pairs = list(pairs)
        counts["rows normalized"] += len(pairs)
        return normalize(pairs, runs)

    monkeypatch.setattr(trace_module, "_items", lambda values, *args: (
        tally(values) or items(values, *args)))
    monkeypatch.setattr(trace_module, "_encode", lambda value, *args: (
        tally([value]) or encode(value, *args)))
    monkeypatch.setattr(bits_module, "_normalize_runs", counted_normalize)
    text = _dump(trace.to_json())
    trace_from_json(json.loads(text))
    monkeypatch.undo()
    assert text == stdlib_dump(trace.to_json())
    return counts


def test_wide_trace_io_counts_grow_with_the_steps_not_their_square(
        monkeypatch):
    """From 20 to 40 steps each count about doubles (117 to 237 row
    texts, 309 to 649 reference texts, 116 to 236 rows normalized).
    Written and read element by element, each chain element whole, the
    row counts grew about 3.9x (837 to 3,277 texts, 836 to 3,276 rows
    normalized) and the reference texts 3.7x (1,226 to 4,486)."""
    small = _wide_io_counts(monkeypatch, 20)
    large = _wide_io_counts(monkeypatch, 40)
    assert small.keys() == large.keys() == {
        "row texts", "reference texts", "rows normalized"}
    for key in small:
        assert large[key] <= 2.5 * small[key], (key, small, large)


def _pair_io_chars(monkeypatch, stages: int) -> Counter:
    """The characters `_dump` of a pair trace of `stages` stages escapes,
    itself or through `json.dumps`, and those loading it checks for 0/1."""
    trace = entangle_pair(mixed_cohen_family(stages, seed="io"),
                          PayloadSource.from_seed("io"), stages)
    counts = Counter()
    escape, clean = trace_module.encode_basestring_ascii, bits_module._CLEAN01

    def counted_escape(text):
        counts["escaped"] += len(text)
        return escape(text)

    def counted_dumps(value, **kwargs):
        text = json.dumps(value, **kwargs)
        counts["escaped"] += len(text)
        return text

    def counted_fullmatch(text, pos=0):
        counts["checked"] += len(text) - pos
        return clean.fullmatch(text, pos)

    obj = trace.to_json()
    monkeypatch.setattr(trace_module, "encode_basestring_ascii",
                        counted_escape)
    monkeypatch.setattr(trace_module, "json",
                        SimpleNamespace(dumps=counted_dumps))
    text = _dump(obj)
    monkeypatch.undo()
    monkeypatch.setattr(bits_module, "_CLEAN01",
                        SimpleNamespace(fullmatch=counted_fullmatch))
    again = trace_from_json(json.loads(text))
    monkeypatch.undo()
    assert again.conditions == trace.conditions
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return counts


def test_pair_trace_io_chars_grow_with_the_stages_not_their_square(
        monkeypatch):
    """From 64 to 192 stages the characters the writer escapes and the
    loader checks grow about 3x: each stage's 0/1 text is written with no
    escape, and checked only past its stream's text at the stage before.
    Escaped and checked whole, they grew about 9x, as the text does."""
    small = _pair_io_chars(monkeypatch, 64)
    large = _pair_io_chars(monkeypatch, 192)
    assert small.keys() == large.keys() == {"escaped", "checked"}
    for key in small:
        assert large[key] <= 3.5 * small[key], (key, small, large)


@pytest.mark.parametrize("make", [pair_trace, many_trace])
def test_pair_and_many_traces_dump_through_json_with_no_hook(make):
    """The condition records the writer marks are still a list of dicts
    of strs to `json`."""
    obj = make().to_json()
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == _dump(obj)
    assert json.loads(json.dumps(obj)) == json.loads(_dump(obj))


def _decode_each_text(cls, obj, values):
    """`_StringsTrace._decode` as it read every condition's text whole."""
    conds, names = values["conditions"], set(values["streams"])
    if not all(isinstance(rec, dict) and set(rec) == names
               for rec in conds):
        raise UsageError(f"{cls.kind} trace conditions must be objects "
                         f"keyed by the stream names")
    values["conditions"] = [{name: BitString.from01(text)
                             for name, text in rec.items()} for rec in conds]


@st.composite
def _stage_texts(draw, names) -> list:
    """Condition records whose texts each extend the stream's text at the
    stage before by 0 to 5 bits."""
    conds = [{} for _ in range(draw(st.integers(1, 6)))]
    for name in names:
        text = ""
        for rec in conds:
            text += draw(st.text(alphabet="01", max_size=5))
            rec[name] = text
    return conds


_NOT_TEXT = st.sampled_from([0, 1, None, True, 1.5, ["0"], {"0": 1}])


def _edit_texts(conds: list, data) -> None:
    """One to three edits of condition records: a character replaced, a
    text cut or extended, two texts of one stream or of two streams
    swapped, a value that is not a str, or a record's keys reordered."""
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(
            ["char", "cut", "extend", "swap_stage", "swap_stream",
             "not_text", "reorder"]))
        i = data.draw(st.integers(0, len(conds) - 1))
        rec = conds[i]
        name = data.draw(st.sampled_from(sorted(rec)))
        text = rec[name]
        if kind == "reorder":
            conds[i] = dict(reversed(list(rec.items())))
        elif kind == "not_text":
            rec[name] = data.draw(_NOT_TEXT)
        elif kind.startswith("swap"):
            j = data.draw(st.integers(0, len(conds) - 1))
            other = name if kind == "swap_stage" else data.draw(
                st.sampled_from(sorted(conds[j])))
            rec[name], conds[j][other] = conds[j][other], text
        elif type(text) is not str:
            continue
        elif kind == "extend":
            rec[name] = text + data.draw(st.sampled_from(
                ["0", "00", "1", "01", "0x", "é"]))
        elif text:
            at = data.draw(st.integers(0, len(text) - 1))
            rec[name] = text[:at] + (data.draw(st.sampled_from(
                ["2", "x", " ", "é"])) + text[at + 1:] if kind == "char"
                else "")


def _loaded_conditions(obj):
    """The condition records `trace_from_json` loads from `obj`, as lists
    of (name, string, length), or the error's class and text."""
    try:
        conds = trace_from_json(obj).conditions
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)
    return [[(name, s, s.length) for name, s in rec.items()] for rec in conds]


@settings(max_examples=200, deadline=None)
@given(make=st.sampled_from([pair_trace, many_trace]), data=st.data())
def test_stage_texts_load_as_each_text_read_whole_does(make, data):
    """Random stage texts, edited, load from one text to the next as they
    load each read whole by `from01`: the same strings, in the same key
    order, or the same error class and text for the first bad text."""
    obj = json.loads(_dump(make().to_json()))
    names = [s["name"] for s in obj["streams"]]
    obj["conditions"] = data.draw(_stage_texts(names))
    if data.draw(st.booleans()):
        _edit_texts(obj["conditions"], data)
    got = _loaded_conditions(obj)
    with mock.patch.object(trace_module._StringsTrace, "_decode",
                           classmethod(_decode_each_text)):
        assert got == _loaded_conditions(obj)


def test_a_text_past_its_stream_text_is_checked_past_it_alone():
    """The first bad text in record order names its first bad character,
    wherever it lies against the text before it."""
    obj = json.loads(_dump(pair_trace().to_json()))
    conds = obj["conditions"]
    conds[1]["d"] = conds[0]["d"] + "é0"
    conds[2]["c"] = "x" + conds[2]["c"]
    with pytest.raises(UsageError, match="invalid bitstring character 'é'"):
        trace_from_json(obj)
    conds[1]["d"] = conds[0]["d"]
    with pytest.raises(UsageError, match="invalid bitstring character 'x'"):
        trace_from_json(obj)


def _verify_run(path: str):
    """`verify --trace path`: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--trace", path])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def cli_strings_traces(tmp_path_factory):
    """A CLI-written pair trace (mixed12, 6 stages) and many trace (k = 4,
    product32-arity3, 3 stages), as JSON values."""
    tmp = tmp_path_factory.mktemp("strings")
    runs = {"pair": ["entangle-pair", "--family",
                     str(FAMILIES / "mixed12.json"), "--payload",
                     "bits:10110100111", "--stages", "6"],
            "many": ["entangle-many", "--k", "4", "--family",
                     str(FAMILIES / "product32-arity3.json"), "--payload",
                     "bits:101101001110", "--stages", "3"]}
    objs = {}
    for kind, argv in runs.items():
        path = str(tmp / f"{kind}.json")
        with mock.patch.dict(os.environ), redirect_stdout(io.StringIO()):
            os.environ.pop(ENV_SEED, None)
            assert main(argv + ["--out", path]) == 0
        assert _verify_run(path)[0] == 0
        objs[kind] = json.loads(Path(path).read_text())
    return objs


def _verify_reading_each_text_whole(path: str):
    """`_verify_run` on the per-text reference path: the stage texts each
    loaded whole, stream prefixes tested on `take(n)` strings, and each
    marker found in a `take01` slice."""
    with mock.patch.object(trace_module._StringsTrace, "_decode",
                           classmethod(_decode_each_text)), \
            mock.patch.object(BitStream, "starts_with",
                              lambda self, s: self.take(s.length) == s), \
            mock.patch.object(BitStream, "find_one",
                              lambda self, start, stop: self.take01(
                                  stop).find("1", start)):
        return _verify_run(path)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["pair", "many"]), data=st.data())
def test_edited_cli_traces_verify_as_each_text_read_whole_does(
        cli_strings_traces, tmp_path_factory, kind, data):
    """CLI-written pair and many traces whose stage texts are edited, or
    a stream's prefix: `verify` gives the same exit code, stdout and
    stderr as with every text read whole."""
    obj = copy.deepcopy(cli_strings_traces[kind])
    if data.draw(st.booleans()):
        _edit_texts(obj["conditions"], data)
    else:
        stream = data.draw(st.sampled_from(obj["streams"]))
        prefix = stream["prefix"]
        stream["prefix"] = data.draw(st.sampled_from([
            prefix[:-1], prefix + "1", prefix + "01",
            "10"[int(prefix[0])] + prefix[1:]]))
    path = str(tmp_path_factory.mktemp("edited") / "trace.json")
    Path(path).write_text(json.dumps(obj, indent=2))
    assert _verify_run(path) == _verify_reading_each_text_whole(path)
