"""Mutation fuzzing of the CLI's input boundary.

Each example takes one valid input, either a CLI-written trace of each kind
or a `docs/families/` file, makes one JSON edit to it and runs a command
that reads it. The edit deletes a key or list item, swaps a value for one
of another JSON type, renames a stream, or truncates or extends a list.
Whatever the edit, the command must end with exit 0, 1 or 2 and at most
one stderr line; it must never escape `cli.main` as an exception.

Bit files get the same test: one input of `decode-pair --c/--d`,
`decode-many --streams` or a `file:` payload is deleted, emptied, or given
a non-ASCII byte or a non-binary character.

Recorded edits pin the other direction: edits to derived fields must fail
`verify`, and for each `verify` item that one edit can fail alone, one
such edit makes that item the only FAIL.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab.bits import BitStream, PrngTail
from forcing_lab.cli import main
from forcing_lab.dense import DenseSet, load_family_file
from forcing_lab.entangle import entangle_pair
from forcing_lab.errors import UsageError
from forcing_lab.posets import cohen_poset, cohen_wide_witness
from forcing_lab.towers import (nat_add, nat_equal, nat_half, nat_mul_pow2,
                                nat_parity)
from forcing_lab.trace import load_trace, write_trace
from forcing_lab.verify import _source_yields, verify_trace
from forcing_lab.wide import decode_wide, entangle_wide

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ROOT / "docs" / "families"

# One value of each JSON type: a swap puts one of another type in place.
VALUES = (None, True, 7, 1.5, "x", [], {})
STREAM_NAMES = ("x", "c", "d", "0", "1", "2", "b0", "b1", "d0", "d1")


def _family(name):
    return str(FAMILIES / f"{name}.json")


# trace kind -> (command writing it, commands reading it); IN is the input
TRACES = {
    "pair": (["entangle-pair", "--family", _family("mixed12"),
              "--payload", "hex:a5", "--stages", "4"],
             [["verify", "--trace", "IN"]]),
    "many": (["entangle-many", "--k", "4",
              "--family", _family("product32-arity3"), "--payload", "hex:ff",
              "--stages", "2"],
             [["verify", "--trace", "IN"]]),
    "wide": (["entangle-wide", "--family", _family("len8"),
              "--payload", "bits:101", "--steps", "3"],
             [["verify", "--trace", "IN"], ["decode-wide", "--trace", "IN"]]),
    "generic-plane": (["build-generics", "--family", _family("plane-mixed12"),
                       "--rows", "2", "--horizon", "6", "--seed", "g"],
                      [["verify", "--trace", "IN"],
                       ["bound-chain", "--family", _family("plane-mixed12"),
                        "--rows", "2", "--from-generics", "IN", "--seed", "f"]]),
    "chain-bound": (["bound-chain", "--family", _family("plane-mixed12"),
                     "--rows", "2", "--seed", "f"],
                    [["verify", "--trace", "IN"]]),
}
# docs/families file -> the command reading it
FAMILY_COMMANDS = {
    "len8": ["entangle-pair", "--family", "IN", "--payload", "hex:a5",
             "--stages", "4"],
    "len52": ["entangle-wide", "--family", "IN", "--payload", "bits:101",
              "--steps", "3"],
    "mixed12": ["entangle-pair", "--family", "IN", "--payload", "seed:3",
                "--stages", "4"],
    "plane-mixed12": ["bound-chain", "--family", "IN", "--rows", "2",
                      "--seed", "f"],
    "product32-arity3": ["entangle-many", "--k", "4", "--family", "IN",
                         "--payload", "hex:ff", "--stages", "2"],
    "squares48": ["build-generics", "--family", "IN", "--rows", "2",
                  "--horizon", "4", "--seed", "q"],
}


def run_cli(argv):
    """Run the CLI in-process; return (exit code, stderr text)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


def build_targets(tmp: Path):
    """Every (label, valid JSON input, argv reading it) the fuzzer edits."""
    targets = []
    for kind, (write, reads) in TRACES.items():
        path = tmp / f"{kind}.json"
        rc, err = run_cli(write + ["--out", path])
        assert rc == 0, err
        obj = json.loads(path.read_text())
        targets += [(kind, obj, argv) for argv in reads]
    for name, argv in FAMILY_COMMANDS.items():
        obj = json.loads(Path(_family(name)).read_text())
        targets.append((name, obj, argv))
    return targets


def json_paths(obj, path=()):
    """The key path of every value in a JSON document, the root included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from json_paths(value, path + (key,))


def _json_type(value):
    return "bool" if isinstance(value, bool) else type(value).__name__


def mutate(obj, path, kind, pick):
    """A copy of `obj` with one edit at `path`; `pick(seq)` chooses one
    element of a nonempty sequence."""
    obj = copy.deepcopy(obj)
    if kind == "rename":
        stream = pick([s for s in obj["streams"] if isinstance(s, dict)])
        stream["name"] = pick(STREAM_NAMES)
        return obj
    if not path:
        return pick([v for v in VALUES if _json_type(v) != _json_type(obj)])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if kind == "delete":
        del parent[key]
    elif kind == "truncate":
        del node[pick(range(len(node))):]
    elif kind == "extend":
        node.append(copy.deepcopy(pick(node + list(VALUES))))
    else:
        parent[key] = pick([v for v in VALUES
                            if _json_type(v) != _json_type(node)])
    return obj


def mutation_kinds(obj, path):
    """The edits that apply to the value at `path`."""
    node = obj
    for key in path:
        node = node[key]
    kinds = ["swap"]
    if path:
        kinds.append("delete")
    if isinstance(node, list):
        kinds += ["extend"] + (["truncate"] if node else [])
    if not path and isinstance(node, dict) and any(
            isinstance(s, dict) for s in node.get("streams", ())):
        kinds.append("rename")
    return kinds


@pytest.fixture(scope="module")
def targets(tmp_path_factory):
    return build_targets(tmp_path_factory.mktemp("fuzz"))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_mutation_never_escapes_the_cli(targets, tmp_path_factory, data):
    label, obj, argv = data.draw(st.sampled_from(targets), label="target")
    path = data.draw(st.sampled_from(list(json_paths(obj))), label="path")
    kind = data.draw(st.sampled_from(mutation_kinds(obj, path)), label="kind")
    bad = mutate(obj, path, kind,
                 lambda seq: data.draw(st.sampled_from(list(seq))))
    mutated = tmp_path_factory.getbasetemp() / "mutated.json"
    mutated.write_text(json.dumps(bad))
    rc, err = run_cli([mutated if a == "IN" else a for a in argv])
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err and len(err.splitlines()) <= 1, err


# bit-file readers: `IN` (or `file:IN`) is the edited file, BITS_<name> a
# valid file holding stream <name> of the pair or many trace
BIT_FILE_COMMANDS = [
    ("pair-c", ["decode-pair", "--c", "IN", "--d", "BITS_pair-d",
                "--count", "7"]),
    ("pair-d", ["decode-pair", "--c", "BITS_pair-c", "--d", "IN",
                "--count", "7"]),
    *[(f"many-{j}", ["decode-many", "--streams",
                     *["IN" if i == j else f"BITS_many-{i}" for i in range(4)],
                     "--count", "8"]) for j in range(4)],
    ("pair-c", ["entangle-pair", "--family", _family("mixed12"),
                "--payload", "file:IN", "--stages", "4"]),
]
BIT_FILE_EDITS = ("delete", "empty", "non-ascii", "non-binary")


@pytest.fixture(scope="module")
def bit_files(tmp_path_factory):
    """Stream name -> (its prefix as bit-file text, a valid file of it)."""
    tmp = tmp_path_factory.mktemp("bits")
    files = {}
    for kind in ("pair", "many"):
        path = tmp / f"{kind}.json"
        rc, err = run_cli(TRACES[kind][0] + ["--out", path])
        assert rc == 0, err
        for stream in json.loads(path.read_text())["streams"]:
            name = f"{kind}-{stream['name']}"
            text = stream["prefix"] + "\n"
            files[name] = (text, tmp / f"{name}.bits")
            files[name][1].write_text(text)
    return files


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_bit_file_edit_never_escapes_the_cli(bit_files, tmp_path_factory,
                                                 data):
    name, argv = data.draw(st.sampled_from(BIT_FILE_COMMANDS), label="target")
    edit = data.draw(st.sampled_from(BIT_FILE_EDITS), label="edit")
    raw = bit_files[name][0].encode("ascii")
    mutated = tmp_path_factory.getbasetemp() / "mutated.bits"
    mutated.unlink(missing_ok=True)
    if edit == "empty":
        mutated.write_bytes(b"")
    elif edit != "delete":
        added = (bytes([data.draw(st.integers(0x80, 0xFF))])
                 if edit == "non-ascii"
                 else data.draw(st.sampled_from("2x.-")).encode())
        pos = data.draw(st.integers(0, len(raw)), label="pos")
        mutated.write_bytes(raw[:pos] + added + raw[pos:])
    paths = {f"BITS_{n}": path for n, (_, path) in bit_files.items()}
    paths.update({"IN": mutated, "file:IN": f"file:{mutated}"})
    rc, err = run_cli([paths.get(a, a) for a in argv])
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err and len(err.splitlines()) <= 1, err


# Derived fields: what `verify` recomputes from the rest of a trace.
DERIVED_KEYS = ("stages", "boundaries", "payload_bits")
# the chain-bound stage fields `verify` checks by structure; only which
# clash cells an attempt found would need a replay of the retry search
CHAIN_DERIVED = ("stage", "retries", "committed_cells", "revealed_cols",
                 "reveal_to")


@pytest.fixture(scope="module")
def derived_targets(tmp_path_factory):
    """(kind, CLI-written trace, key path of each int inside a derived
    field) for the kinds whose derived fields `verify` recomputes."""
    tmp = tmp_path_factory.mktemp("derived")
    out = []
    for kind in ("pair", "many", "wide", "chain-bound"):
        path = tmp / f"{kind}.json"
        rc, err = run_cli(TRACES[kind][0] + ["--out", path])
        assert rc == 0, err
        obj = json.loads(path.read_text())
        ints = [p for key in DERIVED_KEYS
                for p in json_paths(obj[key], (key,))
                if type(_at(obj, p)) is int
                and (kind != "chain-bound" or p[-1] in CHAIN_DERIVED)]
        out.append((kind, obj, ints))
    return out


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_one_derived_field_edit_fails_verify(derived_targets, tmp_path_factory,
                                             data):
    kind, obj, ints = data.draw(st.sampled_from(derived_targets), label="kind")
    path = data.draw(st.sampled_from(ints), label="path")
    value = _at(obj, path)
    # +-1 flips a 0/1; a float or bool may equal the int it replaces
    edits = [value + 1, value - 1, float(value), True, False]
    bad = copy.deepcopy(obj)
    _at(bad, path[:-1])[path[-1]] = data.draw(st.sampled_from(edits),
                                              label="new value")
    mutated = tmp_path_factory.getbasetemp() / "derived.json"
    mutated.write_text(json.dumps(bad))
    rc, err = run_cli(["verify", "--trace", mutated])
    assert rc in (1, 2), (kind, path)
    assert "Traceback" not in err and len(err.splitlines()) <= 1, err


def _stream_payload_pair(path):
    """A pair trace whose payload source is a stream, which only the
    library writes."""
    payload = BitStream.from_prefix("0110", PrngTail("s"))
    write_trace(path, entangle_pair(load_family_file(_family("len8")),
                                    payload, 4))


def _source(edit):
    def apply(obj):
        edit(obj["payload_source"])
    return apply


def _set(**fields):
    return _source(lambda source: source.update(fields))


# (trace kind, edit of the trace JSON, exit code of `verify`)
PAYLOAD_SOURCE_EDITS = {
    "hex_a5_to_a4": ("pair", _set(hex="a4"), 1),
    "hex_a5_to_25": ("pair", _set(hex="25"), 1),
    # the same bits: a hex source is zero-extended
    "hex_a5_to_a500": ("pair", _set(hex="a500"), 0),
    "hex_not_hex": ("pair", _set(hex="a5x"), 2),
    # more than 2^22 bits: past the longest prefix a stream holds
    "hex_too_long": ("pair", _set(hex="a5" * (1 << 19) + "00"), 2),
    "hex_as_int": ("pair", _set(hex=165), 2),
    "hex_extra_key": ("pair", _set(extra=1), 2),
    "kind_unknown": ("pair", _set(kind="hexx"), 2),
    "kind_missing": ("pair", _source(lambda source: source.pop("kind")), 2),
    "source_a_list": ("pair",
                      lambda obj: obj.update(payload_source=["a5"]), 2),
    "source_removed": ("pair", lambda obj: obj.pop("payload_source"), 0),
    "bits_101_to_100": ("wide", _set(bits="100"), 1),
    "bits_too_short": ("wide", _set(bits="10"), 1),
    "bits_not_binary": ("wide", _set(bits="1x1"), 2),
    "seed_changed": ("many-seed", _set(seed="4"), 1),
    "seed_algo_unknown": ("many-seed", _set(algo="md5"), 2),
    "seed_as_int": ("many-seed", _set(seed=3), 2),
    "stream_prefix_changed": ("pair-stream", _source(
        lambda source: source["stream"].update(prefix="0111")), 1),
    "stream_tail_changed": ("pair-stream", _source(
        lambda source: source["stream"]["tail_rule"].update(seed="t")), 1),
    "stream_no_tail_rule": ("pair-stream", _source(
        lambda source: source["stream"].pop("tail_rule")), 2),
    "file_path_changed": ("pair-file", _set(path="elsewhere.bits"), 0),
    "file_path_as_int": ("pair-file", _set(path=7), 2),
    "plane_given_a_source": ("chain-bound", lambda obj: obj.update(
        payload_source={"kind": "hex", "hex": "a5"}), 2),
}


@pytest.fixture(scope="module")
def source_traces(tmp_path_factory):
    """CLI-written traces with hex, bits, seed and file sources, and a
    library-written one with a stream source."""
    tmp = tmp_path_factory.mktemp("sources")
    bits = tmp / "payload.bits"
    bits.write_text("1011\n")
    writers = {
        # 5 stages draw 9 payload bits, so the last bit of a5 is used
        "pair": ["entangle-pair", "--family", _family("mixed12"),
                 "--payload", "hex:a5", "--stages", "5"],
        "wide": TRACES["wide"][0],
        "chain-bound": TRACES["chain-bound"][0],
        "many-seed": ["entangle-many", "--k", "4",
                      "--family", _family("product32-arity3"),
                      "--payload", "seed:3", "--stages", "2"],
        "pair-file": ["entangle-pair", "--family", _family("len8"),
                      "--payload", f"file:{bits}", "--stages", "2"],
    }
    out = {}
    for label, argv in writers.items():
        path = tmp / f"{label}.json"
        assert run_cli(argv + ["--out", path]) == (0, "")
        out[label] = json.loads(path.read_text())
    path = tmp / "pair-stream.json"
    _stream_payload_pair(path)
    out["pair-stream"] = json.loads(path.read_text())
    return out


@pytest.mark.parametrize("case", sorted(PAYLOAD_SOURCE_EDITS))
def test_payload_source_edits(source_traces, tmp_path, case):
    """verify draws the payload again from a hex, bits, seed or stream
    source: a source that yields other bits fails (exit 1), a malformed
    one is a usage error (exit 2), and a file source is not checked."""
    label, edit, code = PAYLOAD_SOURCE_EDITS[case]
    path = tmp_path / "edited.json"
    assert run_cli(["verify", "--trace", _write(path, source_traces[label])]
                   ) == (0, "")
    obj = copy.deepcopy(source_traces[label])
    edit(obj)
    rc, err = run_cli(["verify", "--trace", _write(path, obj)])
    assert rc == code, err
    assert len(err.splitlines()) == (code == 2), err


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return path


# A family whose last set asks for a cell in row 20: a plane that drops its
# commitments there misses the set, though every other check still holds.
FAR_CELL_FAMILY = {"carrier": "plane", "sets": [
    {"type": "square"}, {"type": "square"}, {"type": "cell", "row": 20}]}


def _drop_last(*path):
    return lambda obj: _at(obj, path).pop()


def _flip(*path):
    def apply(obj):
        _at(obj, path[:-1])[path[-1]] ^= 1
    return apply


def _keep_rows_below(limit, *path):
    def apply(obj):
        cells = _at(obj, path)
        cells[:] = [cell for cell in cells if cell[0] < limit]
    return apply


def _lengthen_last_run(side):
    def apply(obj):
        obj["conditions"][side][-1]["runs"][-1] = [1, 2]
    return apply


def _cut_condition(name, n, length):
    """Cut stage n's `name` condition to its first `length` bits, a prefix
    of the stream outside D_n, and record that length in stage n."""
    def apply(obj):
        cond = obj["conditions"][n]
        cond[name] = cond[name][:length]
        obj["stages"][n][f"{name}_len"] = length
    return apply


def _last_stage(key, other):
    def apply(obj):
        last = obj["stages"][-1]
        last[key] = last[other]
    return apply


def _marker_at_first_boundary(obj):
    """Set stream c's bit at the first marker, in the stream and in every
    c condition that holds it, and record what `decode_pair` then reads:
    a len8 trace of payload 10110 decodes five markers at column 1."""
    at = obj["boundaries"][0]

    def set_bit(text):
        return text[:at] + "1" + text[at + 1:] if len(text) > at else text

    c = obj["streams"][0]
    c["prefix"] = set_bit(c["prefix"])
    for cond in obj["conditions"]:
        cond["c"] = set_bit(cond["c"])
    obj.update(boundaries=[1] * 5, payload_bits=[1, 0, 1, 0, 1])
    del obj["payload_source"]


def _no_stages(obj):
    obj.update(conditions=[], stages=[], boundaries=[], payload_bits=[])
    del obj["payload_source"]


def _no_steps(obj):
    obj.update(payload_bits=[], stages=[])
    for side in ("g", "h"):
        del obj["conditions"][side][1:]


# case -> (trace label, edit of the trace JSON): the edit makes the item
# named before any "/" the only one to FAIL. Labels are TRACES kinds, the
# far-cell traces or the len8 pair trace. A case named by its item alone
# is the edit README "Traces" lists for it; the others verified PASS
# before their item checked the structure they break.
ITEM_EDITS = {
    "pair-decode-roundtrip": ("pair",
                              lambda obj: obj["boundaries"].__setitem__(0, 2)),
    "pair-marker-spacing": ("len8-pair", _marker_at_first_boundary),
    "pair-stage-conditions": ("pair", _drop_last("conditions")),
    # D_1 of mixed12 asks for the word 101: c_1 is 00000101, d_1
    # 01110000111101
    "pair-c-generic": ("pair", _cut_condition("c", 1, 7)),
    "pair-d-generic": ("pair", _cut_condition("d", 1, 13)),
    "many-decode-roundtrip": ("many", lambda obj: obj["payload_source"]
                              .update(hex="fe")),
    "many-frontier-invariant": ("many", _drop_last("conditions")),
    "many-frontier-invariant/no-stages": ("many", _no_stages),
    "many-subtuples-generic": ("many",
                               lambda obj: obj["family"].update(arity=4)),
    "wide-decode-roundtrip": ("wide", _drop_last("conditions", "g")),
    "wide-decode-roundtrip/last-g-run-lengthened": ("wide",
                                                    _lengthen_last_run("g")),
    "wide-decode-roundtrip/last-h-run-lengthened": ("wide",
                                                    _lengthen_last_run("h")),
    "wide-decode-roundtrip/no-steps": ("wide", _no_steps),
    "wide-decode-roundtrip/last-j-edited": ("wide", _last_stage("j", "beta")),
    "wide-decode-roundtrip/last-beta-edited": ("wide",
                                               _last_stage("beta", "j")),
    "wide-decode-roundtrip/stage-key-added": (
        "wide", lambda obj: obj["stages"][0].update(note=0)),
    "generics-rows-are-slices": ("generic-plane",
                                 _flip("conditions", 0, 0, 2)),
    "generics-plane-meets-family": ("far-generic-plane",
                                    _keep_rows_below(2, "conditions", 0)),
    "chain-commitments-in-sets": ("chain-bound", _drop_last("conditions", 0)),
    "chain-commitments-in-sets/first-commitment-dropped": (
        "chain-bound", lambda obj: obj["conditions"].pop(0)),
    "chain-commitments-in-sets/last-commitment-dropped": (
        "chain-bound", _drop_last("conditions")),
    "chain-chain-descending": ("chain-bound", _flip("conditions", 0, 0, 2)),
    "chain-commitments-in-plane": ("chain-bound",
                                   _flip("conditions", 11, 11, 2)),
    "chain-rows-preserved-off-patches": ("chain-bound",
                                         _flip("patches", "0", "0")),
    "chain-plane-meets-family": ("far-chain-bound", _keep_rows_below(
        2, "plane", "commitments")),
}


@pytest.fixture(scope="module")
def item_traces(tmp_path_factory):
    """The CLI-written traces ITEM_EDITS edit, by label."""
    tmp = tmp_path_factory.mktemp("items")
    family = tmp / "far-cell.json"
    family.write_text(json.dumps(FAR_CELL_FAMILY))
    writers = {kind: write for kind, (write, _) in TRACES.items()}
    writers["far-generic-plane"] = ["build-generics", "--family", family,
                                    "--rows", "2", "--horizon", "3"]
    writers["far-chain-bound"] = ["bound-chain", "--family", family,
                                  "--rows", "2"]
    writers["len8-pair"] = ["entangle-pair", "--family", _family("len8"),
                            "--payload", "bits:10110", "--stages", "3"]
    out = {}
    for label, argv in writers.items():
        path = tmp / f"{label}.json"
        assert run_cli(argv + ["--out", path]) == (0, "")
        out[label] = json.loads(path.read_text())
    return out


def _verify_report(path):
    """(exit code, (passed, name) of each item) of `verify` on a trace
    file."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(["verify", "--trace", str(path)])
    return rc, [(line.startswith("ok "), line.split()[1].rstrip(":"))
                for line in out.getvalue().splitlines()
                if line.startswith(("ok ", "FAIL "))]


def _verify_items(path):
    """(exit code, names of the FAIL items) of `verify` on a trace file."""
    rc, items = _verify_report(path)
    return rc, [name for ok, name in items if not ok]


@pytest.mark.parametrize("case", sorted(ITEM_EDITS))
def test_each_verify_item_fails_alone(item_traces, tmp_path, case):
    label, edit = ITEM_EDITS[case]
    path = tmp_path / "edited.json"
    assert _verify_items(_write(path, item_traces[label])) == (0, [])
    obj = copy.deepcopy(item_traces[label])
    edit(obj)
    assert _verify_items(_write(path, obj)) == (1, [case.split("/")[0]])


def test_last_g_hit_of_another_node_fails_with_no_second_densify(tmp_path):
    """The last g condition branches at 2 alpha + z written as another node
    than the recorded j, the same value with alpha's children doubled one
    by one, and h[steps] and the last beta follow it. The walk accepts that
    index, so the trace decodes. verify compares nodes, not values: the
    recorded j is not the walk's hit, so the last pair fails at once, with
    no densify past the walk's 2 * steps + 1. A densify at the recorded
    node could not give the chain's condition: its marker run would hold
    that node, not the hit."""
    fam = load_family_file(_family("len8"))
    trace = entangle_wide(cohen_poset(), cohen_wide_witness(), fam, "101", 3)
    poset, witness, last = trace.poset, trace.witness, trace.stages[-1]
    g, h, alpha = trace.g_chain, trace.h_chain, last["alpha"]
    j = nat_add(*(nat_mul_pow2(c, 1) for c in alpha.children),
                2 * alpha.const + last["z"])
    assert nat_half(j) is alpha and nat_parity(j) == last["z"]
    assert j is not last["j"]
    g[3] = fam.densify(3, witness.antichain(g[2], j))
    last["beta"] = poset.encode(g[3])
    h[3] = fam.densify(3, witness.antichain(h[2], last["beta"]))
    path = tmp_path / "edited.json"
    write_trace(path, trace)
    assert run_cli(["decode-wide", "--trace", path]) == (0, "")
    with mock.patch.object(DenseSet, "densify", autospec=True,
                           side_effect=DenseSet.densify) as densify:
        assert _verify_items(path) == (1, ["wide-decode-roundtrip"])
    assert densify.call_count == 2 * 3 + 1


WIDE_SETS = ([{"type": "min-length"}]
             + [{"type": "parity", "parity": t} for t in (0, 1)]
             + [{"type": "pattern", "word": w} for w in ("0", "1", "01", "11")])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_wide_roundtrip_implies_descent_and_membership(item_traces,
                                                       tmp_path_factory, data):
    """wide-chains-descending and wide-chain-membership fail under no edit
    alone: wherever wide-decode-roundtrip passes, both pass (the proof is
    in `verify._verify_wide`). An edit moves an int of the trace one up or
    down, or replaces a set of the family by a catalog set."""
    obj = copy.deepcopy(item_traces["wide"])
    if data.draw(st.booleans(), label="family edit"):
        sets = obj["family"]["sets"]
        at = data.draw(st.integers(0, len(sets) - 1), label="set")
        sets[at] = data.draw(st.sampled_from(WIDE_SETS), label="new set")
    else:
        ints = [p for p in json_paths(obj) if type(_at(obj, p)) is int]
        path = data.draw(st.sampled_from(ints), label="path")
        _at(obj, path[:-1])[path[-1]] += data.draw(st.sampled_from((1, -1)))
    rc, fails = _verify_items(
        _write(tmp_path_factory.getbasetemp() / "implied.json", obj))
    if rc != 2 and "wide-decode-roundtrip" not in fails:
        assert fails == []


def test_readme_item_table_names_every_verify_item(item_traces, tmp_path):
    """README's item table lists, for each of the five kinds, exactly the
    items `verify` prints on that kind's CLI-written trace, in order."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| kind | item | edit that fails it alone |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kind, item = (cell.strip().strip("`")
                      for cell in line.split("|")[1:3])
        table.setdefault(kind, []).append(item)
    printed = {}
    for kind in TRACES:
        rc, items = _verify_report(_write(tmp_path / f"{kind}.json",
                                          item_traces[kind]))
        assert rc == 0
        printed[kind] = [name for _, name in items]
    assert table == printed


# A family whose D_1 asks for 30 zeros in a row: after `bits:000` both
# streams end in a run of zeros that the const-0 tail continues.
THIRTY_ZEROS_FAMILY = {"carrier": "cohen", "sets": [
    {"type": "min-length"}, {"type": "pattern", "word": "0" * 30}]}


def test_pair_witnesses_past_a_search_budget_verify(tmp_path):
    """Both streams' prefixes are cut before their trailing zeros, so they
    are the same infinite sequences, and each stage condition is still a
    prefix in its set. A search of each stream cut at its prefix length +
    horizon + 16 bits ends before stream c's D_1 witness; pair genericity
    is read off the stage conditions, so the trace passes."""
    family = tmp_path / "zeros.json"
    family.write_text(json.dumps(THIRTY_ZEROS_FAMILY))
    path = tmp_path / "pair.json"
    assert run_cli(["entangle-pair", "--family", family, "--payload",
                    "bits:000", "--stages", "2", "--out", path]) == (0, "")
    obj = json.loads(path.read_text())
    for stream in obj["streams"]:
        stream["prefix"] = stream["prefix"].rstrip("0")
    rc, items = _verify_report(_write(path, obj))
    assert (rc, len(items), all(ok for ok, _ in items)) == (0, 5, True)


def _densify_again_roundtrip(trace):
    """wide-decode-roundtrip as verify once checked it: each stage record
    field by field, and the last pair densified again from a last record
    that names another node than the walk's hit."""
    family, poset, witness = trace.family, trace.poset, trace.witness
    g, h = trace.g_chain, trace.h_chain
    count = len(trace.payload_bits)
    if not 0 < len(trace.stages) == count == len(g) - 1 == len(h) - 1:
        return False
    replay = decode_wide(g, h, poset, witness, family, count)
    triples = zip(replay.g_chain, replay.h_chain, replay.payload_bits)
    j, m = replay.stages[-1]["j"], replay.stages[-1]["beta"]
    g_last, h_last = replay.g_chain[count], replay.h_chain[count]
    for n, (p, q, z) in enumerate(triples):
        rec = trace.stages[n]
        if not (z == trace.payload_bits[n] and p == g[n] and q == h[n]
                and rec["step"] == n and rec["z"] == z
                and nat_equal(rec["alpha"], poset.encode(q))
                and nat_equal(rec["j"],
                              nat_add(nat_mul_pow2(rec["alpha"], 1), z))
                and poset.leq(h[n + 1], witness.antichain(q, rec["beta"]))):
            return False
    last = trace.stages[-1]
    for chain, key, hit, walked in ((g, "j", j, g_last),
                                    (h, "beta", m, h_last)):
        if not nat_equal(last[key], hit):
            branch = witness.antichain(chain[count - 1], last[key])
            walked = family.densify(count, branch)
        if chain[count] != walked:
            return False
    return _source_yields(trace)


@pytest.fixture(scope="module")
def wide_traces(tmp_path_factory):
    """CLI-written wide traces: len8 and len52, unseeded and seeded."""
    tmp = tmp_path_factory.mktemp("wide")
    writers = [TRACES["wide"][0],
               ["entangle-wide", "--family", _family("len52"),
                "--payload", "seed:w", "--steps", "4", "--seed", "s1"]]
    out = []
    for i, argv in enumerate(writers):
        path = tmp / f"wide{i}.json"
        assert run_cli(argv + ["--out", path]) == (0, "")
        out.append(json.loads(path.read_text()))
    return out


def _point_at_another_node(obj, pick):
    """Set one stage's alpha, j or beta to a nat reference (or int) of
    another stage field."""
    refs = [(rec, key) for rec in obj["stages"] for key in ("alpha", "j",
                                                            "beta")]
    rec, key = pick(refs)
    other, other_key = pick(refs)
    rec[key] = copy.deepcopy(other[other_key])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_one_stage_compare_matches_the_field_checks(wide_traces,
                                                    tmp_path_factory, data):
    """verify compares a wide trace's stage records with those of the
    decoder's replay once and fails a last record that does not name
    the walk's hits: on random edits of CLI-written wide traces it gives
    the verdicts of the field-by-field check and the densify again."""
    obj = copy.deepcopy(data.draw(st.sampled_from(wide_traces)))
    pick = lambda seq: data.draw(st.sampled_from(list(seq)))
    edit = data.draw(st.sampled_from(("int", "node", "drop")), label="edit")
    if edit == "int":
        ints = [p for p in json_paths(obj) if type(_at(obj, p)) is int]
        path = pick(ints)
        _at(obj, path[:-1])[path[-1]] += pick((1, -1))
    elif edit == "node":
        _point_at_another_node(obj, pick)
    else:
        obj["conditions"][pick("gh")].pop()
    path = _write(tmp_path_factory.getbasetemp() / "stages.json", obj)
    try:
        trace = load_trace(path)
    except UsageError:
        return
    items = verify_trace(trace).items
    try:
        expected = _densify_again_roundtrip(trace)
    except Exception:  # noqa: BLE001 - verify reports it as a FAIL
        expected = False
    assert [(name, ok if name != "wide-decode-roundtrip" else expected)
            for name, ok, _ in items] == [(name, ok) for name, ok, _ in items]
