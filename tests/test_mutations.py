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
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forcing_lab.bits import BitStream, PrngTail
from forcing_lab.cli import main
from forcing_lab.dense import load_family_file
from forcing_lab.entangle import entangle_pair
from forcing_lab.trace import write_trace

FAMILIES = Path(__file__).resolve().parents[1] / "docs" / "families"

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


@pytest.fixture(scope="module")
def derived_targets(tmp_path_factory):
    """(kind, CLI-written trace, key path of each int inside a derived
    field) for the kinds whose derived fields `verify` recomputes."""
    tmp = tmp_path_factory.mktemp("derived")
    out = []
    for kind in ("pair", "many", "wide"):
        path = tmp / f"{kind}.json"
        rc, err = run_cli(TRACES[kind][0] + ["--out", path])
        assert rc == 0, err
        obj = json.loads(path.read_text())
        ints = [p for key in DERIVED_KEYS
                for p in json_paths(obj[key], (key,))
                if type(_at(obj, p)) is int]
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
