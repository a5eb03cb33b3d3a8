"""Audit traces, their JSON persistence, and the report of re-checking them.

Every construction returns a trace: the complete record of stage lengths,
coding points, chosen conditions and payload bits, enough to replay and
re-verify the run without re-running the construction. Every kind shares
one envelope, the `Trace` fields {kind, family, seed, payload_source,
payload_bits, boundaries, stages, conditions, streams}; a kind only adds
keys of its own and converts the fields it keeps decoded. A loaded trace
holds decoded values only, its stream names checked, so no other module
parses trace JSON. Serialization is deterministic (sorted keys, stable
node ids), so identical runs give identical bytes.

A trace's JSON value is `Trace.to_json()`, which leaves each plane
condition as the object: the writer re-indents the condition's key text,
the `json.dumps` of its cell list that a built condition already holds,
instead of building `[r, c, b]` lists. A wide trace's run lists
(`bits.RunRows`) and `nats` table (`NatNodes`) are list subclasses: json
writes them as the lists they are, and the writer writes a chain's run
lists each from the text of the one before it, and the table from one
template per node op.
A pair or many trace's condition records are a list subclass too
(`StageTexts`): json writes them as the list they are, and the writer
puts each 0/1 text in its quotes with no escape pass.
On disk a trace is exactly the bytes of
`json.dumps(trace.to_json(), indent=2, sort_keys=True, default=_plane_cells)`
followed by a newline, where the hook `_plane_cells` writes a
PlaneCondition as its `to_json()` list: ASCII only, non-ASCII text
escaped as `\\uXXXX`. `_dump` is the one writer of those bytes; it builds
them itself, without the pure-Python encoder the stdlib falls back to when
`indent` is set, and writes each list from templates, not item by item:
int rows, rows of ints and nat references, and records (dicts with str
keys).

Bitstrings are stored as ASCII '0'/'1' when small; a pair or many stage
text extends its stream's text at the stage before, and loading checks it
for 0/1 only past that text. Conditions from wide runs can be
astronomically long, and are stored as run lists whose lengths live in a
shared table of lazy-natural nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import is_
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Tuple

from .bits import (_MATERIALIZE_LIMIT, BitStream, BitString, PayloadSource,
                   RunRows, _is_bit, _is_nat_text, chain_from_json,
                   chain_to_json, stream_from_json)
from .dense import (CARRIER_COHEN, CARRIER_PLANE, CARRIER_POSET,
                    CARRIER_PRODUCT, DenseFamily, family_from_spec)
from .errors import CheckFailure, UsageError
from .plane import GenericPlane, PlaneCondition
from .posets import (POSET_REGISTRY, WITNESS_REGISTRY, CountablePoset,
                     WidenessWitness)
from .towers import NatTable, nat_resolve

def _dump(obj) -> str:
    """The trace file text of `obj`: `json.dumps(obj, indent=2,
    sort_keys=True, default=_plane_cells)` plus a newline, byte for byte.

    With `indent` set the stdlib leaves its C encoder for generators that
    yield one piece per value, so the shapes traces hold are written here
    and any other value is handed to `json.dumps`. Each list is written
    from templates with one `%`, not item by item:
    - rows, such as int rows (clash lists) and run rows of ints and nat
      references `{"$nat": id}`: one template per row length;
    - records, dicts with str keys (stage records, conditions, family
      sets, stream objects, nat nodes, nat references): one template per
      sorted key tuple.
    The values a list holds are written kind by kind, so the lists and
    records among them are again written as one list. A plane condition is
    its key text re-indented (`_cells`): a condition a build derives from
    the empty one made that text while it was built, row by row.
    Each run list of a wide chain is the text of the run list before it,
    cut before that list's last row, and the texts of its own new rows
    (`_run_rows`), and the `nats` table is filled into one template per
    node op with each reference's text made once (`_nat_nodes`): for a
    trace of n steps it makes the texts of O(n) rows and references, not
    of the O(n^2) its chains and table hold. The condition records of a
    pair or many trace (`StageTexts`) are one join of each 0/1 text, in
    its quotes, between the cuts of one template per key tuple: for n
    stages their O(n^2) characters are copied once, and none is escaped.
    """
    return _encode(obj, "\n", {}) + "\n"


def _encode(obj, nl: str, memo: dict) -> str:
    """JSON text of `obj` whose every line break is `nl`, a newline and the
    current indent; `memo` holds, for one write, the texts that `_run_rows`
    reuses."""
    t = type(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + _items(obj, inner, memo, "," + inner) \
            + nl + "]"
    if t is dict and all(type(k) is str for k in obj):
        keys = sorted(obj)
        inner = nl + "  "
        return _record_template(keys, inner, nl) % tuple(
            _texts(list(map(obj.__getitem__, keys)), inner, memo))
    if t is PlaneCondition:
        return _cells(obj, nl)
    if t is RunRows:
        return _run_rows(obj, nl, memo)
    if t is NatNodes:
        return _nat_nodes(obj, nl, memo)
    if t is StageTexts:
        return _stage_texts(obj, nl)
    # floats, other keys, other types: ASCII-escaped JSON holds no raw
    # newline inside a string, so re-indenting by replacement is exact
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=_plane_cells).replace("\n", nl)


def _plane_cells(obj) -> list:
    """json's `default` hook for a trace value: a PlaneCondition is its
    `to_json()` list, and anything else is not JSON, as json says."""
    if type(obj) is PlaneCondition:
        return obj.to_json()
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def _items(items: list, inner: str, memo: dict, sep: str) -> str:
    """The JSON texts of the non-empty `items`, each starting on line
    `inner`, joined by `sep`.

    Records (all items dicts with str keys) are filled with one `%` into
    one template per sorted key tuple, and rows (all items lists or tuples)
    into one template per length; the values they hold, and the items of
    any other list, are written by `_texts`."""
    deeper = inner + "  "
    kinds = set(map(type, items))
    if kinds == {dict} and set(map(type, chain.from_iterable(items))) <= {str}:
        shapes = list(map(tuple, map(sorted, items)))
        templates = {keys: _record_template(keys, deeper, inner)
                     for keys in set(shapes)}
        values = [item[k] for item, keys in zip(items, shapes) for k in keys]
    elif kinds <= {list, tuple}:
        shapes = list(map(len, items))
        templates = {n: "[" + deeper + ("," + deeper).join(["%s"] * n) + inner
                     + "]" if n else "[]" for n in set(shapes)}
        values = list(chain.from_iterable(items))
    else:
        return sep.join(["%s"] * len(items)) % tuple(
            _texts(items, inner, memo))
    return sep.join(map(templates.__getitem__, shapes)) % tuple(
        _texts(values, deeper, memo))


def _record_template(keys, inner: str, nl: str) -> str:
    """The `%` template of a dict with the sorted str `keys`, one `%s` per
    value, whose keys start on line `inner` and closing brace on `nl`."""
    if not keys:
        return "{}"
    return "{" + inner + ("," + inner).join(
        [encode_basestring_ascii(k).replace("%", "%%") + ": %s"
         for k in keys]) + nl + "}"


# Below this many values (a small dict's), writing each on its own costs
# less than writing them kind by kind; measured on the benchmark's traces.
_FEW = 8


def _texts(values: list, nl: str, memo: dict) -> list:
    """The JSON text of each of `values`, whose line breaks are `nl`, for
    a `%s` slot: where all are ints, the ints themselves (`%s` writes an
    int as `int.__repr__` does); where all are strings, one map; fewer
    than `_FEW` values each on its own; else kind by kind, two or more
    lists, or records, of a kind written by one `_items` call whose texts
    are split apart at NULs (no JSON text here holds one)."""
    types = list(map(type, values))
    kinds = dict.fromkeys(types)
    if kinds.keys() == {int}:
        return values
    if kinds.keys() == {str}:
        return list(map(encode_basestring_ascii, values))
    if len(values) < _FEW:
        return [int.__repr__(v) if type(v) is int
                else encode_basestring_ascii(v) if type(v) is str
                else _encode(v, nl, memo) for v in values]
    if len(kinds) > 1:
        # each kind written on its own, kinds in order of first appearance,
        # the texts then put back in order
        texts = {t: iter(_texts(list(compress(values, map(is_, types,
                                                          repeat(t)))),
                                nl, memo)) for t in kinds}
        return list(map(next, map(texts.__getitem__, types)))
    if list in kinds or tuple in kinds or (
            dict in kinds
            and set(map(type, chain.from_iterable(values))) <= {str}):
        return _items(values, nl, memo, "\0").split("\0")
    return [_encode(v, nl, memo) for v in values]


def _cells(p: PlaneCondition, nl: str) -> str:
    """The JSON text of `p.to_json()` whose line breaks are `nl`: p's key
    text, `json.dumps(p.to_json())`, re-indented. That text holds only
    ints, brackets and `, `, so a `, ` inside a cell breaks one level
    deeper than the `], [` between two cells."""
    if not p.cells:
        return "[]"
    inner = nl + "  "
    deeper = inner + "  "
    return ("[" + inner + "[" + deeper + p.key_text()[2:-2]
            .replace("], [", "\0").replace(", ", "," + deeper)
            .replace("\0", inner + "]," + inner + "[" + deeper)
            + inner + "]" + nl + "]")


def _run_rows(rows: RunRows, nl: str, memo: dict) -> str:
    """The JSON text of run rows whose line breaks are `nl`.

    Rows that start with all of `rows.base`'s rows but its last, the same
    objects, as each run list of a wide chain does with the one before,
    are base's text cut before its last row, then the texts of the rest.
    `memo[id(rows)]` holds, for one write, the indent and that cut text,
    until the rows built on them are written."""
    if not rows:
        return "[]"
    inner = nl + "  "
    base = rows.base
    k = len(base) - 1 if base is not None else 0
    cut = memo.pop(id(base), None) if base is not None else None
    if (cut is not None and cut[0] == nl and len(rows) > k
            and all(map(is_, islice(base, k), rows))):
        head, rest = cut[1], rows[k:]
    else:
        head, rest = "[" + inner, rows
    sep = "," + inner
    texts = _items(rest, inner, memo, "\0").split("\0")
    head += "".join([text + sep for text in texts[:-1]])
    memo[id(rows)] = (nl, head)
    return head + texts[-1] + nl + "]"


class StageTexts(list):
    """Condition records {stream name: 0/1 text}: json writes it as the
    list it is, and `_dump` each text in its quotes, since it holds
    nothing to escape."""


def _stage_texts(recs: StageTexts, nl: str) -> str:
    """The JSON text of condition records whose line breaks are `nl`: each
    record's template, one per sorted key tuple, cut at its slots, and
    each 0/1 text put between the cuts in its quotes."""
    if not recs:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    shapes = list(map(tuple, map(sorted, recs)))
    # a record's text cut where its texts go; no JSON text here holds a NUL
    cuts = {keys: (_record_template(keys, inner + "  ", inner)
                   % (('"\0"',) * len(keys))).split("\0")
            for keys in set(shapes)}
    pieces = ["[" + inner]
    for rec, keys in zip(recs, shapes):
        cut = cuts[keys]
        pieces += chain.from_iterable(zip(cut, map(rec.__getitem__, keys)))
        pieces += cut[-1], sep
    pieces[-1] = nl + "]"
    # one join sizes the whole text first, so it is made once, not regrown
    return "".join(pieces)


class NatNodes(list):
    """A NatTable's `nodes`: json writes it as the list it is, and `_dump`
    from one template per node op."""


def _nat_nodes(nodes: NatNodes, nl: str, memo: dict) -> str:
    """The JSON text of a NatTable's nodes whose line breaks are `nl`.

    A node holds what `NatTable.encode` puts in it: an `add` node a
    non-empty list of references `args` and an int `const`, a `mul2` node
    an `arg` and an `exp` that are ints or references `{"$nat": id}`.
    Each node is filled into its op's template, and each reference's text
    is made once per indent, by `_ref_texts`."""
    if not nodes:
        return "[]"
    inner = nl + "  "
    key = inner + "  "
    item = key + "  "
    add = ("{" + key + '"args": [' + item + "%s" + key + "]," + key
           + '"const": %d,' + key + '"op": "add"' + inner + "}")
    mul2 = ("{" + key + '"arg": %s,' + key + '"exp": %s,' + key
            + '"op": "mul2"' + inner + "}")
    in_args = _ref_texts([ref for node in nodes if node["op"] == "add"
                          for ref in node["args"]], item, memo)
    in_mul2 = _ref_texts([node[k] for node in nodes if node["op"] == "mul2"
                          for k in ("arg", "exp")], key, memo)
    sep = "," + item
    texts = []
    for node in nodes:
        if node["op"] == "add":
            texts.append(add % (sep.join([in_args[ref["$nat"]]
                                          for ref in node["args"]]),
                                node["const"]))
        else:
            arg, exp = node["arg"], node["exp"]
            texts.append(mul2 % (
                arg if type(arg) is int else in_mul2[arg["$nat"]],
                exp if type(exp) is int else in_mul2[exp["$nat"]]))
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _ref_texts(values: list, nl: str, memo: dict) -> dict:
    """The text, by id, of each distinct reference `{"$nat": id}` among
    `values`, whose line breaks are `nl`, all made by one `_items` call."""
    refs = {v["$nat"]: v for v in values if type(v) is dict}
    if not refs:
        return {}
    return dict(zip(refs, _items(list(refs.values()), nl, memo,
                                 "\0").split("\0")))


def write_trace(path, trace) -> None:
    """Write the trace file; the text is made before the file is opened,
    so a value `_dump` cannot write (one nested past Python's recursion
    limit, say) leaves the file as it was."""
    try:
        text = _dump(trace.to_json())
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except (OSError, RecursionError) as exc:
        raise UsageError(f"cannot write trace {path}: {exc}") from exc


def load_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except json.JSONDecodeError as exc:
        raise UsageError(f"trace {path} is not valid JSON: {exc}") from exc
    except (OSError, RecursionError, ValueError) as exc:
        # ValueError: bytes that are not UTF-8, or an int past Python's
        # digit limit; RecursionError: values nested past json's depth
        raise UsageError(f"cannot read trace {path}: {exc}") from exc
    return trace_from_json(obj)


def trace_from_json(obj):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    cls = _TRACE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise UsageError(f"unknown trace kind {kind!r}")
    return cls.from_json(obj)


# JSON type of every stored field; `seed` may hold any JSON value.
_JSON_TYPES = {
    "family": (dict, list), "payload_source": (dict, type(None)),
    "payload_bits": list, "boundaries": list, "stages": list,
    "conditions": (list, dict), "streams": list,
    "k": int, "poset": str, "witness": str, "rows": int, "horizon": int,
    "patches": dict, "plane": dict,
}
_OPTIONAL = ("seed", "payload_source")


def _json_field(obj: dict, kind: str, key: str):
    if key not in obj:
        if key in _OPTIONAL:
            return None
        raise UsageError(f"{kind} trace has no {key!r}")
    value = obj[key]
    want = _JSON_TYPES.get(key, object)
    if not isinstance(value, want) or (want is int and type(value) is bool):
        raise UsageError(f"{kind} trace field {key!r} has the wrong type "
                         f"{type(value).__name__}")
    return value


def _ints_only(value) -> bool:
    """Whether every scalar inside a JSON value is an int; a bool is not."""
    todo = [value]
    for v in todo:  # a breadth-first walk; `todo` grows as it is read
        t = type(v)
        if t is dict:
            todo.extend(v.values())
        elif t is list:
            todo.extend(v)
        elif t is not int:
            return False
    return True


def _decode_streams(kind: str, objs: list, names: Iterable[str]
                    ) -> Dict[str, BitStream]:
    """Decode a trace's stream objects, which must carry `names` in order."""
    names = list(islice(names, len(objs) + 1))
    got = [s.get("name") if isinstance(s, dict) else s for s in objs]
    if got != names:
        raise UsageError(f"{kind} trace streams must be objects named "
                         f"{names}, got {got}")
    return {name: stream_from_json(s) for name, s in zip(names, objs)}


@dataclass(kw_only=True)
class Trace:
    """The envelope every trace kind shares.

    Subclasses set `kind` and the family `carriers` its runs use, declare
    their own fields, name their streams in `_stream_names`, and override
    `_encode`/`_decode` only for fields they keep as decoded objects.
    """

    kind: ClassVar[str]
    carriers: ClassVar[Tuple[str, ...]]
    # the names of the streams, in order, given the trace's JSON fields
    _stream_names: ClassVar[Callable[[dict], Iterable[str]]] = staticmethod(
        lambda values: ())
    family: DenseFamily
    seed: object = None
    payload_source: Optional[dict] = None
    payload_bits: List[int] = field(default_factory=list)
    boundaries: List[int] = field(default_factory=list)
    stages: List[dict] = field(default_factory=list)
    conditions: list = field(default_factory=list)
    streams: Dict[str, BitStream] = field(default_factory=dict)

    def to_json(self) -> dict:
        """The trace as JSON values, each plane condition left as itself,
        which `_dump` writes as its cell list; a wide trace's run lists
        and nat table are lists that `_dump` writes from what they share
        (see the module docstring)."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["kind"] = self.kind
        obj["family"] = self.family.describe()
        obj["streams"] = [{"name": name, **s.to_json()}
                          for name, s in self.streams.items()]
        self._encode(obj)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Trace":
        values = {f.name: _json_field(obj, cls.kind, f.name)
                  for f in fields(cls)}
        if not (all(map(_is_bit, values["payload_bits"]))
                and all(type(b) is int and 0 <= b < _MATERIALIZE_LIMIT
                        for b in values["boundaries"])
                and _ints_only(values["stages"])):
            raise UsageError(f"{cls.kind} trace payload bits must be 0 or 1, "
                             f"boundaries ints in "
                             f"0..{_MATERIALIZE_LIMIT - 1} (stream columns), "
                             f"and stages hold ints only")
        PayloadSource.from_json(values["payload_source"])  # raises if bad
        values["family"] = family_from_spec(values["family"])
        values["family"].require(cls.carriers, 0, f"a {cls.kind} trace")
        values["streams"] = _decode_streams(cls.kind, values["streams"],
                                            cls._stream_names(values))
        try:
            cls._decode(obj, values)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed {cls.kind} trace: {exc!r}") from exc
        return cls(**values)

    def _encode(self, obj: dict) -> None:
        """Turn this kind's decoded fields in `obj` into JSON values."""

    @classmethod
    def _decode(cls, obj: dict, values: dict) -> None:
        """Turn this kind's JSON values into decoded fields."""


class _StringsTrace(Trace):
    """Conditions are per-stage {stream name: BitString}, stored as 0/1 text.

    Each stage's text extends the stream's text at the stage before, so
    the writer and the loader pay for the characters a stage adds: the
    writer writes the texts as `StageTexts`, with no escape pass, and the
    loader checks a text that starts with its stream's text before it
    only past that text."""

    def _encode(self, obj):
        obj["conditions"] = StageTexts(
            [{name: s.to01() for name, s in rec.items()}
             for rec in self.conditions])

    @classmethod
    def _decode(cls, obj, values):
        conds, names = values["conditions"], set(values["streams"])
        if not all(isinstance(rec, dict) and set(rec) == names
                   for rec in conds):
            raise UsageError(f"{cls.kind} trace conditions must be objects "
                             f"keyed by the stream names")
        last = dict.fromkeys(names, "")  # each stream's last text read
        decoded = []
        for rec in conds:
            strings = {}
            for name, text in rec.items():
                known = last[name]
                strings[name] = BitString.from01(
                    text, len(known) if type(text) is str
                    and text.startswith(known) else 0)
                last[name] = text
            decoded.append(strings)
        values["conditions"] = decoded


class PairTrace(_StringsTrace):
    kind = "pair"
    carriers = (CARRIER_COHEN,)
    _stream_names = staticmethod(lambda values: ("c", "d"))


@dataclass(kw_only=True)
class ManyTrace(_StringsTrace):
    kind = "many"
    carriers = (CARRIER_PRODUCT,)
    k: int
    _stream_names = staticmethod(lambda values: map(str, range(values["k"])))

    @classmethod
    def _decode(cls, obj, values):
        if values["k"] < 2:
            raise UsageError(f"many trace k must be >= 2, got {values['k']}")
        super()._decode(obj, values)


_STAGE_NATS = ("alpha", "j", "beta")


@dataclass(kw_only=True)
class WideTrace(Trace):
    """Stages hold z plus lazy naturals alpha, j, beta per step; conditions
    hold the two descending chains as {"g": [...], "h": [...]}."""

    kind = "wide"
    carriers = (CARRIER_POSET, CARRIER_COHEN)
    poset: CountablePoset
    witness: WidenessWitness

    @property
    def g_chain(self) -> List[BitString]:
        return self.conditions["g"]

    @property
    def h_chain(self) -> List[BitString]:
        return self.conditions["h"]

    def _encode(self, obj):
        table = NatTable()
        obj["stages"] = [{**rec, **{key: table.encode(rec[key])
                                    for key in _STAGE_NATS}}
                         for rec in self.stages]
        obj["conditions"] = {side: chain_to_json(self.conditions[side], table)
                             for side in ("g", "h")}
        obj["nats"] = NatNodes(table.nodes)
        obj["poset"], obj["witness"] = self.poset.name, self.witness.name

    @classmethod
    def _decode(cls, obj, values):
        values["poset"] = POSET_REGISTRY[values["poset"]]()
        values["witness"] = WITNESS_REGISTRY[values["witness"]]()
        built = NatTable.decode_all(obj.get("nats", []))
        values["stages"] = [{**rec, **{key: nat_resolve(rec[key], built)
                                       for key in _STAGE_NATS}}
                            for rec in values["stages"]]
        values["conditions"] = {side: chain_from_json(
            values["conditions"][side], built) for side in ("g", "h")}


@dataclass(kw_only=True)
class _PlaneTrace(Trace):
    """A trace whose conditions are plane conditions over `rows` rows."""

    carriers = (CARRIER_PLANE,)
    rows: int

    @classmethod
    def _decode(cls, obj, values):
        if values["rows"] < 0:
            raise UsageError(f"{cls.kind} trace rows must be >= 0")
        if (values["payload_bits"] or values["boundaries"]
                or values["payload_source"] is not None):
            raise UsageError(f"{cls.kind} trace carries no payload")
        values["conditions"] = [PlaneCondition.from_json(p)
                                for p in values["conditions"]]


@dataclass(kw_only=True)
class ChainBoundTrace(_PlaneTrace):
    """Conditions are the stage commitments; seed is the fill seed; streams
    are the inputs b0, b1, ... followed by their patched rows d0, d1, ..."""

    kind = "chain-bound"
    patches: Dict[int, Dict[int, int]]
    plane: GenericPlane
    _stream_names = staticmethod(lambda values: (
        f"{p}{k}" for p in "bd" for k in range(values["rows"])))

    def row_streams(self, prefix: str) -> List[BitStream]:
        """The inputs b0, b1, ... (prefix "b") or the patched rows d0, ..."""
        return [self.streams[f"{prefix}{k}"] for k in range(self.rows)]

    def _encode(self, obj):
        obj["patches"] = {str(r): {str(c): b for c, b in sorted(cols.items())}
                          for r, cols in sorted(self.patches.items())}
        obj["plane"] = self.plane.to_json()

    @classmethod
    def _decode(cls, obj, values):
        super()._decode(obj, values)
        for rec in values["stages"]:
            attempts = rec.get("attempts") if isinstance(rec, dict) else None
            if not isinstance(attempts, list) or not all(
                    isinstance(a, dict) and isinstance(a.get("clashes"), list)
                    and all(type(cell) is list
                            and list(map(type, cell)) == [int, int]
                            for cell in a["clashes"]) for a in attempts):
                raise UsageError("chain-bound stage records must be objects "
                                 "whose 'attempts' are objects holding "
                                 "'clashes' lists of [row, col] cells")
        for r, cols in values["patches"].items():
            if not (_is_nat_text(r) and isinstance(cols, dict) and all(
                    _is_nat_text(c) and _is_bit(b)
                    for c, b in cols.items())):
                raise UsageError(f"chain-bound trace patches must map decimal "
                                 f"rows to decimal columns to bits 0/1, got "
                                 f"row {r!r}")
        values["patches"] = {int(r): {int(c): b for c, b in cols.items()}
                             for r, cols in values["patches"].items()}
        values["plane"] = GenericPlane.from_json(values["plane"])


@dataclass(kw_only=True)
class GenericsTrace(_PlaneTrace):
    """The single condition is the folded commitments; streams are rows."""

    kind = "generic-plane"
    horizon: int
    _stream_names = staticmethod(lambda values: map(str, range(values["rows"])))

    @property
    def plane(self) -> GenericPlane:
        return GenericPlane(commitments=self.conditions[0], fill_seed=self.seed)

    @classmethod
    def _decode(cls, obj, values):
        super()._decode(obj, values)
        if len(values["conditions"]) != 1:
            raise UsageError("generic-plane trace needs exactly one condition")
        if not 0 <= values["horizon"] <= len(values["family"]):
            raise UsageError(f"generic-plane trace horizon {values['horizon']} "
                             f"is outside 0..{len(values['family'])}")


_TRACE_KINDS = {cls.kind: cls for cls in (PairTrace, ManyTrace, WideTrace,
                                          ChainBoundTrace, GenericsTrace)}


@dataclass
class VerifyReport:
    """Itemized outcome of re-checking a trace."""

    items: List[Tuple[str, bool, str]] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def check(self, name: str, fn):
        try:
            out = fn()
            ok, detail = out if isinstance(out, tuple) else (bool(out), "")
        except CheckFailure as exc:
            ok, detail = False, str(exc)
        except Exception as exc:  # noqa: BLE001 - reports must not throw
            ok, detail = False, f"exception: {exc!r}"
        self.items.append((name, ok, detail))

    def summary(self) -> str:
        lines = []
        for name, ok, detail in self.items:
            mark = "ok  " if ok else "FAIL"
            lines.append(f"{mark} {name}" + (f": {detail}" if detail else ""))
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(f"{verdict}: {sum(ok for _, ok, _ in self.items)}"
                     f"/{len(self.items)} checks passed")
        return "\n".join(lines)
