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

On disk a trace is exactly the bytes of `json.dumps(obj, indent=2,
sort_keys=True)` followed by a newline, where `obj` is `Trace.to_json()`:
ASCII only, non-ASCII text escaped as `\\uXXXX`. `_dump` is the one writer
of those bytes; it builds them itself, without the pure-Python encoder the
stdlib falls back to when `indent` is set.

Bitstrings are stored as ASCII '0'/'1' when small; conditions from wide
runs can be astronomically long, and are stored as run lists whose lengths
live in a shared table of lazy-natural nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Tuple

from .bits import (BitStream, BitString, PayloadSource, _is_bit,
                   stream_from_json)
from .dense import DenseFamily, family_from_spec
from .errors import CheckFailure, UsageError
from .plane import GenericPlane, PlaneCondition
from .posets import (POSET_REGISTRY, WITNESS_REGISTRY, CountablePoset,
                     WidenessWitness)
from .towers import NatTable, nat_resolve

def _dump(obj) -> str:
    """The trace file text of `obj`: `json.dumps(obj, indent=2,
    sort_keys=True)` plus a newline, byte for byte.

    With `indent` set the stdlib leaves its C encoder for generators that
    yield one piece per value, so the shapes traces hold are written here
    and any other value is handed to `json.dumps`.
    """
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl: str) -> str:
    """JSON text of `obj` whose every line break is `nl`, a newline and the
    current indent."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif kinds <= {list, tuple} and all(obj) and set(
                map(type, chain.from_iterable(obj))) == {int}:
            # plane cells and clash lists: non-empty rows of plain ints,
            # written with one template per row length and one format
            deeper = inner + "  "
            row_sep = "," + deeper
            rows = {n: "[" + deeper + row_sep.join(["%d"] * n) + inner + "]"
                    for n in set(map(len, obj))}
            body = sep.join(map(rows.__getitem__, map(len, obj))) % tuple(
                chain.from_iterable(obj))
        else:
            body = sep.join([_encode(v, inner) for v in obj])
        return "[" + inner + body + nl + "]"
    if t is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _encode(obj[k], inner)
             for k in sorted(obj)]) + nl + "}"
    # floats, other keys, other types: ASCII-escaped JSON holds no raw
    # newline inside a string, so re-indenting by replacement is exact
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def write_trace(path, trace) -> None:
    text = _dump(trace.to_json())
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read trace {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"trace {path} is not valid JSON: {exc}") from exc
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

    Subclasses set `kind`, declare their own fields, name their streams in
    `_stream_names`, and override `_encode`/`_decode` only for fields they
    keep as decoded objects.
    """

    kind: ClassVar[str]
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
                and all(type(b) is int for b in values["boundaries"])
                and _ints_only(values["stages"])):
            raise UsageError(f"{cls.kind} trace payload bits must be 0 or 1, "
                             f"and boundaries and stages hold ints only")
        PayloadSource.from_json(values["payload_source"])  # raises if bad
        values["family"] = family_from_spec(values["family"])
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
    """Conditions are per-stage {stream name: BitString}, stored as 0/1 text."""

    def _encode(self, obj):
        obj["conditions"] = [{name: s.to01() for name, s in rec.items()}
                             for rec in self.conditions]

    @classmethod
    def _decode(cls, obj, values):
        conds, names = values["conditions"], set(values["streams"])
        if not all(isinstance(rec, dict) and set(rec) == names
                   for rec in conds):
            raise UsageError(f"{cls.kind} trace conditions must be objects "
                             f"keyed by the stream names")
        values["conditions"] = [{name: BitString.from01(text)
                                 for name, text in rec.items()} for rec in conds]


class PairTrace(_StringsTrace):
    kind = "pair"
    _stream_names = staticmethod(lambda values: ("c", "d"))


@dataclass(kw_only=True)
class ManyTrace(_StringsTrace):
    kind = "many"
    k: int
    _stream_names = staticmethod(lambda values: map(str, range(values["k"])))


_STAGE_NATS = ("alpha", "j", "beta")


@dataclass(kw_only=True)
class WideTrace(Trace):
    """Stages hold z plus lazy naturals alpha, j, beta per step; conditions
    hold the two descending chains as {"g": [...], "h": [...]}."""

    kind = "wide"
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
        obj["conditions"] = {side: [s.to_json(table)
                                    for s in self.conditions[side]]
                             for side in ("g", "h")}
        obj["nats"] = table.to_list()
        obj["poset"], obj["witness"] = self.poset.name, self.witness.name

    @classmethod
    def _decode(cls, obj, values):
        values["poset"] = POSET_REGISTRY[values["poset"]]()
        values["witness"] = WITNESS_REGISTRY[values["witness"]]()
        built = NatTable.decode_all(obj.get("nats", []))
        values["stages"] = [{**rec, **{key: nat_resolve(rec[key], built)
                                       for key in _STAGE_NATS}}
                            for rec in values["stages"]]
        values["conditions"] = {side: [BitString.from_json(s, built)
                                       for s in values["conditions"][side]]
                                for side in ("g", "h")}


@dataclass(kw_only=True)
class _PlaneTrace(Trace):
    """A trace whose conditions are plane conditions over `rows` rows."""

    rows: int

    def _encode(self, obj):
        obj["conditions"] = [p.to_json() for p in self.conditions]

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
        super()._encode(obj)
        obj["patches"] = {str(r): {str(c): b for c, b in sorted(cols.items())}
                          for r, cols in sorted(self.patches.items())}
        obj["plane"] = self.plane.to_json()

    @classmethod
    def _decode(cls, obj, values):
        super()._decode(obj, values)
        for r, cols in values["patches"].items():
            if not isinstance(cols, dict) or not all(
                    c.isdecimal() and _is_bit(b)
                    for c, b in cols.items()):
                raise UsageError(f"chain-bound trace patch of row {r!r} must "
                                 f"map decimal columns to bits 0/1")
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
