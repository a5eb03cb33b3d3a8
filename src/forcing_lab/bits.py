"""Finite binary conditions and infinite bit streams.

BitString is the condition type for Cohen forcing: finite, immutable,
ordered by end-extension (longer = stronger). A string of at most
_MATERIALIZE_LIMIT bits is stored as its '0'/'1' text, so prefix tests,
comparison and appends run as str operations. The wide-poset constructions
build conditions with astronomically long zero blocks; every string longer
than the limit, or of symbolic length, is stored as a normalized run list
so that it stays exact: run lengths are ``int | Nat`` (see towers).

BitStream is an everywhere-defined binary sequence: a finalized BitString
prefix plus a deterministic tail rule. The induced filter is the set of its
finite prefixes.
"""

from __future__ import annotations

import hashlib
import marshal
import re
from itertools import chain
from typing import List, Optional

from .errors import AmbiguousNat, PayloadExhausted, UsageError
from .towers import (Nat, NatLike, NatTable, compact_texts, nat_add,
                     nat_equal, nat_le, nat_less, nat_resolve, nat_sub,
                     nat_to_int)

_MATERIALIZE_LIMIT = 1 << 22
# to_json (and so stable_key) writes strings up to this length as 0/1 text
_JSON_TEXT_LIMIT = 4096
_CLEAN01 = re.compile(r"[01]*")
_NAT_TEXT = re.compile(r"0|[1-9][0-9]*")
# The key state of no runs, where every stable_key starts: (runs covered,
# text offset where they end, nat reference texts, node texts, the rows'
# text with a comma after each row).
# A stored state is never changed, so this one is shared by every string.
_NO_KEY = (0, 0, {}, [], "")


def _is_bit(value) -> bool:
    """Whether a decoded JSON value is the bit 0 or 1; a bool is not."""
    return type(value) is int and value in (0, 1)


def _is_nat_text(key) -> bool:
    """Whether a JSON key is the decimal text a trace writes for a row or
    column: ASCII digits, with no sign, space, underscore or leading 0."""
    return type(key) is str and _NAT_TEXT.fullmatch(key) is not None


def _check_nat(length):
    """Refuse a run length that is not a plain int and not a Nat either,
    such as a bool or a float."""
    if type(length) is not Nat:
        raise UsageError(f"a run length must be an int or a Nat, got "
                         f"{length!r}")


def _normalize_runs(pairs, runs=()):
    """The normalized runs of `runs`, themselves normalized, followed by
    `pairs`: no empty run, and no two neighbours of one bit."""
    runs = list(runs)
    for bit, length in pairs:
        if not _is_bit(bit):
            raise UsageError(f"bit must be 0 or 1, got {bit!r}")
        if type(length) is int:
            if length < 0:
                raise UsageError(f"negative run length {length}")
            if length == 0:
                continue
        else:
            _check_nat(length)
        if runs and runs[-1][0] == bit:
            runs[-1] = (bit, nat_add(runs[-1][1], length))
        else:
            runs.append((bit, length))
    return tuple(runs)


def _runs_of(text: str, start: int = 0):
    """The runs of text[start:]. One find per run: the wide constructions
    keep strings of up to _MATERIALIZE_LIMIT bits that are a few long zero
    runs."""
    runs = []
    i, n = start, len(text)
    while i < n:
        one = text[i] == "1"
        j = text.find("0" if one else "1", i)
        if j == -1:
            j = n
        runs.append((1 if one else 0, j - i))
        i = j
    return tuple(runs)


class BitString:
    """Immutable finite binary string.

    Exactly one backing is set: `_text` when the length is a plain int no
    larger than _MATERIALIZE_LIMIT, else `_runs`. The choice depends on the
    length alone, so equal strings have equal backings.

    `_key` is the key state that `stable_key` resumes from. A keyed string
    stores the state of all its runs but the last, and `append_run`,
    `append_bit`, `pad_zeros_to` and `concat` hand the result the state of
    `self`, never that of `other`: every extension starts with all of
    those runs, whatever it merges into the last one. Any other string,
    from the constructor, `prefix`, `strip_prefix` or `from_json`, starts
    from the empty state `_NO_KEY`.
    """

    __slots__ = ("_text", "_runs", "length", "_key")

    def __init__(self, pairs=()):
        runs = _normalize_runs(pairs)
        self._set(runs, nat_add(*(l for _, l in runs)) if runs else 0)

    def _set(self, runs, length, key=_NO_KEY):
        # runs must already be normalized
        self.length = length
        self._key = key
        if type(length) is int and length <= _MATERIALIZE_LIMIT:
            self._text = "".join(("1" if b else "0") * l for b, l in runs)
            self._runs = None
        else:
            self._text = None
            self._runs = runs

    @classmethod
    def _make(cls, runs, length, key=_NO_KEY) -> "BitString":
        obj = cls.__new__(cls)
        obj._set(runs, length, key)
        return obj

    @classmethod
    def _of_text(cls, text: str, key=_NO_KEY) -> "BitString":
        # text must hold only '0' and '1'
        if len(text) > _MATERIALIZE_LIMIT:
            return cls._make(_runs_of(text), len(text), key)
        obj = cls.__new__(cls)
        obj._text = text
        obj._runs = None
        obj.length = len(text)
        obj._key = key
        return obj

    @classmethod
    def empty(cls):
        return _EMPTY

    @classmethod
    def from01(cls, text: str, start: int = 0) -> "BitString":
        """The string of the 0/1 `text`; its first `start` characters are
        known to be 0/1 (a text checked before that this one extends), so
        only the rest is checked."""
        if not _CLEAN01.fullmatch(text, start):
            bad = next(ch for ch in text if ch not in "01")
            raise UsageError(f"invalid bitstring character {bad!r}")
        return cls._of_text(text)

    @classmethod
    def zeros(cls, n: NatLike) -> "BitString":
        return cls(((0, n),))

    @property
    def runs(self):
        """Normalized (bit, length) runs; derived anew for a text backing."""
        if self._text is not None:
            return _runs_of(self._text)
        return self._runs

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def is_concrete(self) -> bool:
        return type(self.length) is int

    def to01(self) -> str:
        if self._text is None:
            raise AmbiguousNat("bitstring too large to materialize")
        return self._text

    def bit(self, i: int) -> int:
        if i < 0:
            raise IndexError(i)
        text = self._text
        if text is not None:
            if i < len(text):
                return 1 if text[i] == "1" else 0
            raise IndexError("bit index beyond string length")
        for b, l in self._runs:
            if type(l) is int:
                if i < l:
                    return b
                i -= l
            elif nat_less(i, l):  # True, or AmbiguousNat for an i this large
                return b
        raise IndexError("bit index beyond string length")

    def append_run(self, bit: int, length: NatLike) -> "BitString":
        if not _is_bit(bit):
            raise UsageError(f"bit must be 0 or 1, got {bit!r}")
        if type(length) is int:
            if length <= 0:
                if length == 0:
                    return self
                raise UsageError(f"negative run length {length}")
            text = self._text
            if text is not None and len(text) + length <= _MATERIALIZE_LIMIT:
                return BitString._of_text(
                    text + ("1" if bit else "0") * length, self._key)
        else:
            _check_nat(length)
        runs = self.runs
        if runs and runs[-1][0] == bit:
            runs = runs[:-1] + ((bit, nat_add(runs[-1][1], length)),)
        else:
            runs = runs + ((bit, length),)
        return BitString._make(runs, nat_add(self.length, length), self._key)

    def append_bit(self, bit: int) -> "BitString":
        return self.append_run(bit, 1)

    def append01(self, text: str) -> "BitString":
        return self.concat(BitString.from01(text))

    def concat(self, other: "BitString") -> "BitString":
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        a, b = self._text, other._text
        if (a is not None and b is not None
                and len(a) + len(b) <= _MATERIALIZE_LIMIT):
            return BitString._of_text(a + b, self._key)
        a, b = self.runs, other.runs
        if a[-1][0] == b[0][0]:
            joined = a[:-1] + ((a[-1][0], nat_add(a[-1][1], b[0][1])),) + b[1:]
        else:
            joined = a + b
        return BitString._make(joined, nat_add(self.length, other.length),
                               self._key)

    def pad_zeros_to(self, n: NatLike) -> "BitString":
        gap = nat_sub(n, self.length)
        return self.append_run(0, gap)

    def prefix(self, n: int) -> "BitString":
        """First n bits; n must be a plain int within the string."""
        if not nat_le(n, self.length):
            raise IndexError("prefix longer than string")
        if self._text is not None:
            return BitString._of_text(self._text[:n])
        out = []
        left = n
        total = n
        for b, l in self._runs:
            if left == 0:
                break
            if nat_le(l, left):
                out.append((b, l))
                left -= nat_to_int(l)
            else:
                out.append((b, left))
                left = 0
        return BitString._make(tuple(out), total)

    def end_extends(self, other: "BitString") -> bool:
        """True iff other is a prefix of self (self is stronger or equal)."""
        if self._text is not None and other._text is not None:
            return self._text.startswith(other._text)
        return self.strip_prefix(other) is not None

    def strip_prefix(self, other: "BitString") -> Optional["BitString"]:
        """Bits of self after the prefix other, or None if not a prefix.

        On a run-backed self, every run of other but its last must equal
        the run of self in its place, so they are compared as one tuple
        slice: lazy naturals are interned and compare by node identity, so
        two distinct symbolic lengths in that slice are unequal (None), not
        ambiguous. Only other's last run, which self's run may outlast, is
        compared by value and may raise AmbiguousNat."""
        a, b = self._text, other._text
        if a is not None:
            # a run-backed other is longer than any text-backed string
            if b is None or not a.startswith(b):
                return None
            return BitString._of_text(a[len(b):])
        mine, theirs = self._runs, other.runs
        if not theirs:
            return self
        k = len(theirs) - 1
        if len(mine) <= k or mine[:k] != theirs[:k]:
            return None
        (mb, ml), (b, want) = mine[k], theirs[k]
        if mb != b:
            return None
        if type(want) is int and type(ml) is int:
            if want > ml:
                return None
            rest = ml - want
        elif nat_le(want, ml):
            rest = nat_sub(ml, want)
        else:
            return None
        left = mine[k + 1:] if nat_equal(rest, 0) else (
            ((mb, rest),) + mine[k + 1:])
        return BitString._make(left, nat_add(*(l for _, l in left), 0))

    def proper_end_extends(self, other: "BitString") -> bool:
        rest = self.strip_prefix(other)
        return rest is not None and not rest.is_empty

    def ones(self) -> NatLike:
        if self._text is not None:
            return self._text.count("1")
        return nat_add(*(l for b, l in self._runs if b == 1), 0)

    def to_json(self, table: NatTable):
        """The 0/1 text up to _JSON_TEXT_LIMIT bits, else {"runs": rows},
        a `RunRows` of one [bit, length] row per run, each symbolic length
        a reference into `table`."""
        return chain_to_json([self], table)[0]

    @classmethod
    def from_json(cls, obj, built) -> "BitString":
        """Inverse of to_json; `built` holds the decoded table nodes. A run
        list is an object holding only `runs`."""
        if isinstance(obj, str):
            return cls.from01(obj)
        if type(obj) is not dict or obj.keys() != {"runs"}:
            got = sorted(obj) if type(obj) is dict else type(obj).__name__
            raise UsageError(f"a bitstring must be 0/1 text or an object "
                             f"holding only 'runs', got {got}")
        return cls(_resolved(obj["runs"], built))

    def stable_key(self) -> str:
        """Deterministic, process-independent serialization for hashing.

        Byte for byte, the 0/1 text up to _JSON_TEXT_LIMIT bits, else
        `json.dumps({**self.to_json(table), "nats": table.nodes},
        sort_keys=True, separators=(",", ":"))` with a fresh NatTable
        `table`. The key seeds densifier freedom, so any byte change
        would change seeded traces. It is written without building
        to_json's dicts: the rows with one `%` template, the nat nodes by
        `towers.compact_texts`.

        A key writes only the runs past the string's key state (see the
        class docstring), which it copies before it extends, and then
        stores the state of all runs but the last for the string and its
        extensions. So along a chain of appends each key costs what the
        last append added, and a fresh key is the same code from the
        empty state."""
        text = self._text
        if text is not None and len(text) <= _JSON_TEXT_LIMIT:
            return text
        done, offset, texts, nodes, rows = self._key
        runs = self._runs[done:] if text is None else _runs_of(text, offset)
        texts, nodes = dict(texts), list(nodes)
        # bits pass through compact_texts as the ints they are
        refs = compact_texts(chain.from_iterable(runs[:-1]), texts, nodes)
        rows += ("[%d,%s]," * (len(runs) - 1)) % tuple(refs)
        kept = len(nodes)
        last = compact_texts(runs[-1], texts, nodes)
        key = ('{"nats":[' + ",".join(nodes) + '],"runs":[' + rows
               + "[%d,%s]]}" % tuple(last))
        # Store the state without the last run, whose nodes are the newest
        # entries of `texts`: a dict pops its newest entry first.
        for _ in range(len(nodes) - kept):
            texts.popitem()
        del nodes[kept:]
        self._key = (done + len(runs) - 1,
                     0 if text is None else len(text) - runs[-1][1],
                     texts, nodes, rows)
        return key

    def __eq__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        if self._text is not None or other._text is not None:
            return self._text == other._text
        return self._runs == other._runs

    def __hash__(self):
        if self._text is not None:
            return hash(self._text)
        return hash(self._runs)

    def __repr__(self):
        if self._text is not None and len(self._text) <= 64:
            return f"BitString({self._text!r})"
        return f"BitString(runs={len(self.runs)}, length={self.length!r})"


_EMPTY = BitString()


class RunRows(list):
    """The [bit, length] rows of a run list, as `BitString.to_json` makes
    them; json writes it as the list it is. `base` is the rows they start
    with, the same objects, all but base's last, or None: `trace._dump`
    then writes these rows from base's text."""

    __slots__ = ("base",)


def chain_to_json(chain, table: NatTable) -> list:
    """`[s.to_json(table) for s in chain]`, where the rows of a run list
    whose runs start with all those of the run list before it but the
    last, as each element of a descending chain's do, start with that
    list's rows, the same objects (`RunRows.base`), and only the rest are
    encoded: each nat reference is encoded once per chain."""
    out, base, base_runs = [], None, ()
    for s in chain:
        text = s._text
        if text is not None and len(text) <= _JSON_TEXT_LIMIT:
            out.append(text)
            continue
        runs = s.runs
        k = len(base_runs) - 1
        if not (k > 0 and len(runs) > k and runs[:k] == base_runs[:k]):
            base, k = None, 0
        rows = RunRows(base[:k] if k else ())
        rows += [[b, l if type(l) is int else table.encode(l)]
                 for b, l in runs[k:]]
        rows.base = base
        out.append({"runs": rows})
        base, base_runs = rows, runs
    return out


def _resolved(rows, built):
    """The (bit, length) pairs of JSON run rows, each length resolved into
    `built` in turn."""
    return ((b, nat_resolve(l, built)) for b, l in rows)


def chain_from_json(objs, built) -> List[BitString]:
    """`[BitString.from_json(obj, built) for obj in objs]` for the strings
    of a chain, whose run lists each start with the rows of the one before
    but its last.

    The runs of a run list are normalized in two steps, its rows but the
    last, then its last row. Where it has more rows than the run list
    before it but one, and its leading rows equal those, by value and by
    type, the first step resumes from their normalized runs, so only the
    rest are normalized. marshal writes each value with its type (`1`,
    `true` and `1.0` are three byte strings), so equal bytes are equal
    rows of equal types; rows that are not equal so are all normalized,
    as `from_json` does."""
    out = []
    # the last run list's rows but its last: their count, their marshal
    # bytes and their normalized runs
    shared, shared_bytes, head = 0, None, ()
    for obj in objs:
        rows = obj.get("runs") if type(obj) is dict else None
        if type(rows) is not list or obj.keys() != {"runs"}:
            out.append(BitString.from_json(obj, built))
            shared_bytes = None
            continue
        if (len(rows) <= shared
                or marshal.dumps(rows[:shared], 2) != shared_bytes):
            shared, head = 0, ()
        rest = rows[shared:]
        head = _normalize_runs(_resolved(rest[:-1], built), head)
        runs = _normalize_runs(_resolved(rest[-1:], built), head)
        out.append(BitString._make(runs, nat_add(*(l for _, l in runs), 0)))
        shared = max(len(rows) - 1, 0)
        shared_bytes = marshal.dumps(rows[:shared], 2)
    return out


# --- tail rules -----------------------------------------------------------

def prng_bit(seed, i: int) -> int:
    """Counter-based pseudo-random bit: sha256(seed ':' counter), low bit."""
    h = hashlib.sha256(f"{seed}:{i}".encode("utf-8")).digest()
    return h[0] & 1


def derive_seed(seed, *parts) -> str:
    """Stable derived seed for sub-generators (rows, sets, ...)."""
    return hashlib.sha256(":".join(str(p) for p in (seed, *parts)).encode("utf-8")).hexdigest()[:16]


class ConstTail:
    kind = "const"

    def __init__(self, bit: int):
        self.bit_value = bit

    def take01(self, start: int, stop: int) -> str:
        """Bits start..stop-1 as text."""
        return str(self.bit_value) * (stop - start)

    def to_json(self):
        return {"kind": "const", "bit": self.bit_value}


class PrngTail:
    kind = "prng"
    algo = "sha256-ctr"

    def __init__(self, seed):
        self.seed = str(seed)

    def take01(self, start: int, stop: int) -> str:
        """Bits start..stop-1 as text, one sha256 each."""
        return "".join(str(prng_bit(self.seed, i)) for i in range(start, stop))

    def to_json(self):
        return {"kind": "prng", "seed": self.seed, "algo": self.algo}


def tail_from_json(obj):
    if not isinstance(obj, dict):
        raise UsageError(f"a tail rule must be a JSON object, got {obj!r}")
    if obj.get("kind") == "const":
        bit = obj.get("bit")
        if not _is_bit(bit):
            raise UsageError(f"const tail rule needs bit 0 or 1, got {bit!r}")
        return ConstTail(bit)
    if obj.get("kind") == "prng":
        if obj.get("algo", PrngTail.algo) != PrngTail.algo:
            raise UsageError(f"unknown prng algo {obj.get('algo')!r}")
        if "seed" not in obj:
            raise UsageError("prng tail rule has no 'seed'")
        return PrngTail(obj["seed"])
    raise UsageError(f"unknown tail rule {obj!r}")


class BitStream:
    """Infinite binary sequence: finalized prefix + deterministic tail rule.

    Every read goes through the text of the bits read so far, so each tail
    bit is generated once per stream."""

    def __init__(self, prefix: BitString = _EMPTY, tail=None):
        if not prefix.is_concrete:
            raise UsageError("stream prefixes must be concrete")
        self._text = prefix.to01()  # AmbiguousNat past _MATERIALIZE_LIMIT
        self.prefix_string = prefix
        self.tail = tail if tail is not None else ConstTail(0)

    @classmethod
    def constant(cls, bit: int) -> "BitStream":
        return cls(_EMPTY, ConstTail(bit))

    @classmethod
    def seeded(cls, seed) -> "BitStream":
        return cls(_EMPTY, PrngTail(seed))

    @classmethod
    def from_prefix(cls, prefix, tail=None) -> "BitStream":
        if isinstance(prefix, str):
            prefix = BitString.from01(prefix)
        return cls(prefix, tail)

    def _read(self, n: int) -> str:
        """The bits read so far, extended to at least the first n."""
        text = self._text
        if n > len(text):
            text = self._text = text + self.tail.take01(len(text), n)
        return text

    def bit(self, i: int) -> int:
        return 1 if self._read(i + 1)[i] == "1" else 0

    def take01(self, n: int) -> str:
        """First n bits as text."""
        return self._read(n)[:n]

    def take(self, n: int) -> BitString:
        """First n bits as a finite condition."""
        return BitString._of_text(self.take01(n))

    def starts_with(self, s: BitString) -> bool:
        """Whether `s` is a prefix of the stream, `take(s.length) == s`,
        tested on the text read so far, with no slice."""
        text = s._text
        if text is None:
            return self.take(s.length) == s
        return self._read(len(text)).startswith(text)

    def find_one(self, start: int, stop: int) -> int:
        """The first column in start..stop - 1 holding a 1, or -1; found in
        the text read so far, with no slice."""
        return self._read(stop).find("1", start, stop)

    def to_json(self):
        return {"prefix": self.prefix_string.to01(),
                "tail_rule": self.tail.to_json()}

    def __repr__(self):
        p = self.prefix_string.to01()
        shown = p if len(p) <= 48 else p[:45] + "..."
        return f"BitStream({shown!r}+{self.tail.kind})"


class PatchedStream(BitStream):
    """A stream equal to a base stream except at finitely many positions.

    Construction reads nothing: `bit` answers a patched column from the
    patch and any other from the base, and the text the other reads share
    is the base's, patched, generated only as far as a read asks."""

    def __init__(self, base: BitStream, patch: dict):
        self.base = base
        self.patch = {int(k): int(v) for k, v in patch.items()}
        self.tail = base.tail
        self._text = ""

    @property
    def prefix_string(self) -> BitString:
        """The patched bits up to the last patch or base-prefix column."""
        cover = max(self.patch, default=-1) + 1
        return self.take(max(cover, self.base.prefix_string.length))

    def _read(self, n: int) -> str:
        text = self._text
        if n > len(text):
            start = len(text)
            new = self.base._read(n)[start:n]
            cols = [c for c in self.patch if start <= c < n]
            if cols:
                chars = list(new)
                for c in cols:
                    chars[c - start] = str(self.patch[c])
                new = "".join(chars)
            text = self._text = text + new
        return text

    def bit(self, i: int) -> int:
        bit = self.patch.get(i)
        return self.base.bit(i) if bit is None else bit

    def to_json(self):
        return {"kind": "patched",
                "base": self.base.to_json(),
                "patch": {str(k): self.patch[k] for k in sorted(self.patch)}}

    def __repr__(self):
        return f"PatchedStream(cols={sorted(self.patch)}, base={self.base!r})"


def stream_from_json(obj) -> BitStream:
    if not isinstance(obj, dict):
        raise UsageError(
            f"a stream must be a JSON object, got {type(obj).__name__}")
    if obj.get("kind") == "patched":
        patch = obj.get("patch")
        if "base" not in obj or not isinstance(patch, dict):
            raise UsageError(
                "a patched stream needs a 'base' stream and a 'patch' object")
        for k, v in patch.items():
            if not _is_nat_text(k) or not _is_bit(v):
                raise UsageError(f"bad patch entry {k!r}: {v!r}")
            if int(k) >= _MATERIALIZE_LIMIT:
                raise UsageError(f"patch column {k} is not below "
                                 f"{_MATERIALIZE_LIMIT}")
        return PatchedStream(stream_from_json(obj["base"]),
                             {int(k): v for k, v in patch.items()})
    if not isinstance(obj.get("prefix"), str) or "tail_rule" not in obj:
        raise UsageError("a stream needs a 'prefix' string and a 'tail_rule'")
    if len(obj["prefix"]) > _MATERIALIZE_LIMIT:
        raise UsageError(f"a stream prefix is longer than "
                         f"{_MATERIALIZE_LIMIT} bits")
    return BitStream(BitString.from01(obj["prefix"]),
                     tail_from_json(obj["tail_rule"]))


# --- payload sources ------------------------------------------------------

class PayloadSource:
    """One-shot supplier of payload bits z(0), z(1), ...

    Finite sources raise PayloadExhausted when they run out; stream-backed
    sources never do. `drawn` is the ledger of the bits handed out so far,
    in order: a construction's payload bits are a copy of it.
    """

    def __init__(self, description, bits=None, stream=None):
        self.description = description
        self._bits = list(bits) if bits is not None else None
        self._stream = stream
        self.drawn: List[int] = []

    @classmethod
    def from_bits(cls, bits) -> "PayloadSource":
        """A finite source of `bits`: a str of `0` and `1` only, or a list
        of the ints 0 and 1 only (a bool is not a bit); anything else is a
        usage error."""
        if isinstance(bits, list) and all(map(_is_bit, bits)):
            bits = "".join(map(str, bits))
        if not isinstance(bits, str) or bits.strip("01"):
            raise UsageError(f"bits payload source {bits!r} is not binary")
        return cls({"kind": "bits", "bits": bits}, bits=list(map(int, bits)))

    @classmethod
    def from_hex(cls, hexstr: str) -> "PayloadSource":
        """Hex digits as a bit prefix, zero-extended to an infinite stream."""
        try:
            data = bytes.fromhex(hexstr)
        except ValueError as exc:
            raise UsageError(f"bad hex payload {hexstr!r}") from exc
        prefix = "".join(f"{byte:08b}" for byte in data)
        stream = BitStream.from_prefix(prefix, ConstTail(0))
        return cls({"kind": "hex", "hex": hexstr}, stream=stream)

    @classmethod
    def from_seed(cls, seed) -> "PayloadSource":
        return cls({"kind": "seed", "seed": str(seed), "algo": PrngTail.algo},
                   stream=BitStream.seeded(seed))

    @classmethod
    def from_stream(cls, stream: BitStream) -> "PayloadSource":
        return cls({"kind": "stream", "stream": stream.to_json()}, stream=stream)

    @classmethod
    def from_file(cls, path) -> "PayloadSource":
        bits = read_bit_file(path)
        return cls({"kind": "file", "path": str(path)},
                   bits=[bits.bit(i) for i in range(nat_to_int(bits.length))])

    @classmethod
    def coerce(cls, payload) -> "PayloadSource":
        """A source drawing from its start: a `description` names where its
        bits start, so a source that has handed out bits is a usage error."""
        if isinstance(payload, PayloadSource):
            if payload.drawn:
                raise UsageError(f"payload source has already handed out "
                                 f"{len(payload.drawn)} bits")
            return payload
        if isinstance(payload, BitStream):
            return cls.from_stream(payload)
        if isinstance(payload, str):
            return cls.from_bits(payload)
        if isinstance(payload, (list, tuple)):
            return cls.from_bits(list(payload))
        raise UsageError(f"cannot interpret payload {payload!r}")

    @classmethod
    def from_json(cls, obj) -> Optional["PayloadSource"]:
        """A fresh source for a trace's `payload_source`, the description
        one of the constructors above writes; None for no source and for a
        `file` source, whose bits the trace does not hold. Any other value
        is a usage error."""
        if obj is None:
            return None
        kind = obj.get("kind") if isinstance(obj, dict) else None
        fields = _SOURCE_FIELDS.get(kind) if isinstance(kind, str) else None
        if (fields is None or set(obj) != {"kind", *fields}
                or not all(isinstance(obj[k], t) for k, t in fields.items())):
            raise UsageError(f"malformed payload source of kind {kind!r}")
        if kind == "hex":
            if len(obj["hex"]) > _MATERIALIZE_LIMIT // 4:
                raise UsageError(f"a hex payload source is longer than "
                                 f"{_MATERIALIZE_LIMIT} bits")
            return cls.from_hex(obj["hex"])
        if kind == "bits":
            return cls.from_bits(obj["bits"])
        if kind == "seed":
            if obj["algo"] != PrngTail.algo:
                raise UsageError(f"unknown payload source algo "
                                 f"{obj['algo']!r}")
            return cls.from_seed(obj["seed"])
        if kind == "stream":
            return cls.from_stream(stream_from_json(obj["stream"]))
        return None

    def next_bit(self) -> int:
        i = len(self.drawn)
        if self._stream is not None:
            bit = self._stream.bit(i)
        elif i < len(self._bits):
            bit = self._bits[i]
        else:
            raise PayloadExhausted(f"payload ran out after {len(self._bits)} bits")
        self.drawn.append(bit)
        return bit


# payload source kind -> the JSON type of each field besides "kind"
_SOURCE_FIELDS = {"hex": {"hex": str}, "bits": {"bits": str},
                  "seed": {"seed": str, "algo": str},
                  "stream": {"stream": dict}, "file": {"path": str}}


def read_bit_file(path) -> BitString:
    """ASCII '0'/'1' file, whitespace ignored, read as a finite prefix."""
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read bit file {path}: {exc}") from exc
    clean = "".join(text.split())
    if len(clean) > _MATERIALIZE_LIMIT:
        raise UsageError(f"bit file {path} is longer than "
                         f"{_MATERIALIZE_LIMIT} bits")
    return BitString.from01(clean)


def write_bit_file(path, bits: BitString):
    with open(path, "w", encoding="ascii") as f:
        f.write(bits.to01())
        f.write("\n")
