"""Finite binary conditions and infinite bit streams.

BitString is the condition type for Cohen forcing: finite, immutable,
ordered by end-extension (longer = stronger). It is stored as a normalized
run list so that the wide-poset constructions, whose conditions contain
astronomically long zero blocks, stay exact: run lengths are ``int | Nat``
(see towers).

BitStream is an everywhere-defined binary sequence: a finalized BitString
prefix plus a deterministic tail rule. The induced filter is the set of its
finite prefixes.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Iterable, Optional

from .errors import AmbiguousNat, PayloadExhausted, UsageError
from .towers import (NatLike, NatTable, nat_add, nat_equal, nat_le,
                     nat_less, nat_sub, nat_to_int)

_MATERIALIZE_LIMIT = 1 << 22
_CLEAN01 = re.compile(r"[01]*")
_RUNS01 = re.compile(r"0+|1+")


def _normalize_runs(pairs):
    runs = []
    for bit, length in pairs:
        if bit not in (0, 1):
            raise UsageError(f"bit must be 0 or 1, got {bit!r}")
        if type(length) is int:
            if length < 0:
                raise UsageError(f"negative run length {length}")
            if length == 0:
                continue
        if runs and runs[-1][0] == bit:
            runs[-1] = (bit, nat_add(runs[-1][1], length))
        else:
            runs.append((bit, length))
    return tuple(runs)


class BitString:
    """Immutable finite binary string, run-length encoded."""

    __slots__ = ("runs", "length")

    def __init__(self, pairs=()):
        self.runs = _normalize_runs(pairs)
        self.length = nat_add(*(l for _, l in self.runs)) if self.runs else 0

    @classmethod
    def _make(cls, runs, length) -> "BitString":
        # runs must already be normalized
        obj = cls.__new__(cls)
        obj.runs = runs
        obj.length = length
        return obj

    @classmethod
    def empty(cls):
        return _EMPTY

    @classmethod
    def from01(cls, text: str) -> "BitString":
        clean = text
        if not _CLEAN01.fullmatch(text):
            clean = "".join(ch for ch in text if not ch.isspace())
            if any(ch not in "01" for ch in clean):
                bad = next(ch for ch in clean if ch not in "01")
                raise UsageError(f"invalid bitstring character {bad!r}")
        runs = tuple((int(g[0]), len(g)) for g in _RUNS01.findall(clean))
        return cls._make(runs, len(clean))

    @classmethod
    def zeros(cls, n: NatLike) -> "BitString":
        return cls(((0, n),))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        return cls.from01("".join(map(str, bits)))

    @property
    def is_empty(self) -> bool:
        return not self.runs

    @property
    def is_concrete(self) -> bool:
        return all(isinstance(l, int) for _, l in self.runs)

    def to01(self, limit: int = _MATERIALIZE_LIMIT) -> str:
        if not self.is_concrete or self.length > limit:
            raise AmbiguousNat("bitstring too large to materialize")
        return "".join(str(b) * l for b, l in self.runs)

    def bit(self, i: int) -> int:
        if i < 0:
            raise IndexError(i)
        for b, l in self.runs:
            if type(l) is int:
                if i < l:
                    return b
                i -= l
            elif nat_less(i, l):
                return b
            else:
                i = i - nat_to_int(l)
        raise IndexError("bit index beyond string length")

    def append_run(self, bit: int, length: NatLike) -> "BitString":
        if bit not in (0, 1):
            raise UsageError(f"bit must be 0 or 1, got {bit!r}")
        if type(length) is int and length <= 0:
            if length == 0:
                return self
            raise UsageError(f"negative run length {length}")
        runs = self.runs
        if runs and runs[-1][0] == bit:
            runs = runs[:-1] + ((bit, nat_add(runs[-1][1], length)),)
        else:
            runs = runs + ((bit, length),)
        return BitString._make(runs, nat_add(self.length, length))

    def append_bit(self, bit: int) -> "BitString":
        return self.append_run(bit, 1)

    def append01(self, text: str) -> "BitString":
        return self.concat(BitString.from01(text))

    def concat(self, other: "BitString") -> "BitString":
        if not other.runs:
            return self
        if not self.runs:
            return other
        a, b = self.runs, other.runs
        if a[-1][0] == b[0][0]:
            joined = a[:-1] + ((a[-1][0], nat_add(a[-1][1], b[0][1])),) + b[1:]
        else:
            joined = a + b
        return BitString._make(joined, nat_add(self.length, other.length))

    def pad_zeros_to(self, n: NatLike) -> "BitString":
        gap = nat_sub(n, self.length)
        return self.append_run(0, gap)

    def prefix(self, n: int) -> "BitString":
        """First n bits; n must be a plain int within the string."""
        if not nat_le(n, self.length):
            raise IndexError("prefix longer than string")
        out = []
        left = n
        total = n
        for b, l in self.runs:
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
        return self.strip_prefix(other) is not None

    def strip_prefix(self, other: "BitString") -> Optional["BitString"]:
        """Bits of self after the prefix other, or None if not a prefix."""
        mine = list(self.runs)
        i = 0
        for b, want in other.runs:
            if i >= len(mine):
                return None
            mb, ml = mine[i]
            if mb != b:
                return None
            if type(want) is int and type(ml) is int:
                if want > ml:
                    return None
                if want == ml:
                    i += 1
                else:
                    mine[i] = (mb, ml - want)
            elif nat_le(want, ml):
                rest = nat_sub(ml, want)
                if nat_equal(rest, 0):
                    i += 1
                else:
                    mine[i] = (mb, rest)
            else:
                return None
        left = tuple(mine[i:])
        return BitString._make(left, nat_add(*(l for _, l in left), 0))

    def proper_end_extends(self, other: "BitString") -> bool:
        rest = self.strip_prefix(other)
        return rest is not None and not rest.is_empty

    def compatible(self, other: "BitString") -> bool:
        return self.end_extends(other) or other.end_extends(self)

    def ones(self) -> NatLike:
        return nat_add(*(l for b, l in self.runs if b == 1), 0)

    def stable_key(self) -> str:
        """Deterministic, process-independent serialization for hashing."""
        if self.is_concrete and nat_le(self.length, 4096):
            return self.to01()
        table = NatTable()
        runs = [[b, table.encode(l)] for b, l in self.runs]
        return json.dumps({"runs": runs, "nats": table.to_list()},
                          sort_keys=True, separators=(",", ":"))

    def _eq_key(self):
        return tuple((b, l if isinstance(l, int) else id(l)) for b, l in self.runs)

    def __eq__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    def __repr__(self):
        if self.is_concrete and self.length <= 64:
            return f"BitString({self.to01()!r})"
        return f"BitString(runs={len(self.runs)}, length={self.length!r})"


_EMPTY = BitString()


# --- tail rules -----------------------------------------------------------

def prng_bit(seed, i: int) -> int:
    """Counter-based pseudo-random bit: sha256(seed ':' counter), low bit."""
    h = hashlib.sha256(f"{seed}:{i}".encode("ascii")).digest()
    return h[0] & 1


def derive_seed(seed, *parts) -> str:
    """Stable derived seed for sub-generators (rows, sets, ...)."""
    return hashlib.sha256(":".join(str(p) for p in (seed, *parts)).encode("ascii")).hexdigest()[:16]


class ConstTail:
    kind = "const"

    def __init__(self, bit: int):
        self.bit_value = bit

    def bit(self, i: int) -> int:
        return self.bit_value

    def to_json(self):
        return {"kind": "const", "bit": self.bit_value}


class PrngTail:
    kind = "prng"
    algo = "sha256-ctr"

    def __init__(self, seed):
        self.seed = str(seed)

    def bit(self, i: int) -> int:
        return prng_bit(self.seed, i)

    def to_json(self):
        return {"kind": "prng", "seed": self.seed, "algo": self.algo}


def tail_from_json(obj):
    if obj["kind"] == "const":
        return ConstTail(obj["bit"])
    if obj["kind"] == "prng":
        if obj.get("algo", PrngTail.algo) != PrngTail.algo:
            raise UsageError(f"unknown prng algo {obj.get('algo')!r}")
        return PrngTail(obj["seed"])
    raise UsageError(f"unknown tail rule {obj!r}")


class BitStream:
    """Infinite binary sequence: finalized prefix + deterministic tail rule."""

    def __init__(self, prefix: BitString = _EMPTY, tail=None):
        if not prefix.is_concrete:
            raise UsageError("stream prefixes must be concrete")
        self.prefix_string = prefix
        self.tail = tail if tail is not None else ConstTail(0)
        self._cached01 = prefix.to01()

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

    def bit(self, i: int) -> int:
        n = len(self._cached01)
        if i < n:
            return int(self._cached01[i])
        return self.tail.bit(i)

    def take01(self, n: int) -> str:
        """First n bits as text."""
        base = self._cached01
        if n <= len(base):
            return base[:n]
        return base + "".join(str(self.tail.bit(i))
                              for i in range(len(base), n))

    def take(self, n: int) -> BitString:
        """First n bits as a finite condition."""
        return BitString.from01(self.take01(n))

    def to_json(self):
        return {"prefix": self.prefix_string.to01(),
                "tail_rule": self.tail.to_json()}

    def __repr__(self):
        p = self._cached01
        shown = p if len(p) <= 48 else p[:45] + "..."
        return f"BitStream({shown!r}+{self.tail.kind})"


class PatchedStream(BitStream):
    """A stream equal to a base stream except at finitely many positions."""

    def __init__(self, base: BitStream, patch: dict):
        self.base = base
        self.patch = {int(k): int(v) for k, v in patch.items()}
        self.tail = base.tail
        cover = max(self.patch, default=-1) + 1
        pref = max(cover, len(base._cached01))
        self.prefix_string = BitString.from_bits(
            self.patch.get(i, base.bit(i)) for i in range(pref))
        self._cached01 = self.prefix_string.to01()

    def bit(self, i: int) -> int:
        if i in self.patch:
            return self.patch[i]
        return self.base.bit(i)

    def take(self, n: int) -> BitString:
        return BitString.from_bits(self.bit(i) for i in range(n))

    def to_json(self):
        return {"kind": "patched",
                "base": self.base.to_json(),
                "patch": {str(k): self.patch[k] for k in sorted(self.patch)}}

    def __repr__(self):
        return f"PatchedStream(cols={sorted(self.patch)}, base={self.base!r})"


def stream_from_json(obj) -> BitStream:
    if obj.get("kind") == "patched":
        return PatchedStream(stream_from_json(obj["base"]),
                             {int(k): v for k, v in obj["patch"].items()})
    return BitStream(BitString.from01(obj["prefix"]),
                     tail_from_json(obj["tail_rule"]))


# --- payload sources ------------------------------------------------------

class PayloadSource:
    """One-shot supplier of payload bits z(0), z(1), ...

    Finite sources raise PayloadExhausted when they run out; stream-backed
    sources never do.
    """

    def __init__(self, description, bits=None, stream=None):
        self.description = description
        self._bits = list(bits) if bits is not None else None
        self._stream = stream
        self._pos = 0

    @classmethod
    def from_bits(cls, bits) -> "PayloadSource":
        if isinstance(bits, str):
            bits = [int(c) for c in bits if c in "01"]
        return cls({"kind": "bits", "bits": "".join(map(str, bits))}, bits=bits)

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
        if isinstance(payload, PayloadSource):
            return payload
        if isinstance(payload, BitStream):
            return cls.from_stream(payload)
        if isinstance(payload, str):
            return cls.from_bits(payload)
        if isinstance(payload, (list, tuple)):
            return cls.from_bits(list(payload))
        raise UsageError(f"cannot interpret payload {payload!r}")

    def next_bit(self) -> int:
        i = self._pos
        self._pos += 1
        if self._stream is not None:
            return self._stream.bit(i)
        if i >= len(self._bits):
            raise PayloadExhausted(f"payload ran out after {len(self._bits)} bits")
        return self._bits[i]


def read_bit_file(path) -> BitString:
    """ASCII '0'/'1' file, whitespace ignored, read as a finite prefix."""
    with open(path, "r", encoding="ascii") as f:
        return BitString.from01(f.read())


def write_bit_file(path, bits: BitString):
    with open(path, "w", encoding="ascii") as f:
        f.write(bits.to01())
        f.write("\n")
