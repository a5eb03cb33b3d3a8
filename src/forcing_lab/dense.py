"""Dense-set oracles and the built-in family catalog.

A DenseSet is a membership predicate plus a densifier: a total function
sending every condition to a stronger one inside the set. That pair is the
whole interface the constructions see; the "ground model" is nothing more
than an indexed countable family of these.

A DenseFamily answers for its carrier: `densify` holds D_n's densifier
to its contract in the carrier's order (end-extension for "cohen" and
"poset", the same coordinate by coordinate on tuples of one length for
"product", inclusion of cells for "plane"), and `require` is the one
check that a run, or a loaded trace, can use the family.

Catalog entry types (entry i of the JSON list defines D_i):

  carrier "cohen"   {"type": "min-length"}            length >= i+1
                    {"type": "pattern", "word": W}    W occurs starting at
                                                      some index >= i+1
                    {"type": "parity", "parity": t}   length >= i+1 and the
                                                      number of 1s is t mod 2
                                                      (t is 0 or 1)
  carrier "product" {"type": "min-length"}            every coordinate has
                                                      length >= i+1
                    {"type": "separating"}            two coordinates differ
                                                      at a commonly-defined
                                                      position
  carrier "plane"   {"type": "square"}                defined on the full
                                                      (i+1) x (i+1) square
                    {"type": "cell", "row": r}        cell (r, i) is defined

A family may carry a seed; then every densifier first makes a few seeded
pseudo-random extension choices (a pure function of the input condition)
before completing into the set, modelling densifier freedom.

Each catalog set has a witness search: given what a filter reads (a
stream, a tuple of streams or a plane) and a cap, it returns the least
k <= cap whose k-th filter condition (k-bit prefix, tuple of k-bit
prefixes, k x k corner) is a member, else None. Parity is not upward
closed (appending a 1 flips it), so its search tries every k up to the
cap; the product sets are upward closed, so reading a tuple filter as
equal-length prefix tuples loses no witness.
"""

from __future__ import annotations

import bisect
import json
from typing import Callable, List, Optional, Sequence

from .bits import BitString, derive_seed, prng_bit
from .errors import (AmbiguousNat, CheckFailure, EmptyFamily, FamilyTooSmall,
                     UsageError)
from .plane import PlaneCondition
from .towers import nat_add, nat_le, nat_less, nat_parity, nat_sub

CARRIER_COHEN = "cohen"
CARRIER_PRODUCT = "product"
CARRIER_PLANE = "plane"
CARRIER_POSET = "poset"

# The order a densifier must extend its input in, by carrier; methods are
# looked up per call, so a span wrapped on the class sees them.
_ORDERS = {
    CARRIER_COHEN: lambda s, t: s.end_extends(t),
    CARRIER_POSET: lambda s, t: s.end_extends(t),
    CARRIER_PRODUCT: lambda s, t: len(s) == len(t) and all(
        a.end_extends(b) for a, b in zip(s, t)),
    CARRIER_PLANE: lambda p, q: p.leq(q),
}


class DenseSet:
    """Membership predicate + densifier for one dense set of the family."""

    def __init__(self, index: int, member: Callable, densify: Callable,
                 spec=None, witness_search: Optional[Callable] = None):
        self.index = index
        self._member = member
        self._densify = densify
        self.spec = spec or {"type": "custom"}
        self.witness_search = witness_search

    def member(self, cond) -> bool:
        return bool(self._member(cond))

    def densify(self, cond):
        return self._densify(cond)

    def __repr__(self):
        return f"DenseSet({self.index}, {self.spec})"


class DenseFamily:
    """Indexed countable family of dense sets over one carrier poset."""

    def __init__(self, sets: Sequence[DenseSet], carrier: str,
                 arity: Optional[int] = None, seed=None, entries=None):
        self.sets = list(sets)
        self.carrier = carrier
        self.arity = arity
        self.seed = seed
        self.entries = entries
        if carrier == CARRIER_PRODUCT and arity is None:
            raise UsageError("product families need an arity")

    def __len__(self):
        return len(self.sets)

    def __getitem__(self, i) -> DenseSet:
        return self.sets[i]

    def __iter__(self):
        return iter(self.sets)

    def describe(self):
        out = {"carrier": self.carrier, "sets": self.entries
               if self.entries is not None else [s.spec for s in self.sets]}
        if self.arity is not None:
            out["arity"] = self.arity
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def densify(self, n: int, cond):
        """D_n's densifier run on cond, held to its contract: the output
        extends cond in the carrier's order and lies in D_n."""
        dset = self.sets[n]
        out = dset.densify(cond)
        if not _ORDERS[self.carrier](out, cond):
            raise CheckFailure(
                f"densifier of D_{dset.index} did not extend its input")
        if not dset.member(out):
            raise CheckFailure(
                f"densifier of D_{dset.index} landed outside its set")
        return out

    def require(self, carriers: Sequence[str], sets: int, run: str) -> None:
        """Raise unless `run`, needing `sets` sets, can use this family:
        EmptyFamily (a FamilyTooSmall) if it needs one and there is none,
        then UsageError for a carrier not in `carriers`, then
        FamilyTooSmall."""
        if sets > 0 and not self.sets:
            raise EmptyFamily(f"{run} needs at least one dense set")
        if self.carrier not in carriers:
            raise UsageError(f"{run} needs a family over the "
                             f"{' or '.join(carriers)} carrier, "
                             f"got {self.carrier!r}")
        if len(self.sets) < sets:
            raise FamilyTooSmall(f"{run} needs {sets} dense sets, "
                                 f"family has {len(self.sets)}")

    def with_seed(self, seed) -> "DenseFamily":
        """This catalog family, reseeded; only works for catalog entries."""
        if self.entries is None:
            raise UsageError("only catalog families can be reseeded")
        spec = self.describe()
        spec["seed"] = seed
        return family_from_spec(spec)


# --- structural word search (exact also on run-compressed huge strings) ---
#
# On a run list, a w-bit word is searched for in the text of the runs each
# capped at w bits. A run lying inside a w-bit match holds at most w - 2
# of its bits, so capping neither loses nor makes an occurrence, and it
# keeps their order: the last occurrence in the capped text starts in the
# run where the last true one does, and as late in it as any. Two strings
# agree up to their first differing run, compared as (bit, length) pairs,
# so a first difference is decided there alone.

def _text(s: BitString) -> Optional[str]:
    """The 0/1 text of s if s is stored as text, else None."""
    try:
        return s.to01()
    except AmbiguousNat:
        return None


def contains_word_at_or_after(s: BitString, word: str, minpos: int) -> bool:
    """Does `word` occur in s starting at some index >= minpos?

    On a run list the last occurrence in the text of the runs capped at
    w = len(word) bits decides: its latest true start is the end of the
    run it starts in minus min(bits of the match in that run, w), which
    are the match's bits in that run's capped text. minpos is a set
    index, far below `towers._SMALL_CMP_BOUND`, so that start is compared
    with it exactly, never ambiguously."""
    w = len(word)
    if w == 0:
        return True
    text = _text(s)
    if text is not None:
        return text.find(word, minpos) != -1
    capped, cends, ends = [], [], []
    cend = end = 0
    for bit, length in s.runs:
        n = length if type(length) is int and length < w else w
        capped.append(str(bit) * n)
        cend += n
        end = nat_add(end, length)
        cends.append(cend)
        ends.append(end)
    hit = "".join(capped).rfind(word)
    if hit == -1:
        return False
    i = bisect.bisect_right(cends, hit)
    return nat_le(minpos, nat_sub(ends[i], cends[i] - hit))


def first_difference(a: BitString, b: BitString):
    """First position below both lengths where the strings disagree.

    On run lists the equal leading runs are skipped, and the first run
    that differs answers: its start if the bits differ; else its start
    plus the shorter length, or None if the string with the shorter run
    ends there. Ordering two distinct symbolic lengths raises
    AmbiguousNat."""
    ta, tb = _text(a), _text(b)
    if ta is not None and tb is not None:
        n = min(len(ta), len(tb))
        if ta[:n] == tb[:n]:
            return None
        return n - (int(ta[:n], 2) ^ int(tb[:n], 2)).bit_length()
    ra, rb = a.runs, b.runs
    pos = 0
    for k, (run_a, run_b) in enumerate(zip(ra, rb)):
        if run_a != run_b:
            (bit_a, la), (bit_b, lb) = run_a, run_b
            if bit_a != bit_b:
                return pos
            shorter, runs = (la, ra) if nat_le(la, lb) else (lb, rb)
            return nat_add(pos, shorter) if k + 1 < len(runs) else None
        pos = nat_add(pos, run_a[1])
    return None


# --- seeded densifier freedom ----------------------------------------------

def _random_bits(seed, index: int, key: str) -> List[int]:
    """0 to 3 seeded bits: two prng bits give the count."""
    if seed is None:
        return []
    k = derive_seed(seed, "densify", index, key)
    count = 2 * prng_bit(k, 0) + prng_bit(k, 1)
    return [prng_bit(k, 2 + i) for i in range(count)]


def _pre_extend(seed, index: int, s: BitString) -> BitString:
    for b in _random_bits(seed, index, s.stable_key()):
        s = s.append_bit(b)
    return s


def _least_at(t: int) -> Callable:
    """The witness search of a set first met by every filter at index t."""
    return lambda view, cap: t if t <= cap else None


# --- cohen catalog ----------------------------------------------------------

def _cohen_min_length(i: int, seed) -> DenseSet:
    need = i + 1

    def member(s: BitString) -> bool:
        return nat_le(need, s.length)

    def densify(s: BitString) -> BitString:
        s = _pre_extend(seed, i, s)
        if nat_less(s.length, need):
            s = s.pad_zeros_to(need)
        return s

    return DenseSet(i, member, densify, spec={"type": "min-length"},
                    witness_search=_least_at(need))


def _cohen_pattern(i: int, word: str, seed) -> DenseSet:
    if not isinstance(word, str) or not word or word.strip("01"):
        raise UsageError(f"pattern word must be nonempty binary, got {word!r}")
    minpos = i + 1

    def member(s: BitString) -> bool:
        return contains_word_at_or_after(s, word, minpos)

    def densify(s: BitString) -> BitString:
        s = _pre_extend(seed, i, s)
        if member(s):
            return s
        if nat_less(s.length, minpos):
            s = s.pad_zeros_to(minpos)
        return s.append01(word)

    def search(stream, budget):
        text = stream.take01(budget)
        hit = text.find(word, minpos)
        return hit + len(word) if hit != -1 else None

    return DenseSet(i, member, densify, spec={"type": "pattern", "word": word},
                    witness_search=search)


def _cohen_parity(i: int, target: int, seed) -> DenseSet:
    if type(target) is not int or target not in (0, 1):
        raise UsageError(f"parity must be 0 or 1, got {target!r}")
    need = i + 1

    def member(s: BitString) -> bool:
        return nat_le(need, s.length) and nat_parity(s.ones()) == target

    def densify(s: BitString) -> BitString:
        s = _pre_extend(seed, i, s)
        if nat_less(s.length, need):
            s = s.pad_zeros_to(need)
        if nat_parity(s.ones()) != target:
            s = s.append_bit(1)
        return s

    def search(stream, budget):
        text = stream.take01(budget)
        if need > len(text):
            return None
        if text.count("1", 0, need) % 2 == target:
            return need
        flip = text.find("1", need)  # the next k where the parity changes
        return flip + 1 if flip != -1 else None

    return DenseSet(i, member, densify, spec={"type": "parity", "parity": target},
                    witness_search=search)


# --- product catalog --------------------------------------------------------

def _each_coord(seed, index, tup):
    if seed is None:
        return tup
    return tuple(_pre_extend(seed, index, s) for s in tup)


def _product_min_length(i: int, arity: int, seed) -> DenseSet:
    need = i + 1

    def member(tup) -> bool:
        return all(nat_le(need, s.length) for s in tup)

    def densify(tup):
        tup = _each_coord(seed, i, tup)
        return tuple(s.pad_zeros_to(need) if nat_less(s.length, need) else s
                     for s in tup)

    return DenseSet(i, member, densify, spec={"type": "min-length"},
                    witness_search=_least_at(need))


def _product_coord_min_length(i: int, arity: int, coord: int, seed) -> DenseSet:
    if type(coord) is not int or not 0 <= coord < arity:
        raise UsageError(f"coord {coord!r} is not in 0..{arity - 1}")
    need = i + 1

    def member(tup) -> bool:
        return nat_le(need, tup[coord].length)

    def densify(tup):
        tup = list(_each_coord(seed, i, tup))
        if nat_less(tup[coord].length, need):
            tup[coord] = tup[coord].pad_zeros_to(need)
        return tuple(tup)

    return DenseSet(i, member, densify,
                    spec={"type": "coord-min-length", "coord": coord},
                    witness_search=_least_at(need))


def _product_separating(i: int, arity: int, seed) -> DenseSet:
    if arity < 2:
        raise UsageError("separating sets need arity >= 2")

    def member(tup) -> bool:
        for a in range(len(tup)):
            for b in range(a + 1, len(tup)):
                if first_difference(tup[a], tup[b]) is not None:
                    return True
        return False

    def densify(tup):
        tup = list(_each_coord(seed, i, tup))
        if member(tuple(tup)):
            return tuple(tup)
        top = 0
        for s in tup:
            if nat_less(top, s.length):
                top = s.length
        tup = [s.pad_zeros_to(top) for s in tup]
        tup[0] = tup[0].append_bit(0)
        tup[1] = tup[1].append_bit(1)
        for c in range(2, len(tup)):
            tup[c] = tup[c].append_bit(0)
        return tuple(tup)

    def search(streams, budget):
        columns = zip(*(s.take01(budget) for s in streams))
        for k, column in enumerate(columns):
            if len(set(column)) > 1:
                return k + 1
        return None

    return DenseSet(i, member, densify, spec={"type": "separating"},
                    witness_search=search)


# --- plane catalog ----------------------------------------------------------

def _plane_fill(seed, index: int, cond: PlaneCondition, missing) -> dict:
    """Fill-rule bits for the cells `missing` of cond, densifying D_index.

    The seeded rule's key depends on (seed, index, cond) alone: it hashes
    the text of `json.dumps(cond.to_json())`, which cond joins from the
    row segments it keeps (see plane.py), and each row's seed is derived
    once; one sha256 per filled bit remains. An unseeded family fills 0.
    """
    if seed is None or not missing:
        return dict.fromkeys(missing, 0)
    key = derive_seed(seed, "densify", index, cond.key_text())
    row_seeds = {}
    out = {}
    for r, c in missing:
        row_seed = row_seeds.get(r)
        if row_seed is None:
            row_seed = row_seeds[r] = derive_seed(key, r)
        out[(r, c)] = prng_bit(row_seed, c)
    return out


def _plane_square(i: int, seed) -> DenseSet:
    size = i + 1

    def member(p: PlaneCondition) -> bool:
        return not p.square_gaps(size)

    def densify(p: PlaneCondition) -> PlaneCondition:
        missing = p.square_gaps(size)
        if not missing:
            return p
        # the fill covers only missing cells, so it cannot clash with p
        fill = _plane_fill(seed, i, p, missing)
        return p.extend(fill, size)

    return DenseSet(i, member, densify, spec={"type": "square"},
                    witness_search=_least_at(size))


def _plane_cell(i: int, row: int, seed) -> DenseSet:
    if type(row) is not int or row < 0:
        raise UsageError(f"row must be an integer >= 0, got {row!r}")
    col = i

    def member(p: PlaneCondition) -> bool:
        return (row, col) in p.cells

    def densify(p: PlaneCondition) -> PlaneCondition:
        if (row, col) in p.cells:
            return p
        fill = _plane_fill(seed, i, p, [(row, col)])
        return p.extend(fill)

    return DenseSet(i, member, densify, spec={"type": "cell", "row": row},
                    witness_search=_least_at(max(row, col) + 1))


# --- family construction ----------------------------------------------------

def _entry_field(index: int, entry: dict, key: str):
    if key not in entry:
        raise UsageError(f"set {index} of type {entry.get('type')!r} needs {key!r}")
    return entry[key]


def build_set(index: int, entry: dict, carrier: str, arity, seed) -> DenseSet:
    if not isinstance(entry, dict):
        raise UsageError(f"set {index} must be an object, got {entry!r}")
    kind = entry.get("type")
    if carrier in (CARRIER_COHEN, CARRIER_POSET):
        if kind == "min-length":
            return _cohen_min_length(index, seed)
        if kind == "pattern":
            return _cohen_pattern(index, _entry_field(index, entry, "word"), seed)
        if kind == "parity":
            return _cohen_parity(index, entry.get("parity", index % 2), seed)
    elif carrier == CARRIER_PRODUCT:
        if kind == "min-length":
            return _product_min_length(index, arity, seed)
        if kind == "coord-min-length":
            return _product_coord_min_length(
                index, arity, _entry_field(index, entry, "coord"), seed)
        if kind == "separating":
            return _product_separating(index, arity, seed)
    elif carrier == CARRIER_PLANE:
        if kind == "square":
            return _plane_square(index, seed)
        if kind == "cell":
            return _plane_cell(index, _entry_field(index, entry, "row"), seed)
    raise UsageError(f"unknown set type {kind!r} for carrier {carrier!r}")


def family_from_spec(obj) -> DenseFamily:
    """Build a family from its JSON form (an object, or a bare cohen list)."""
    if isinstance(obj, list):
        obj = {"carrier": CARRIER_COHEN, "sets": obj}
    if not isinstance(obj, dict) or not isinstance(obj.get("sets", []), list):
        raise UsageError("a family is an object with a list of sets, or a list")
    carrier = obj.get("carrier", CARRIER_COHEN)
    arity = obj.get("arity")
    if carrier == CARRIER_PRODUCT and (type(arity) is not int or arity < 0):
        raise UsageError(f"product arity must be an integer >= 0, got {arity!r}")
    seed = obj.get("seed")
    entries = obj.get("sets", [])
    sets = [build_set(i, e, carrier, arity, seed) for i, e in enumerate(entries)]
    return DenseFamily(sets, carrier, arity=arity, seed=seed, entries=entries)


def load_family_file(path) -> DenseFamily:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except json.JSONDecodeError as exc:
        raise UsageError(f"family file {path} is not valid JSON: {exc}") from exc
    except (OSError, RecursionError, ValueError) as exc:
        # as in `trace.load_trace`: not UTF-8, too many digits, too deep
        raise UsageError(f"cannot read family file {path}: {exc}") from exc
    return family_from_spec(obj)


def min_length_family(count: int, carrier: str = CARRIER_COHEN,
                      arity: Optional[int] = None, seed=None) -> DenseFamily:
    """The LEN family: D_n = conditions of length (support) >= n+1."""
    entries = [{"type": "min-length"} for _ in range(count)]
    return family_from_spec({"carrier": carrier, "arity": arity,
                             "seed": seed, "sets": entries})


def square_family(count: int, seed=None) -> DenseFamily:
    entries = [{"type": "square"} for _ in range(count)]
    return family_from_spec({"carrier": CARRIER_PLANE, "seed": seed,
                             "sets": entries})


def mixed_cohen_family(count: int, seed=None) -> DenseFamily:
    """Min-length / pattern / parity sets round-robin, for stress runs."""
    words = ["1", "101", "0110", "11", "100"]
    entries = []
    for i in range(count):
        j = i % 3
        if j == 0:
            entries.append({"type": "min-length"})
        elif j == 1:
            entries.append({"type": "pattern", "word": words[(i // 3) % len(words)]})
        else:
            entries.append({"type": "parity", "parity": (i // 3) % 2})
    return family_from_spec({"carrier": CARRIER_COHEN, "seed": seed,
                             "sets": entries})


def mixed_plane_family(count: int, seed=None) -> DenseFamily:
    """Square and cell sets interleaved, for chain-bound runs."""
    entries = []
    for i in range(count):
        if i % 3 == 2:
            entries.append({"type": "cell", "row": (i // 3) % 4})
        else:
            entries.append({"type": "square"})
    return family_from_spec({"carrier": CARRIER_PLANE, "seed": seed,
                             "sets": entries})
