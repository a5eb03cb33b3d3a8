"""Enumerated posets and indexed antichain (wideness) witnesses.

A CountablePoset packages an order with a bijective enumeration by
naturals. The canonical instance is the Cohen poset of finite binary
strings in length-lexicographic order: index(s) = 2^|s| - 1 + value(s).
Indices of long strings are therefore towers of exponents, which is why
encode returns a lazy natural rather than forcing an int.

A WidenessWitness assigns to every condition q an injective, pairwise
incompatible family A_q(0), A_q(1), ... below q, and its structural
`locate` inverse (given r <= A_q(k), recover k); the canonical
Cohen witness A_q(k) = q + 0^k + 1 reads k off the run structure, which is
what makes decoding feasible when k is astronomically large.

Each poset that `cohen_poset()` builds folds through its own memo of run
prefixes: a chain element extends the one before it, so an encode folds
only the runs past the longest prefix already folded. The memo lives as
long as its poset. The CLI and `load_trace` build one poset per run or
trace, so no lazy natural outlives the op that folded it; a caller that
keeps one poset across runs keeps its memo too. Every encode still goes
through the module-level `cohen_index`.
"""

from __future__ import annotations

from typing import Callable, Optional

from .bits import BitString
from .errors import UsageError
from .towers import (NatLike, nat_add, nat_mul_pow2, nat_pow2, nat_sub,
                     nat_to_int)


def bitstring_value(s: BitString, memo: Optional[dict] = None) -> NatLike:
    """Big-endian integer value of a finite binary string.

    `memo` is a trie of run prefixes, run -> (fold so far, subtrie): the
    runs it already holds are not folded again. Interning makes the fold
    read from it the very node the plain fold would build."""
    v = 0
    node = memo
    for run in s.runs:
        if node is not None:
            hit = node.get(run)
            if hit is not None:
                v, node = hit
                continue
        bit, length = run
        v = nat_mul_pow2(v, length)
        if bit:
            v = nat_add(v, nat_sub(nat_pow2(length), 1))
        if node is not None:
            child: dict = {}
            node[run] = (v, child)
            node = child
    return v


def cohen_index(s: BitString, memo: Optional[dict] = None) -> NatLike:
    """Length-lexicographic position: 2^|s| - 1 + value(s)."""
    return nat_add(nat_sub(nat_pow2(s.length), 1), bitstring_value(s, memo))


def cohen_element(i: int) -> BitString:
    """Inverse of cohen_index for concrete indices."""
    i = nat_to_int(i)
    if i < 0:
        raise UsageError(f"negative enumeration index {i}")
    length = (i + 1).bit_length() - 1
    value = i + 1 - (1 << length)
    return BitString.from01(format(value, f"0{length}b") if length else "")


class CountablePoset:
    """An order with a bijective enumeration of order type omega."""

    def __init__(self, name: str, encode: Callable, decode: Callable,
                 leq: Callable):
        self.name = name
        self.encode = encode
        self.decode = decode
        self.leq = leq

    def __repr__(self):
        return f"CountablePoset({self.name})"


def cohen_poset() -> CountablePoset:
    memo: dict = {}
    return CountablePoset(
        name="cohen-lenlex",
        encode=lambda s: cohen_index(s, memo),
        decode=cohen_element,
        leq=BitString.end_extends,
    )


class WidenessWitness:
    """Indexed antichain below every condition, k -> A_q(k), with its
    inverse: locate(q, r) is the k with r <= A_q(k), or None."""

    def __init__(self, name: str, antichain: Callable, locate: Callable):
        self.name = name
        self.antichain = antichain
        self.locate = locate

    def __repr__(self):
        return f"WidenessWitness({self.name})"


def _cohen_antichain(q: BitString, k: NatLike) -> BitString:
    return q.append_run(0, k).append_bit(1)


def _cohen_locate(q: BitString, r: BitString) -> Optional[NatLike]:
    """If r extends q + 0^k + 1 for some k, return that k."""
    rest = r.strip_prefix(q)
    if rest is None or rest.is_empty:
        return None
    runs = rest.runs
    if runs[0][0] == 1:
        return 0
    if len(runs) < 2:
        return None  # nothing but padding zeros, no marker bit
    return runs[0][1]


def cohen_wide_witness() -> WidenessWitness:
    return WidenessWitness("cohen-canonical", _cohen_antichain, _cohen_locate)


POSET_REGISTRY = {"cohen-lenlex": cohen_poset}
WITNESS_REGISTRY = {"cohen-canonical": cohen_wide_witness}
