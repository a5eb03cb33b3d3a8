"""Enumerated posets and indexed antichain (wideness) witnesses.

A CountablePoset packages an order with a bijective enumeration by
naturals. The canonical instance is the Cohen poset of finite binary
strings in length-lexicographic order: index(s) = 2^|s| - 1 + value(s).
Indices of long strings are therefore towers of exponents, which is why
encode returns a lazy natural rather than forcing an int.

A WidenessWitness assigns to every condition q an injective, pairwise
incompatible family A_q(0), A_q(1), ... below q. Witnesses may provide a
structural `locate` inverse (given r <= A_q(k), recover k); the canonical
Cohen witness A_q(k) = q + 0^k + 1 reads k off the run structure, which is
what makes decoding feasible when k is astronomically large.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .bits import BitString, derive_seed, prng_bit
from .errors import BudgetExceeded, UsageError, WitnessViolation
from .towers import (NatLike, nat_add, nat_mul_pow2, nat_pow2, nat_sub,
                     nat_to_int)


def bitstring_value(s: BitString) -> NatLike:
    """Big-endian integer value of a finite binary string."""
    v = 0
    for bit, length in s.runs:
        v = nat_mul_pow2(v, length)
        if bit:
            v = nat_add(v, nat_sub(nat_pow2(length), 1))
    return v


def cohen_index(s: BitString) -> NatLike:
    """Length-lexicographic position: 2^|s| - 1 + value(s)."""
    return nat_add(nat_sub(nat_pow2(s.length), 1), bitstring_value(s))


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
                 leq: Callable, compat: Callable,
                 extend: Optional[Callable] = None,
                 ancestors: Optional[Callable] = None):
        self.name = name
        self.encode = encode
        self.decode = decode
        self.leq = leq
        self.compat = compat
        self.extend = extend
        self.ancestors = ancestors

    def __repr__(self):
        return f"CountablePoset({self.name})"


def _cohen_extend(q: BitString, key: str) -> BitString:
    return q.concat(BitString.from_bits(prng_bit(key, i) for i in range(8)))


def _cohen_ancestors(el: BitString, limit: int):
    top = el.length if isinstance(el.length, int) else limit
    for k in range(min(top, limit) + 1):
        yield el.prefix(k)


def cohen_poset() -> CountablePoset:
    return CountablePoset(
        name="cohen-lenlex",
        encode=cohen_index,
        decode=cohen_element,
        leq=lambda a, b: a.end_extends(b),
        compat=lambda a, b: a.compatible(b),
        extend=_cohen_extend,
        ancestors=_cohen_ancestors,
    )


class WidenessWitness:
    """Indexed antichain below every condition: k -> A_q(k)."""

    def __init__(self, name: str, antichain: Callable,
                 locate: Optional[Callable] = None):
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


@dataclass
class WitnessReport:
    condition: object
    members_checked: int
    samples_checked: int
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (f"witness ok below {self.condition!r}: {self.members_checked} members, "
                f"{self.samples_checked} maximality samples")


def validate_wideness_witness(poset: CountablePoset, witness: WidenessWitness,
                              q, m: int, samples: int, seed,
                              search_limit: Optional[int] = None) -> WitnessReport:
    """Check an antichain witness below q; spot-check maximality.

    Raises WitnessViolation on a failed structural check and BudgetExceeded
    when the bounded maximality search cannot find a compatible member for
    a sampled extension (which is inconclusive, not a disproof).
    """
    if m < 1 or samples < 1:
        raise UsageError("m and samples must be >= 1")
    limit = search_limit if search_limit is not None else max(m, 64)
    members = []
    for k in range(m):
        a = witness.antichain(q, k)
        if not poset.leq(a, q):
            raise WitnessViolation(f"A_q({k}) is not below q")
        for j, other in enumerate(members):
            if a == other:
                raise WitnessViolation(f"injectivity: A_q({j}) = A_q({k})")
            if poset.compat(other, a):
                raise WitnessViolation(f"A_q({j}) compatible with A_q({k})")
        members.append(a)
    notes = []
    if poset.extend is None:
        raise UsageError(f"poset {poset.name} cannot sample extensions")
    for t in range(samples):
        r = poset.extend(q, derive_seed(seed, "wideness-sample", t))
        if not poset.leq(r, q):
            raise WitnessViolation("sampler produced a non-extension")
        for k in range(limit):
            if poset.compat(r, witness.antichain(q, k)):
                notes.append(f"sample {t} compatible with A_q({k})")
                break
        else:
            raise BudgetExceeded(
                f"maximality spot-check: sample {t} met no A_q(k), k < {limit}")
    return WitnessReport(condition=q, members_checked=m,
                         samples_checked=samples, notes=notes)
