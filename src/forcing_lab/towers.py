"""Exact lazy naturals for tower-of-exponent arithmetic.

The wide-poset coding walk multiplies enumeration indices into antichain
positions, so the integers involved grow as exponential towers: by the
second step of the canonical Cohen run an index already needs tens of
billions of bits, and by the third it cannot exist in memory at all.

The representation here is ``int | Nat``: plain Python ints whenever the
value fits in LIMIT_BITS bits, and an interned symbolic node otherwise.
Only two node shapes are needed by the constructions:

    add(children..., const)   sum of huge parts plus a (possibly negative,
                              always dominated) integer constant
    mul2(x, e)                x * 2**e

Interning makes structural equality pointer equality among live nodes. The
table holds only live nodes: it is weak, keyed by the children themselves,
and a node keeps its children alive, so two live nodes of one structure are
one object. That is exactly the equality the decoders need: they recompute
the encoder's quantities through the same helpers, on the same
reconstructed conditions, so identical values arrive as identical nodes. No
general comparison of two distinct symbolic values is ever attempted; the
few subtractions and orderings the package performs are either concrete or
structurally forced, and anything else raises AmbiguousNat rather than
guessing.

Soundness contract for mixed comparisons: a Nat always represents a value
above 2**(LIMIT_BITS-64), and every site comparing an int against a Nat
supplies an int far below that (lengths, horizons, budgets).
"""

from __future__ import annotations

import weakref
from typing import Union

from .errors import AmbiguousNat, UsageError

LIMIT_BITS = 4096

NatLike = Union[int, "Nat"]

_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Nat:
    """A too-large-to-materialize natural number; use the module functions."""

    __slots__ = ("kind", "children", "const", "arg", "exp", "__weakref__")

    def __init__(self, kind, children=(), const=0, arg=None, exp=None):
        self.kind = kind
        self.children = children
        self.const = const
        self.arg = arg
        self.exp = exp

    def approx_log2(self):
        """Float log2 estimate, for repr only; inf when beyond floats."""
        try:
            if self.kind == "add":
                return max(_approx_log2(c) for c in self.children)
            x = _approx_log2(self.arg) if not isinstance(self.arg, int) else (
                float(self.arg.bit_length() - 1) if self.arg else 0.0)
            if isinstance(self.exp, Nat):
                return float("inf")
            return x + float(self.exp)
        except (OverflowError, ValueError):
            return float("inf")

    def __repr__(self):
        mag = self.approx_log2()
        if mag == float("inf"):
            return "Nat(~2^huge)"
        return f"Nat(~2^{mag:.6g})"


def _approx_log2(x):
    if isinstance(x, Nat):
        return x.approx_log2()
    return float(x.bit_length() - 1) if x > 0 else 0.0


def _intern(kind, children=(), const=0, arg=None, exp=None):
    key = (kind, children, const, arg, exp)
    node = _INTERN.get(key)
    if node is None:
        node = Nat(kind, children=children, const=const, arg=arg, exp=exp)
        _INTERN[key] = node
    return node


def is_huge(x: NatLike) -> bool:
    return isinstance(x, Nat)


def nat_add(*parts: NatLike) -> NatLike:
    """Sum of ints and Nats; collapses to int when no symbolic part remains."""
    const = 0
    children = []
    for p in parts:
        if isinstance(p, int):
            const += p
        elif p.kind == "add":
            const += p.const
            children.extend(p.children)
        else:
            children.append(p)
    if not children:
        return const
    if len(children) == 1 and const == 0:
        return children[0]
    return _intern("add", children=tuple(children), const=const)


def nat_mul_pow2(x: NatLike, e: NatLike) -> NatLike:
    """x * 2**e, collapsing to int when the result fits in LIMIT_BITS."""
    if x == 0:
        return 0
    if e == 0:
        return x
    if isinstance(x, int) and isinstance(e, int):
        if x.bit_length() + e <= LIMIT_BITS:
            return x << e
        return _intern("mul2", arg=x, exp=e)
    if isinstance(x, Nat) and x.kind == "mul2":
        return _intern("mul2", arg=x.arg, exp=nat_add(x.exp, e))
    return _intern("mul2", arg=x, exp=e)


def nat_pow2(e: NatLike) -> NatLike:
    return nat_mul_pow2(1, e)


def nat_parity(x: NatLike) -> int:
    if isinstance(x, int):
        return x % 2
    if x.kind == "add":
        p = x.const
        for c in x.children:
            p += nat_parity(c)
        return p % 2
    # mul2 with e >= 1 (e == 0 is folded away by the constructor)
    return 0


def nat_half(x: NatLike) -> NatLike:
    """Floor of x/2; exact for every shape the constructions produce."""
    if isinstance(x, int):
        return x // 2
    if x.kind == "mul2":
        if isinstance(x.exp, int):
            if x.exp >= 1:
                return nat_mul_pow2(x.arg, x.exp - 1)
            raise AmbiguousNat("mul2 node with exponent 0")
        return nat_mul_pow2(x.arg, nat_add(x.exp, -1))
    halves = [nat_half(c) for c in x.children]
    rem = sum(nat_parity(c) for c in x.children) + x.const
    return nat_add(*halves, rem // 2)


def nat_equal(a: NatLike, b: NatLike) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return a is b


_SMALL_CMP_BOUND = 1 << (LIMIT_BITS - 96)


def nat_less(a: NatLike, b: NatLike) -> bool:
    """a < b for the comparison domain the package uses (see module doc)."""
    if isinstance(a, int) and isinstance(b, int):
        return a < b
    if isinstance(a, int):
        if a >= _SMALL_CMP_BOUND:
            raise AmbiguousNat("int too close to the Nat threshold to compare")
        return True
    if isinstance(b, int):
        if b >= _SMALL_CMP_BOUND:
            raise AmbiguousNat("int too close to the Nat threshold to compare")
        return False
    if a is b:
        return False
    raise AmbiguousNat("cannot order two distinct symbolic naturals")


def nat_le(a: NatLike, b: NatLike) -> bool:
    if isinstance(a, Nat) and a is b:
        return True
    return not nat_less(b, a)


def nat_sub(a: NatLike, b: NatLike) -> NatLike:
    """a - b where a >= b is known by construction."""
    if isinstance(a, int) and isinstance(b, int):
        if a < b:
            raise AmbiguousNat(f"negative subtraction {a} - {b}")
        return a - b
    if a is b:
        return 0
    if isinstance(b, int):
        if b >= _SMALL_CMP_BOUND:
            raise AmbiguousNat("subtrahend too large to fold into a constant")
        return nat_add(a, -b)
    if isinstance(a, Nat) and a.kind == "add":
        kids = list(a.children)
        for i, c in enumerate(kids):
            if c is b:
                del kids[i]
                return nat_add(*kids, a.const)
    raise AmbiguousNat("cannot subtract unrelated symbolic naturals")


def nat_to_int(x: NatLike) -> int:
    if isinstance(x, int):
        return x
    raise AmbiguousNat("value is symbolic and cannot be materialized")


class NatTable:
    """Shared-node encoding of Nats for JSON traces.

    Node ids are assigned in first-use order during encoding, so a
    deterministic run serializes byte-identically. References inside the
    table only point backwards.
    """

    def __init__(self):
        self.nodes = []
        self._ids = {}

    def encode(self, x: NatLike):
        if isinstance(x, int):
            return x
        nid = self._ids.get(x)
        if nid is None:
            if x.kind == "add":
                obj = {"op": "add",
                       "args": [self.encode(c) for c in x.children],
                       "const": x.const}
            else:
                obj = {"op": "mul2",
                       "arg": self.encode(x.arg),
                       "exp": self.encode(x.exp)}
            self.nodes.append(obj)
            nid = len(self.nodes) - 1
            self._ids[x] = nid
        return {"$nat": nid}

    def to_list(self):
        return self.nodes

    @classmethod
    def decode_all(cls, nodes):
        """Rebuild the interned values for a serialized table."""
        built = []
        for obj in nodes or []:
            if obj["op"] == "add":
                if type(obj["const"]) is not int:
                    raise UsageError(f"nat node {len(built)} has a "
                                     f"non-integer const {obj['const']!r}")
                val = nat_add(*[nat_resolve(a, built) for a in obj["args"]],
                              obj["const"])
            elif obj["op"] == "mul2":
                val = nat_mul_pow2(nat_resolve(obj["arg"], built),
                                   nat_resolve(obj["exp"], built))
            else:
                raise UsageError(f"nat node {len(built)} has an unknown op "
                                 f"{obj['op']!r}")
            built.append(val)
        return built


def nat_resolve(ref, built):
    """Turn a serialized int-or-{"$nat": id} reference back into a value."""
    if type(ref) is int:
        return ref
    nid = ref.get("$nat") if isinstance(ref, dict) else None
    if type(nid) is not int or not 0 <= nid < len(built):
        raise UsageError(f"bad nat reference {ref!r} into a table of "
                         f"{len(built)} nodes")
    return built[nid]
