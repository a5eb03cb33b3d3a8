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

Interning makes structural equality pointer equality among live nodes.
`_INTERN` is a plain dict from a node's structure (kind, children, const,
arg, exp), keyed by the children themselves, to a weak reference to the
node, so a lookup or an insert runs no Python-level weakref code. A node
keeps its structure in a slot, and its `__del__` drops its entry when it
dies; a node keeps its children alive, so two live nodes of one structure
are one object, and `len(_INTERN)` counts the live nodes. That is exactly
the equality the decoders need: they recompute the encoder's quantities
through the same helpers, on the same reconstructed conditions, so
identical values arrive as identical nodes. No general comparison of two
distinct symbolic values is ever attempted; the few subtractions and
orderings the package performs are either concrete or structurally forced,
and anything else raises AmbiguousNat rather than guessing.

Soundness contract for mixed comparisons: a Nat always represents a value
above 2**(LIMIT_BITS-64), and every site comparing an int against a Nat
supplies an int far below that (lengths, horizons, budgets).
"""

from __future__ import annotations

from typing import Union
from weakref import ref as _weakref

from .errors import AmbiguousNat, UsageError

LIMIT_BITS = 4096

NatLike = Union[int, "Nat"]

# structure -> weakref.ref(node), for live nodes only (see module doc)
_INTERN: dict = {}


class Nat:
    """A too-large-to-materialize natural number; use the module functions."""

    __slots__ = ("kind", "children", "const", "arg", "exp", "_key",
                 "__weakref__")

    def __init__(self, key):
        self._key = key
        self.kind, self.children, self.const, self.arg, self.exp = key

    def __del__(self, _drop=_INTERN.pop):
        _drop(self._key, None)  # bound early: it may run at shutdown

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
    ref = _INTERN.get(key)
    node = ref() if ref is not None else None
    if node is None:
        node = Nat(key)
        _INTERN[key] = _weakref(node)
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
    table only point backwards; `nodes` is the table as a trace writes it.
    """

    def __init__(self):
        self.nodes = []
        self._refs = {}

    def encode(self, x: NatLike):
        """`x` itself for an int, else the reference `{"$nat": id}` to its
        node, which the first use appends after its children's. Every
        reference to one node is one object."""
        if isinstance(x, int):
            return x
        refs = self._refs
        ref = refs.get(x)
        if ref is None:
            if x.kind == "add":
                obj = {"op": "add",
                       "args": [refs.get(c) or self.encode(c)
                                for c in x.children],
                       "const": x.const}
            else:
                obj = {"op": "mul2",
                       "arg": self.encode(x.arg),
                       "exp": self.encode(x.exp)}
            self.nodes.append(obj)
            ref = refs[x] = {"$nat": len(self.nodes) - 1}
        return ref

    @classmethod
    def decode_all(cls, nodes):
        """Rebuild the interned values for a serialized table. A node holds
        three keys: `op` and the two its op reads, `args` and `const` for
        `add`, `arg` and `exp` for `mul2`."""
        built = []
        for obj in nodes or []:
            op = obj["op"]
            if op == "add" and len(obj) == 3:
                if type(obj["const"]) is not int:
                    raise UsageError(f"nat node {len(built)} has a "
                                     f"non-integer const {obj['const']!r}")
                val = nat_add(*[nat_resolve(a, built) for a in obj["args"]],
                              obj["const"])
            elif op == "mul2" and len(obj) == 3:
                val = nat_mul_pow2(nat_resolve(obj["arg"], built),
                                   nat_resolve(obj["exp"], built))
            else:
                raise UsageError(f"nat node {len(built)} must hold exactly "
                                 f"op 'add', args and const, or op 'mul2', "
                                 f"arg and exp; got op {op!r} in "
                                 f"{sorted(obj)}")
            built.append(val)
        return built


_ADD_TEXT = '{"args":[%s],"const":%d,"op":"add"}'
_MUL2_TEXT = '{"arg":%s,"exp":%s,"op":"mul2"}'


def compact_texts(values, texts: dict, nodes: list):
    """What one NatTable makes of `values`, encoded in turn, as the
    compact JSON text that `json.dumps(..., sort_keys=True,
    separators=(",", ":"))` writes. Returns refs, where refs[i] is
    values[i] itself for an int (its `%s` text) and the reference text
    `{"$nat":N}` for a Nat; appends the text of each new node
    `table.nodes[N]` to `nodes`, and records its reference text in
    `texts` (Nat -> text).

    Ids follow `encode`'s first-use order, children before their node.
    Each node's text is written once, and a node already met costs one
    lookup of its reference text; the recursion is no deeper than
    `encode`'s. Empty `texts` and `nodes` stand for a fresh table; those
    an earlier call left stand for the table that encoded its values, so
    a call goes on where that one stopped."""
    return [v if type(v) is int
            else texts.get(v) or _node_text(v, texts, nodes)
            for v in values]


def _node_text(x: Nat, texts: dict, nodes: list) -> str:
    """Append the text of node x, after those of its children not in
    `texts`, to `nodes`; record and return x's reference text."""
    if x.kind == "add":
        node = _ADD_TEXT % (",".join(
            [texts.get(c) or _node_text(c, texts, nodes) for c in x.children]),
            x.const)
    else:
        arg, exp = x.arg, x.exp
        node = _MUL2_TEXT % (
            arg if type(arg) is int
            else texts.get(arg) or _node_text(arg, texts, nodes),
            exp if type(exp) is int
            else texts.get(exp) or _node_text(exp, texts, nodes))
    text = texts[x] = '{"$nat":%d}' % len(nodes)
    nodes.append(node)
    return text


def nat_resolve(ref, built):
    """Turn a serialized int-or-{"$nat": id} reference back into a value.
    A reference is an object whose one key is `$nat`."""
    if type(ref) is int:
        return ref
    nid = ref.get("$nat") if isinstance(ref, dict) and len(ref) == 1 else None
    if type(nid) is not int or not 0 <= nid < len(built):
        raise UsageError(f"bad nat reference {ref!r} into a table of "
                         f"{len(built)} nodes")
    return built[nid]
