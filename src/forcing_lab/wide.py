"""Antichain-indexed coding over a wide poset.

The construction walks two descending chains p_0 >= p_1 >= ... and
q_0 >= q_1 >= ..., both starting at the densified least-index element.
At step n it extends p_n into the antichain below it at position
2*alpha + z(n), where alpha is the enumeration index of q_n (coding both
the payload bit and the partner's identity), densifies into D_{n+1}, and
then extends q_n into its antichain at the enumeration index of the new
p_{n+1}. Either chain alone just meets every dense set; together they
replay the whole walk.

Indices here are lazy naturals: on the canonical Cohen poset the step-1
antichain position is already ~2^35 and step 2 is beyond physical memory
as a concrete integer, so the decoder finds hits structurally, through
the witness's `locate`, and never by scanning j = 0, 1, 2, ...
"""

from __future__ import annotations

from typing import List, Tuple

from .bits import PayloadSource
from .dense import DenseFamily
from .errors import (AmbiguousNat, ConsistencyFailure, NoAntichainHit,
                     UsageError, WitnessViolation)
from .posets import CountablePoset, WidenessWitness
from .towers import nat_add, nat_equal, nat_half, nat_mul_pow2, nat_parity
from .trace import WideTrace


def entangle_wide(poset: CountablePoset, witness: WidenessWitness,
                  family: DenseFamily, payload, steps: int) -> WideTrace:
    """Build the coding chains g and h; each meets D_0 .. D_steps."""
    if steps < 1:
        raise UsageError("steps must be >= 1")
    family.require(WideTrace.carriers, steps + 1, "entangle_wide")
    source = PayloadSource.coerce(payload)

    start = family.densify(0, poset.decode(0))
    ps, qs = [start], [start]
    for n in range(steps):
        z = source.next_bit()
        j = nat_add(nat_mul_pow2(poset.encode(qs[n]), 1), z)
        branch_p = witness.antichain(ps[n], j)
        if not poset.leq(branch_p, ps[n]) or branch_p == ps[n]:
            raise WitnessViolation(f"A_p({n}) not properly below p_{n}")
        p_next = family.densify(n + 1, branch_p)
        branch_q = witness.antichain(qs[n], poset.encode(p_next))
        if not poset.leq(branch_q, qs[n]) or branch_q == qs[n]:
            raise WitnessViolation(f"A_q({n}) not properly below q_{n}")
        q_next = family.densify(n + 1, branch_q)
        ps.append(p_next)
        qs.append(q_next)

    bits = list(source.drawn)
    return WideTrace(
        poset=poset, witness=witness, family=family,
        seed=family.seed, payload_source=source.description,
        payload_bits=bits, stages=wide_stages(poset, ps, qs, bits),
        conditions={"g": ps, "h": qs})


def wide_stages(poset: CountablePoset, g, h, payload_bits) -> List[dict]:
    """The stage records of a wide run with chains g, h: step n codes
    z = payload_bits[n] at j = 2 * alpha + z below g[n], alpha the index
    of h[n], and branches h at beta, the index of g[n + 1]."""
    records = []
    for n, z in enumerate(payload_bits):
        alpha = poset.encode(h[n])
        records.append({"step": n, "z": z, "alpha": alpha,
                        "j": nat_add(nat_mul_pow2(alpha, 1), z),
                        "beta": poset.encode(g[n + 1])})
    return records


def _find_hit(chain, witness: WidenessWitness, base, poset: CountablePoset,
              budget: int):
    """The unique antichain index below `base` hit by the chain's filter:
    the first `witness.locate` answer, among the chain's first `budget`
    elements, whose antichain member lies above its element."""
    for el in chain[:budget]:
        try:
            k = witness.locate(base, el)
        except AmbiguousNat:
            continue  # lengths unordered against the walk: not its chain
        if k is not None and poset.leq(el, witness.antichain(base, k)):
            return k
    return None


def decode_wide(g, h, poset: CountablePoset, witness: WidenessWitness,
                family: DenseFamily, count: int, budget: int = 1024, *,
                with_last: bool = False):
    """Recover the walk n -> (p_n, q_n, z(n)) from the two chains.

    The decoder recomputes the canonical start itself, reads z(n) and
    alpha off the antichain index hit by g, cross-checks alpha against the
    enumeration index of its reconstructed q_n, and reconstructs p_{n+1}
    through the (pure) densifier, cross-checking against the h-side hit.

    With `with_last`, the result is `(triples, last)`, where `last` is
    `(j, m, p_count, q_count)`: the g- and h-side hits of the last step
    and the pair the walk densified from them (None when count < 1).
    """
    if budget < 1:
        raise UsageError(f"budget must be >= 1, got {budget}")
    if count < 1:
        return ([], None) if with_last else []
    family.require(WideTrace.carriers, count + 1, "decode_wide")
    g = list(g)
    h = list(h)
    p = family.densify(0, poset.decode(0))
    q = p
    out: List[Tuple[object, object, int]] = []
    for n in range(count):
        j = _find_hit(g, witness, p, poset, budget)
        if j is None:
            raise NoAntichainHit(n, "g", budget=budget)
        z = nat_parity(j)
        alpha = nat_half(j)
        if not nat_equal(alpha, poset.encode(q)):
            raise ConsistencyFailure(
                n, f"recovered alpha {alpha!r} != index(q_{n}) "
                   f"{poset.encode(q)!r}")
        p_next = family.densify(n + 1, witness.antichain(p, j))
        m = _find_hit(h, witness, q, poset, budget)
        if m is None:
            raise NoAntichainHit(n, "h", budget=budget)
        if not nat_equal(m, poset.encode(p_next)):
            raise ConsistencyFailure(
                n, f"h-side hit {m!r} != index(p_{n + 1}) "
                   f"{poset.encode(p_next)!r}")
        q_next = family.densify(n + 1, witness.antichain(q, m))
        out.append((p, q, z))
        p, q = p_next, q_next
    return (out, (j, m, p, q)) if with_last else out

