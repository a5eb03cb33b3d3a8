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
as a concrete integer, so the decoder finds hits structurally (via the
witness's locate) rather than by scanning j = 0, 1, 2, ...; the literal
bounded scan remains as the fallback for witnesses without locate.
"""

from __future__ import annotations

from typing import List, Tuple

from .bits import PayloadSource
from .dense import CARRIER_COHEN, CARRIER_POSET, DenseFamily, checked_densify
from .errors import (AmbiguousNat, ConsistencyFailure, EmptyFamily,
                     FamilyTooSmall, NoAntichainHit, UsageError,
                     WitnessViolation)
from .posets import CountablePoset, WidenessWitness
from .towers import nat_add, nat_equal, nat_half, nat_mul_pow2, nat_parity
from .trace import WideTrace

_WIDE_CARRIERS = (CARRIER_COHEN, CARRIER_POSET)


def _check_family(family: DenseFamily, needed: int):
    if len(family) == 0:
        raise EmptyFamily("wide runs need at least one dense set")
    if family.carrier not in _WIDE_CARRIERS:
        raise UsageError("wide runs need a poset (or cohen) carrier family")
    if len(family) < needed:
        raise FamilyTooSmall(f"run needs {needed} dense sets, "
                             f"family has {len(family)}")


def entangle_wide(poset: CountablePoset, witness: WidenessWitness,
                  family: DenseFamily, payload, steps: int) -> WideTrace:
    """Build the coding chains g and h; each meets D_0 .. D_steps."""
    if steps < 1:
        raise UsageError("steps must be >= 1")
    _check_family(family, steps + 1)
    source = PayloadSource.coerce(payload)
    consumed: List[int] = []

    start = checked_densify(family[0], poset.decode(0), poset.leq)
    ps, qs = [start], [start]
    records: List[dict] = []
    for n in range(steps):
        z = source.next_bit()
        consumed.append(z)
        alpha = poset.encode(qs[n])
        j = nat_add(nat_mul_pow2(alpha, 1), z)
        branch_p = witness.antichain(ps[n], j)
        if not poset.leq(branch_p, ps[n]) or branch_p == ps[n]:
            raise WitnessViolation(f"A_p({n}) not properly below p_{n}")
        p_next = checked_densify(family[n + 1], branch_p, poset.leq)
        beta = poset.encode(p_next)
        branch_q = witness.antichain(qs[n], beta)
        if not poset.leq(branch_q, qs[n]) or branch_q == qs[n]:
            raise WitnessViolation(f"A_q({n}) not properly below q_{n}")
        q_next = checked_densify(family[n + 1], branch_q, poset.leq)
        ps.append(p_next)
        qs.append(q_next)
        records.append({"step": n, "z": z, "alpha": alpha, "j": j,
                        "beta": beta})

    return WideTrace(
        poset=poset, witness=witness, family=family,
        seed=family.seed, payload_source=source.description,
        payload_bits=consumed, stages=records,
        conditions={"g": ps, "h": qs})


def _find_hit(chain, witness: WidenessWitness, base, poset: CountablePoset,
              budget: int):
    """The unique antichain index below `base` hit by the chain's filter."""
    if witness.locate is not None:
        for i, el in enumerate(chain):
            if i >= budget:
                break
            try:
                k = witness.locate(base, el)
            except AmbiguousNat:
                continue  # lengths unordered against the walk: not its chain
            if k is not None and poset.leq(el, witness.antichain(base, k)):
                return k
        return None
    for j in range(budget):
        branch = witness.antichain(base, j)
        if any(poset.leq(el, branch) for el in chain):
            return j
    return None


def decode_wide(g, h, poset: CountablePoset, witness: WidenessWitness,
                family: DenseFamily, count: int, budget: int = 1024
                ) -> List[Tuple[object, object, int]]:
    """Recover the walk n -> (p_n, q_n, z(n)) from the two chains.

    The decoder recomputes the canonical start itself, reads z(n) and
    alpha off the antichain index hit by g, cross-checks alpha against the
    enumeration index of its reconstructed q_n, and reconstructs p_{n+1}
    through the (pure) densifier, cross-checking against the h-side hit.
    """
    if count < 1:
        return []
    _check_family(family, count + 1)
    g = list(g)
    h = list(h)
    p = checked_densify(family[0], poset.decode(0), poset.leq)
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
        p_next = checked_densify(family[n + 1], witness.antichain(p, j),
                                 poset.leq)
        m = _find_hit(h, witness, q, poset, budget)
        if m is None:
            raise NoAntichainHit(n, "h", budget=budget)
        if not nat_equal(m, poset.encode(p_next)):
            raise ConsistencyFailure(
                n, f"h-side hit {m!r} != index(p_{n + 1}) "
                   f"{poset.encode(p_next)!r}")
        q_next = checked_densify(family[n + 1], witness.antichain(q, m),
                                 poset.leq)
        out.append((p, q, z))
        p, q = p_next, q_next
    return out

