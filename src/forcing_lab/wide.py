"""Antichain-indexed coding over a wide poset.

The construction walks two descending chains p_0 >= p_1 >= ... and
q_0 >= q_1 >= ..., both starting at the densified least-index element.
At step n it extends p_n into the antichain below it at position
2*alpha + z(n), where alpha is the enumeration index of q_n (coding both
the payload bit and the partner's identity), densifies into D_{n+1}, and
then extends q_n into its antichain at the enumeration index of the new
p_{n+1}. Either chain alone just meets every dense set; together they
replay the whole walk. The construction and the decoder run the one walk
`_walk`, and differ only in where each step's two antichain indices come
from: the payload for the one, the chains' antichain hits for the other.

Indices here are lazy naturals: on the canonical Cohen poset the step-1
antichain position is already ~2^35 and step 2 is beyond physical memory
as a concrete integer, so the decoder finds hits structurally, through
the witness's `locate`, and never by scanning j = 0, 1, 2, ...
"""

from __future__ import annotations

from .bits import PayloadSource
from .dense import DenseFamily
from .errors import (AmbiguousNat, ConsistencyFailure, NoAntichainHit,
                     UsageError, WitnessViolation)
from .posets import CountablePoset, WidenessWitness
from .towers import nat_add, nat_equal, nat_half, nat_mul_pow2, nat_parity
from .trace import WideTrace


def _walk(poset: CountablePoset, witness: WidenessWitness,
          family: DenseFamily, steps: int, g_index, h_index) -> WideTrace:
    """The coding walk of `steps` steps, as a trace with no payload source.

    At step n, `g_index(n, p_n, alpha)` gives the antichain index j below
    p_n, alpha being the index of q_n, and `h_index(n, q_n, beta)` the
    index below q_n, beta being the index of p_{n+1}. Each branch must lie
    properly below its condition and is densified into D_{n+1}. Step n's
    record is {step, z, alpha, j, beta}, z the parity of j."""
    def branch(n, name, x, k):
        below = witness.antichain(x, k)
        if not poset.leq(below, x) or below == x:
            raise WitnessViolation(f"A_{name}({n}) not properly below "
                                   f"{name}_{n}")
        return family.densify(n + 1, below)

    start = family.densify(0, poset.decode(0))
    ps, qs, stages = [start], [start], []
    for n in range(steps):
        alpha = poset.encode(qs[n])
        j = g_index(n, ps[n], alpha)
        ps.append(branch(n, "p", ps[n], j))
        beta = poset.encode(ps[n + 1])
        qs.append(branch(n, "q", qs[n], h_index(n, qs[n], beta)))
        stages.append({"step": n, "z": nat_parity(j), "alpha": alpha,
                       "j": j, "beta": beta})
    return WideTrace(poset=poset, witness=witness, family=family,
                     seed=family.seed,
                     payload_bits=[rec["z"] for rec in stages],
                     stages=stages, conditions={"g": ps, "h": qs})


def entangle_wide(poset: CountablePoset, witness: WidenessWitness,
                  family: DenseFamily, payload, steps: int) -> WideTrace:
    """Build the coding chains g and h; each meets D_0 .. D_steps."""
    if steps < 1:
        raise UsageError("steps must be >= 1")
    family.require(WideTrace.carriers, steps + 1, "entangle_wide")
    source = PayloadSource.coerce(payload)
    trace = _walk(poset, witness, family, steps,
                  lambda n, p, alpha: nat_add(nat_mul_pow2(alpha, 1),
                                              source.next_bit()),
                  lambda n, q, beta: beta)
    trace.payload_source = source.description
    return trace


def _find_hit(chain, witness: WidenessWitness, base, poset: CountablePoset,
              budget: int, start: int = 0):
    """The unique antichain index below `base` hit by the chain's filter:
    the first `witness.locate` answer, among the chain's first `budget`
    elements, whose antichain member lies above its element.

    The first `start` elements are not read: the caller knows each to be
    a prefix of `base`, which no member of the antichain below `base` lies
    above, so the full scan finds no hit there either. For the registered
    witness `locate` answers None (or raises AmbiguousNat, which the scan
    passes over) on a prefix of its base, so the answer, None included,
    is the full scan's."""
    for el in chain[start:budget]:
        try:
            k = witness.locate(base, el)
        except AmbiguousNat:
            continue  # lengths unordered against the walk: not its chain
        if k is not None and poset.leq(el, witness.antichain(base, k)):
            return k
    return None


def decode_wide(g, h, poset: CountablePoset, witness: WidenessWitness,
                family: DenseFamily, count: int,
                budget: int = 1024) -> WideTrace:
    """Replay the walk of `count` steps from the two chains.

    The decoder walks from the canonical start itself. At step n it takes
    the antichain index j hit by g below its p_n: half of j must be alpha,
    the index of its q_n, and the parity of j is z(n). Then it takes the
    index hit by h below its q_n, which must be the index of its p_{n+1}.
    The result is the replayed trace: the stage records, the chains the
    walk densified and the z bits, with no payload source. For count < 1
    nothing is walked, and the trace holds no step and no condition.

    Each hit is searched from the first chain element that differs
    (`BitString.__eq__`) from the walk's own condition at its place, among
    p_0..p_n (or q_0..q_n). The walk's conditions descend, so each element
    skipped is a prefix of p_n and holds no hit below it (see `_find_hit`):
    on an unedited trace step n reads element n + 1 alone, and an edited
    chain is scanned from its first differing element.
    """
    if budget < 1:
        raise UsageError(f"budget must be >= 1, got {budget}")
    if count < 1:
        return WideTrace(poset=poset, witness=witness, family=family,
                         seed=family.seed, conditions={"g": [], "h": []})
    family.require(WideTrace.carriers, count + 1, "decode_wide")
    g = list(g)
    h = list(h)
    # leading elements of each chain equal to the walk's conditions
    same = {"g": 0, "h": 0}

    def start(name, chain, n, cond):
        """Extend chain `name`'s count of leading elements equal to the
        walk's conditions by its condition `cond` at step n."""
        if same[name] == n < len(chain) and chain[n] == cond:
            same[name] = n + 1
        return same[name]

    def g_hit(n, p, alpha):
        j = _find_hit(g, witness, p, poset, budget, start("g", g, n, p))
        if j is None:
            raise NoAntichainHit(n, "g", budget=budget)
        if not nat_equal(nat_half(j), alpha):
            raise ConsistencyFailure(
                n, f"recovered alpha {nat_half(j)!r} != index(q_{n}) "
                   f"{alpha!r}")
        return j

    def h_hit(n, q, beta):
        m = _find_hit(h, witness, q, poset, budget, start("h", h, n, q))
        if m is None:
            raise NoAntichainHit(n, "h", budget=budget)
        if not nat_equal(m, beta):
            raise ConsistencyFailure(
                n, f"h-side hit {m!r} != index(p_{n + 1}) {beta!r}")
        return m

    return _walk(poset, witness, family, count, g_hit, h_hit)
