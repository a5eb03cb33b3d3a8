"""Entangled generics over Cohen forcing and finite products.

Two constructions live here. The pair protocol interleaves two streams so
that each separately falls into every set of the family (each stage string
is densified into D_n) while the padding zeros pinpoint the coding marker
bits, letting the pair jointly spell out an arbitrary payload. The tuple
protocol does the same for k streams with sub-rounds that exclude one
stream at a time, so every proper subtuple is generic for the product
family, yet all k streams together replay the construction history.

The decoders are pure state machines over the streams: they never look at
a trace, only at marker positions, which is exactly what makes the
round-trip tests meaningful.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .bits import (_MATERIALIZE_LIMIT, BitStream, BitString, ConstTail,
                   PayloadSource)
from .dense import (CARRIER_COHEN, CARRIER_PRODUCT, DenseFamily,
                    checked_densify)
from .errors import (BadArity, EmptyFamily, FamilyTooSmall, InternalError,
                     NoMarker, UsageError)
from .towers import nat_le, nat_to_int
from .trace import ManyTrace, PairTrace


def _cohen_leq(a: BitString, b: BitString) -> bool:
    return a.end_extends(b)


def entangle_pair(family: DenseFamily, payload, stages: int) -> PairTrace:
    """Build the entangled pair (c, d) through stages many dense sets.

    Consumes 2*stages - 1 payload bits; the trace holds the streams c and d
    and records every stage string, marker position and consumed bit.
    """
    if len(family) == 0:
        raise EmptyFamily("entangle_pair needs at least one dense set")
    if family.carrier != CARRIER_COHEN:
        raise UsageError("entangle_pair works over the Cohen carrier")
    if stages < 1:
        raise UsageError("stages must be >= 1")
    if len(family) < stages:
        raise FamilyTooSmall(f"{stages} stages need {stages} sets, "
                             f"family has {len(family)}")
    source = PayloadSource.coerce(payload)
    consumed: List[int] = []

    def zbit() -> int:
        b = source.next_bit()
        consumed.append(b)
        return b

    c = checked_densify(family[0], BitString.empty(), _cohen_leq)
    if c.is_empty:
        # the decoder needs the first marker at index >= 1
        c = checked_densify(family[0], BitString.from01("0"), _cohen_leq)
    boundaries = [nat_to_int(c.length)]
    d = checked_densify(
        family[0],
        BitString.zeros(c.length).append_bit(1).append_bit(zbit()),
        _cohen_leq)
    conditions = [{"c": c, "d": d}]
    for n in range(1, stages):
        boundaries.append(nat_to_int(d.length))
        c = checked_densify(
            family[n],
            c.pad_zeros_to(d.length).append_bit(1).append_bit(zbit()),
            _cohen_leq)
        boundaries.append(nat_to_int(c.length))
        d = checked_densify(
            family[n],
            d.pad_zeros_to(c.length).append_bit(1).append_bit(zbit()),
            _cohen_leq)
        conditions.append({"c": c, "d": d})
    for prev, nxt in zip(boundaries, boundaries[1:]):
        if nxt < prev + 2:
            raise InternalError(f"marker positions too close: {prev}, {nxt}")

    return PairTrace(
        family=family, seed=family.seed,
        payload_source=source.description, payload_bits=consumed,
        boundaries=boundaries, stages=pair_stages(conditions),
        conditions=conditions,
        streams={"c": BitStream(c, ConstTail(0)),
                 "d": BitStream(d, ConstTail(0))})


def pair_stages(conditions) -> List[dict]:
    """The stage records of a pair run whose stage n ends at conditions[n]."""
    return [{"stage": n, "c_len": nat_to_int(rec["c"].length),
             "d_len": nat_to_int(rec["d"].length)}
            for n, rec in enumerate(conditions)]


def many_stages(k: int, markers, payload_bits) -> List[dict]:
    """The sub-round records of a k-tuple run: round r leaves the stream it
    excludes, r % k, marker + 2 bits long and every other one at the marker."""
    return [{"stage": r // k, "excluded": r % k, "marker": m,
             "payload_bit": z,
             "lengths": [m + 2 if i == r % k else m for i in range(k)]}
            for r, (m, z) in enumerate(zip(markers, payload_bits))]


def _check_scan_budget(budget: int) -> None:
    # a scan reads start + budget bits of its stream as text
    if not 1 <= budget <= _MATERIALIZE_LIMIT:
        raise UsageError(f"scan budget must be in 1..{_MATERIALIZE_LIMIT}, "
                         f"got {budget}")


def _scan_for_one(stream, start: int, budget: int, step, name: str) -> int:
    """The first marker 1 at positions start .. start + budget - 1."""
    hit = stream.take01(start + budget).find("1", start)
    if hit == -1:
        raise NoMarker(step, stream=name, budget=budget)
    return hit


def decode_pair(c, d, count: int, scan_budget: int = 4096
                ) -> Tuple[List[int], List[int]]:
    """Recover payload bits and boundaries from an entangled pair.

    Markers alternate d, c, d, c, ...; each boundary is the position of the
    next marker at or after the previous one in the opposite stream.
    """
    _check_scan_budget(scan_budget)
    if count < 1:
        return [], []
    bits: List[int] = []
    boundaries: List[int] = []
    s = _scan_for_one(d, 0, scan_budget, 0, "d")
    boundaries.append(s)
    bits.append(d.bit(s + 1))
    for k in range(1, count):
        stream, name = (c, "c") if k % 2 == 1 else (d, "d")
        s = _scan_for_one(stream, s, scan_budget, k, name)
        boundaries.append(s)
        bits.append(stream.bit(s + 1))
    return bits, boundaries


def entangle_many(k: int, family: DenseFamily, payload, stages: int
                  ) -> ManyTrace:
    """Build k streams, any k-1 of which are generic for the product family.

    Each stage runs k sub-rounds; sub-round i densifies the tuple omitting
    stream i into D_s, equalizes lengths at L, and appends marker + payload
    bit to stream i (one payload bit per sub-round).
    """
    if k < 2:
        raise BadArity("entangle_many needs k >= 2 streams")
    if len(family) == 0:
        raise EmptyFamily("entangle_many needs at least one dense set")
    if family.carrier != CARRIER_PRODUCT or family.arity != k - 1:
        raise BadArity(f"family must be a product of arity {k - 1}")
    if stages < 1:
        raise UsageError("stages must be >= 1")
    if len(family) < stages:
        raise FamilyTooSmall(f"{stages} stages need {stages} sets, "
                             f"family has {len(family)}")
    source = PayloadSource.coerce(payload)
    consumed: List[int] = []
    cur: List[BitString] = [BitString.empty() for _ in range(k)]
    boundaries: List[int] = []
    conditions: List[dict] = []
    prev_marker = None

    def tuple_leq(t1, t2) -> bool:
        return len(t1) == len(t2) and all(a.end_extends(b)
                                          for a, b in zip(t1, t2))

    for s in range(stages):
        for i in range(k):
            others = [j for j in range(k) if j != i]
            densified = checked_densify(
                family[s], tuple(cur[j] for j in others), tuple_leq)
            if len(densified) != k - 1:
                raise InternalError("densifier changed the tuple arity")
            for j, new in zip(others, densified):
                cur[j] = new
            top = max(nat_to_int(x.length) for x in densified)
            if not nat_le(cur[i].length, top):
                raise InternalError(
                    f"excluded stream {i} outgrew the sub-round at stage {s}")
            for j in others:
                cur[j] = cur[j].pad_zeros_to(top)
            if prev_marker is not None and top < prev_marker + 2:
                raise InternalError(
                    f"marker positions too close: {prev_marker}, {top}")
            prev_marker = top
            zb = source.next_bit()
            consumed.append(zb)
            cur[i] = cur[i].pad_zeros_to(top).append_bit(1).append_bit(zb)
            boundaries.append(top)
        conditions.append({str(i): cur[i] for i in range(k)})

    return ManyTrace(
        k=k, family=family, seed=family.seed, conditions=conditions,
        payload_source=source.description, payload_bits=consumed,
        boundaries=boundaries, stages=many_stages(k, boundaries, consumed),
        streams={str(i): BitStream(cur[i], ConstTail(0)) for i in range(k)})


def decode_many(streams: Sequence, k: int, count: int,
                scan_budget: int = 4096) -> Tuple[List[int], List[int]]:
    """Recover payload bits (and marker positions) from the k streams.

    Sub-rounds are decoded in construction order; per excluded stream the
    marker is the first 1 at or after its frontier, after which every other
    frontier advances to the marker and the excluded one past the payload.
    """
    if len(streams) != k:
        raise BadArity(f"expected {k} streams, got {len(streams)}")
    if k < 2:
        raise BadArity("decode_many needs k >= 2 streams")
    _check_scan_budget(scan_budget)
    frontiers = [0] * k
    bits: List[int] = []
    markers: List[int] = []
    step = 0
    while len(bits) < count:
        i = step % k
        pos = _scan_for_one(streams[i], frontiers[i], scan_budget,
                            (step // k, i), str(i))
        bits.append(streams[i].bit(pos + 1))
        markers.append(pos)
        for j in range(k):
            frontiers[j] = pos if j != i else pos + 2
        step += 1
    return bits, markers
