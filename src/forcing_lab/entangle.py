"""Entangled generics over Cohen forcing and finite products.

Two constructions live here. The pair protocol interleaves two streams so
that each separately falls into every set of the family (each stage string
is densified into D_n) while the padding zeros pinpoint the coding marker
bits, letting the pair jointly spell out an arbitrary payload. The tuple
protocol does the same for k streams with sub-rounds that exclude one
stream at a time, so every proper subtuple is generic for the product
family, yet all k streams together replay the construction history.

Both decoders are one walk over the streams taken in turn (d, c for the
pair, 0 .. k-1 for the tuple): each marker is the first 1 of the next
stream at or after the marker before it. The walk never looks at a
trace, only at marker positions, which is exactly what makes the
round-trip tests meaningful.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .bits import (_MATERIALIZE_LIMIT, BitStream, BitString, ConstTail,
                   PayloadSource)
from .dense import DenseFamily
from .errors import BadArity, InternalError, NoMarker, UsageError
from .towers import nat_le, nat_to_int
from .trace import ManyTrace, PairTrace


def entangle_pair(family: DenseFamily, payload, stages: int) -> PairTrace:
    """Build the entangled pair (c, d) through stages many dense sets.

    Consumes 2*stages - 1 payload bits; the trace holds the streams c and d
    and records every stage string, marker position and consumed bit.
    """
    family.require(PairTrace.carriers, stages, "entangle_pair")
    if stages < 1:
        raise UsageError("stages must be >= 1")
    source = PayloadSource.coerce(payload)
    next_bit = source.next_bit
    c = family.densify(0, BitString.empty())
    if c.is_empty:
        # the decoder needs the first marker at index >= 1
        c = family.densify(0, BitString.from01("0"))
    boundaries = [nat_to_int(c.length)]
    d = family.densify(
        0, BitString.zeros(c.length).append_bit(1).append_bit(next_bit()))
    conditions = [{"c": c, "d": d}]
    for n in range(1, stages):
        boundaries.append(nat_to_int(d.length))
        c = family.densify(
            n, c.pad_zeros_to(d.length).append_bit(1).append_bit(next_bit()))
        boundaries.append(nat_to_int(c.length))
        d = family.densify(
            n, d.pad_zeros_to(c.length).append_bit(1).append_bit(next_bit()))
        conditions.append({"c": c, "d": d})
    for prev, nxt in zip(boundaries, boundaries[1:]):
        if nxt < prev + 2:
            raise InternalError(f"marker positions too close: {prev}, {nxt}")

    return PairTrace(
        family=family, seed=family.seed,
        payload_source=source.description, payload_bits=list(source.drawn),
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


def _walk(streams: Sequence, count: int, budget: int
          ) -> Tuple[List[int], List[int]]:
    """The payload bits and markers of the first `count` steps.

    Marker t is the first 1 of streams[t % k] at or after marker t - 1
    (position 0 for t = 0), read within `budget` bits of that start; its
    payload bit follows it. The walk stops at the first marker missing, so
    fewer than `count` markers mean step len(markers) found none.
    """
    bits: List[int] = []
    markers: List[int] = []
    pos = 0
    for t in range(count):
        stream = streams[t % len(streams)]
        pos = stream.take01(pos + budget).find("1", pos)
        if pos == -1:
            break
        markers.append(pos)
        bits.append(stream.bit(pos + 1))
    return bits, markers


def decode_pair(c, d, count: int, scan_budget: int = 4096
                ) -> Tuple[List[int], List[int]]:
    """Recover payload bits and boundaries from an entangled pair.

    Markers alternate d, c, d, c, ...; each boundary is the position of the
    next marker at or after the previous one in the opposite stream.
    """
    _check_scan_budget(scan_budget)
    bits, boundaries = _walk((d, c), count, scan_budget)
    if len(boundaries) < count:
        step = len(boundaries)
        raise NoMarker(step, stream="dc"[step % 2], budget=scan_budget)
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
    family.require(ManyTrace.carriers, stages, "entangle_many")
    if family.arity != k - 1:
        raise BadArity(f"family must be a product of arity {k - 1}")
    if stages < 1:
        raise UsageError("stages must be >= 1")
    source = PayloadSource.coerce(payload)
    cur: List[BitString] = [BitString.empty() for _ in range(k)]
    boundaries: List[int] = []
    conditions: List[dict] = []
    for s in range(stages):
        for i in range(k):
            others = [j for j in range(k) if j != i]
            # the product order keeps the tuple's length
            densified = family.densify(s, tuple(cur[j] for j in others))
            for j, new in zip(others, densified):
                cur[j] = new
            top = max(nat_to_int(x.length) for x in densified)
            if not nat_le(cur[i].length, top):
                raise InternalError(
                    f"excluded stream {i} outgrew the sub-round at stage {s}")
            for j in others:
                cur[j] = cur[j].pad_zeros_to(top)
            if boundaries and top < boundaries[-1] + 2:
                raise InternalError(
                    f"marker positions too close: {boundaries[-1]}, {top}")
            cur[i] = (cur[i].pad_zeros_to(top).append_bit(1)
                      .append_bit(source.next_bit()))
            boundaries.append(top)
        conditions.append({str(i): cur[i] for i in range(k)})

    bits = list(source.drawn)
    return ManyTrace(
        k=k, family=family, seed=family.seed, conditions=conditions,
        payload_source=source.description, payload_bits=bits,
        boundaries=boundaries, stages=many_stages(k, boundaries, bits),
        streams={str(i): BitStream(cur[i], ConstTail(0)) for i in range(k)})


def decode_many(streams: Sequence, k: int, count: int,
                scan_budget: int = 4096) -> Tuple[List[int], List[int]]:
    """Recover payload bits (and marker positions) from the k streams.

    Sub-rounds are decoded in construction order: the marker of sub-round
    t is the first 1 of stream t % k at or after the marker before it,
    since each sub-round leaves every stream it does not exclude at its
    marker (k >= 2, so the next excluded stream is one of them).
    """
    if len(streams) != k:
        raise BadArity(f"expected {k} streams, got {len(streams)}")
    if k < 2:
        raise BadArity("decode_many needs k >= 2 streams")
    _check_scan_budget(scan_budget)
    bits, markers = _walk(streams, count, scan_budget)
    if len(markers) < count:
        step = len(markers)
        raise NoMarker((step // k, step % k), stream=str(step % k),
                       budget=scan_budget)
    return bits, markers
