"""Genericity verification: does a filter meet every set of a family?

At desk scale "generic" always means "meets the supplied family up to a
horizon". The filter representations are concrete:

  cohen    a BitStream (filter = its finite prefixes) or a BitString
           (filter = the prefixes of that one condition)
  product  a tuple of the above, one per coordinate
  plane    a GenericPlane (filter = its finite restrictions)
  poset    a descending chain of conditions (filter = upward closure,
           membership decided against the chain within a budget)

Catalog sets may provide a fast witness search, but every witness reported
here is re-verified with the set's own member predicate, and witnesses are
drawn from the filter by construction. A search that finds nothing within
its budget reports met=False.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .bits import BitStream, BitString
from .dense import (CARRIER_COHEN, CARRIER_PLANE, CARRIER_POSET,
                    CARRIER_PRODUCT, DenseFamily)
from .errors import BadArity, FamilyTooSmall, UsageError
from .plane import GenericPlane
from .towers import nat_le


@dataclass
class SetResult:
    index: int
    met: bool
    witness: object = None
    note: str = ""


@dataclass
class GenericityReport:
    horizon: int
    budget: int
    results: List[SetResult] = field(default_factory=list)

    @property
    def all_met(self) -> bool:
        return all(r.met for r in self.results)

    def met(self, n: int) -> bool:
        return self.results[n].met

    def witness(self, n: int):
        return self.results[n].witness

    def failures(self) -> List[int]:
        return [r.index for r in self.results if not r.met]

    def summary(self) -> str:
        bad = self.failures()
        if not bad:
            return f"met all {len(self.results)} sets (horizon {self.horizon})"
        return (f"missed {len(bad)} of {len(self.results)} sets: "
                f"{bad[:8]}{'...' if len(bad) > 8 else ''}")


def _search(dset, view, cap: int, candidate):
    """Fast witness re-checked with `member`, else a linear scan to cap.

    `view` is what the set's witness search reads; `candidate(k)` is the
    filter's k-th condition (prefix, prefix tuple or square corner).
    """
    if dset.witness_search is not None:
        k = dset.witness_search(view, cap)
        if k is not None and k <= cap:
            cand = candidate(k)
            if dset.member(cand):
                return cand
    for k in range(cap + 1):
        cand = candidate(k)
        if dset.member(cand):
            return cand
    return None


def _search_chain(dset, chain, poset, budget: int):
    for i, el in enumerate(chain):
        if i >= budget:
            break
        if dset.member(el):
            return el
    if poset is not None and poset.ancestors is not None:
        seen = 0
        for el in chain:
            for anc in poset.ancestors(el, budget):
                seen += 1
                if seen > budget:
                    return None
                if dset.member(anc):
                    return anc
    return None


def _filter_search(filt, family: DenseFamily, horizon: int,
                   budget: Optional[int], poset):
    """(budget, search(dset)) for the filter's representation.

    The one place that tells the representations apart. `budget` None
    picks the default for the representation. A finite condition is read
    as the stream of its own prefixes, cut at min(budget, its length).
    """
    carrier = family.carrier
    if carrier == CARRIER_POSET or (carrier == CARRIER_COHEN
                                    and isinstance(filt, (list, tuple))):
        # a descending chain of conditions; the budget counts chain
        # elements and ancestors
        if poset is None and carrier == CARRIER_COHEN:
            from .posets import cohen_poset
            poset = cohen_poset()
        chain = list(filt)
        if budget is None:
            budget = max(horizon + 16, 64, len(chain) + 1)
        return budget, lambda dset: _search_chain(dset, chain, poset, budget)
    if carrier == CARRIER_PLANE:
        if not isinstance(filt, GenericPlane):
            raise UsageError("plane families need a GenericPlane filter")
        if budget is None:
            extent = max(filt.commitments.max_row(),
                         filt.commitments.max_col(), max(filt.rows, default=-1))
            budget = max(horizon, extent + 1) + 2
        return budget, lambda dset: _search(dset, filt, budget,
                                            filt.restriction)
    if carrier == CARRIER_COHEN:
        coords = [filt]
    elif carrier == CARRIER_PRODUCT:
        coords = list(filt)
        if family.arity != len(coords):
            raise BadArity(
                f"family arity {family.arity} != {len(coords)} filters")
    else:
        raise UsageError(f"unknown carrier {family.carrier!r}")
    if not all(isinstance(p, (BitStream, BitString)) for p in coords):
        raise UsageError(f"not a cohen filter representation: {filt!r}")
    if budget is None:
        budget = horizon + 16
        for p in coords:
            if isinstance(p, BitStream):
                budget = max(budget, len(p.prefix_string.to01()) + horizon + 16)
            elif p.is_concrete:
                budget = max(budget, min(p.length, 1 << 20))
    cap = budget
    streams = []
    for p in coords:
        if isinstance(p, BitString):
            own = budget if nat_le(budget, p.length) else p.length
            cap = min(cap, own)
            p = BitStream(p.prefix(own))
        streams.append(p)
    if carrier == CARRIER_COHEN:
        view, candidate = streams[0], streams[0].take
    else:
        view = streams
        candidate = lambda k: tuple(s.take(k) for s in streams)
    return budget, lambda dset: _search(dset, view, cap, candidate)


def meets_family(filt, family: DenseFamily, horizon: int,
                 budget: Optional[int] = None, poset=None) -> GenericityReport:
    """Report, per n < horizon, whether the filter meets D_n, with witness."""
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    if horizon > len(family):
        raise FamilyTooSmall(
            f"horizon {horizon} exceeds family size {len(family)}")
    if budget is not None and budget < 1:
        raise UsageError("budget must be >= 1")
    budget, search = _filter_search(filt, family, horizon, budget, poset)

    report = GenericityReport(horizon=horizon, budget=budget)
    for n in range(horizon):
        witness = search(family[n])
        if witness is not None:
            report.results.append(SetResult(n, True, witness))
        else:
            report.results.append(
                SetResult(n, False, None, note=f"budget {budget} exhausted"))
    return report


def mutual_genericity_check(filters, family: DenseFamily, horizon: int,
                            budget: Optional[int] = None) -> GenericityReport:
    """meets_family for a tuple of filters against a product family."""
    filters = list(filters)
    if not filters and len(family) == 0:
        return GenericityReport(horizon=0, budget=budget or 1)
    if family.carrier != CARRIER_PRODUCT:
        raise BadArity("mutual genericity checks need a product family")
    return meets_family(tuple(filters), family, horizon, budget=budget)
