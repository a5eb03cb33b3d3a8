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
its budget reports met=False; under strict=True it raises BudgetExceeded
instead, since a bounded search cannot prove absence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .bits import BitStream, BitString
from .dense import (CARRIER_COHEN, CARRIER_PLANE, CARRIER_POSET,
                    CARRIER_PRODUCT, DenseFamily)
from .errors import BadArity, BudgetExceeded, FamilyTooSmall, UsageError
from .plane import GenericPlane
from .towers import nat_to_int


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


class _PrefixFilter:
    """Uniform prefix access for streams and finite conditions."""

    def __init__(self, obj):
        if isinstance(obj, BitStream):
            self.stream = obj
            self.limit = None
        elif isinstance(obj, BitString):
            self.stream = None
            self.string = obj
            self.limit = nat_to_int(obj.length)
        else:
            raise UsageError(f"not a cohen filter representation: {obj!r}")

    def cap(self, budget: int) -> int:
        return budget if self.limit is None else min(budget, self.limit)

    def take(self, k: int) -> BitString:
        if self.stream is not None:
            return self.stream.take(k)
        return self.string.prefix(min(k, self.limit))

    def take01(self, k: int) -> str:
        if self.stream is not None:
            return self.stream.take01(k)
        return self.string.prefix(min(k, self.limit)).to01()

    def bit(self, i: int) -> int:
        if self.stream is not None:
            return self.stream.bit(i)
        return self.string.bit(i)


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


def _prefix_view(filt, family: DenseFamily, budget: int):
    """(witness-search view, scan cap, candidate(k)) for a prefix filter."""
    if family.carrier == CARRIER_COHEN:
        view = _PrefixFilter(filt)
        return view, view.cap(budget), view.take
    if family.carrier == CARRIER_PRODUCT:
        filts = [_PrefixFilter(f) for f in filt]
        if family.arity != len(filts):
            raise BadArity(
                f"family arity {family.arity} != {len(filts)} filters")
        cap = min([budget] + [f.cap(budget) for f in filts])
        return filts, cap, lambda k: tuple(f.take(k) for f in filts)
    if family.carrier == CARRIER_PLANE:
        if not isinstance(filt, GenericPlane):
            raise UsageError("plane families need a GenericPlane filter")
        return filt, budget, filt.restriction
    raise UsageError(f"unknown carrier {family.carrier!r}")


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


def _default_budget(filt, family, horizon: int) -> int:
    if family.carrier == CARRIER_COHEN and isinstance(filt, (list, tuple)):
        # chain representation: budget counts chain elements and ancestors
        return max(horizon + 16, 64, len(filt) + 1)
    if family.carrier in (CARRIER_COHEN, CARRIER_PRODUCT):
        parts = filt if isinstance(filt, (list, tuple)) else [filt]
        top = horizon + 16
        for p in parts:
            if isinstance(p, BitStream):
                top = max(top, len(p.prefix_string.to01()) + horizon + 16)
            elif isinstance(p, BitString) and p.is_concrete:
                top = max(top, min(nat_to_int(p.length), 1 << 20))
        return top
    if family.carrier == CARRIER_PLANE:
        extent = max(filt.commitments.max_row(), filt.commitments.max_col(),
                     max(filt.rows, default=-1))
        return max(horizon, extent + 1) + 2
    return max(horizon + 16, 64)


def meets_family(filt, family: DenseFamily, horizon: int,
                 budget: Optional[int] = None, strict: bool = False,
                 poset=None) -> GenericityReport:
    """Report, per n < horizon, whether the filter meets D_n, with witness."""
    if horizon > len(family):
        raise FamilyTooSmall(
            f"horizon {horizon} exceeds family size {len(family)}")
    if budget is None:
        budget = _default_budget(filt, family, horizon)
    if budget < 1:
        raise UsageError("budget must be >= 1")

    carrier = family.carrier
    if carrier == CARRIER_POSET or (carrier == CARRIER_COHEN
                                    and isinstance(filt, (list, tuple))):
        # a descending chain of conditions is also a filter representation
        if poset is None and carrier == CARRIER_COHEN:
            from .posets import cohen_poset
            poset = cohen_poset()
        chain = list(filt)
        search = lambda dset: _search_chain(dset, chain, poset, budget)
    else:
        view, cap, candidate = _prefix_view(filt, family, budget)
        search = lambda dset: _search(dset, view, cap, candidate)

    report = GenericityReport(horizon=horizon, budget=budget)
    for n in range(horizon):
        witness = search(family[n])
        if witness is not None:
            report.results.append(SetResult(n, True, witness))
        else:
            if strict:
                raise BudgetExceeded(
                    f"D_{n} not met within budget {budget}")
            report.results.append(
                SetResult(n, False, None, note=f"budget {budget} exhausted"))
    return report


def mutual_genericity_check(filters, family: DenseFamily, horizon: int,
                            budget: Optional[int] = None,
                            strict: bool = False) -> GenericityReport:
    """meets_family for a tuple of filters against a product family."""
    filters = list(filters)
    if not filters and len(family) == 0:
        return GenericityReport(horizon=0, budget=budget or 1)
    if family.carrier != CARRIER_PRODUCT:
        raise BadArity("mutual genericity checks need a product family")
    if family.arity != len(filters):
        raise BadArity(
            f"{len(filters)} filters against arity-{family.arity} family")
    return meets_family(tuple(filters), family, horizon,
                        budget=budget, strict=strict)
