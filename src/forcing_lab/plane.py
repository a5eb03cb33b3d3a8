"""Finite partial functions on the grid: conditions for adding many reals.

A PlaneCondition maps finitely many (row, col) cells to bits. Order is
reverse inclusion of cell maps: p is stronger than q when p's cells extend
q's. A GenericPlane is the filter-side object: a total assignment built
from finitely many commitments, finalized row streams, and a default fill
rule for everything never touched. Each cell is read through its row's
BitStream, so a fill bit is hashed at most once per plane.

Order, compatibility and merge compare cell maps through dict views, so
their per-cell work runs inside the dict and set code, not in a Python loop.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from .bits import (_MATERIALIZE_LIMIT, BitStream, BitString, ConstTail,
                   PrngTail, derive_seed)
from .errors import IncompatibleConditions, UsageError

Cell = Tuple[int, int]


class PlaneCondition:
    """Immutable finite partial function (row, col) -> bit."""

    __slots__ = ("cells",)

    def __init__(self, cells: Optional[Dict[Cell, int]] = None):
        self.cells = MappingProxyType(dict(cells or {}))

    @classmethod
    def _of(cls, cells: Dict[Cell, int]) -> "PlaneCondition":
        """Wrap a dict the caller has just built and keeps no reference to."""
        p = cls.__new__(cls)
        p.cells = MappingProxyType(cells)
        return p

    @classmethod
    def empty(cls) -> "PlaneCondition":
        return cls()

    @classmethod
    def from_rows(cls, texts: Mapping[int, str], start: int = 0
                  ) -> "PlaneCondition":
        """The cells (r, start + i) set to bit i of row r's 0/1 text."""
        cells = {}
        for r, text in texts.items():
            cells.update(zip(zip(repeat(r), count(start)), map(int, text)))
        return cls._of(cells)

    def get(self, row: int, col: int):
        return self.cells.get((row, col))

    def leq(self, other: "PlaneCondition") -> bool:
        """Stronger-or-equal: self's cell map extends other's."""
        return self.cells.items() >= other.cells.items()

    def compatible(self, other: "PlaneCondition") -> bool:
        """Whether the two maps give every cell they share the same bit."""
        a, b = self.cells, other.cells
        return len(a.items() & b.items()) == len(a.keys() & b.keys())

    def row_cells(self, row: int) -> Dict[int, int]:
        return {c: b for (r, c), b in self.cells.items() if r == row}

    def max_row(self) -> int:
        return max((r for r, _ in self.cells), default=-1)

    def max_col(self) -> int:
        return max((c for _, c in self.cells), default=-1)

    def to_json(self):
        return [[r, c, self.cells[(r, c)]] for r, c in sorted(self.cells)]

    @classmethod
    def from_json(cls, items) -> "PlaneCondition":
        """Inverse of to_json: a list of distinct [row, col, bit] items,
        row and col below _MATERIALIZE_LIMIT, as stream columns are.

        Checked a column at a time, since traces hold thousands of cells."""
        try:
            rows, cols, bits = zip(*items, strict=True) if items else ((),) * 3
        except (TypeError, ValueError):
            rows = cols = bits = (None,)
        ok = (isinstance(items, list)
              and set(map(type, chain(rows, cols, bits))) <= {int}
              and min(chain(rows, cols), default=0) >= 0
              and max(chain(rows, cols), default=0) < _MATERIALIZE_LIMIT
              and set(bits) <= {0, 1})
        cells = dict(zip(zip(rows, cols), bits)) if ok else {}
        if not ok or len(cells) != len(items):
            raise UsageError(f"plane cells must be distinct [row, col, bit] "
                             f"items with int row, col in "
                             f"0..{_MATERIALIZE_LIMIT - 1} and bit 0 or 1")
        return cls._of(cells)

    def __eq__(self, other):
        if not isinstance(other, PlaneCondition):
            return NotImplemented
        return self.cells == other.cells

    def __len__(self):
        return len(self.cells)

    def __repr__(self):
        if len(self.cells) <= 6:
            inner = ",".join(f"({r},{c})={b}" for (r, c), b in sorted(self.cells.items()))
            return f"PlaneCondition({inner})"
        return f"PlaneCondition({len(self.cells)} cells)"


def merge_conditions(p: PlaneCondition, q: PlaneCondition) -> PlaneCondition:
    """Union of the two cell maps; the greatest lower bound when compatible.

    Incompatible maps raise at the first cell of q, in q's order, that p
    sets to the other bit."""
    if not q.cells:
        return p
    if not p.compatible(q):
        cell = next(c for c, bit in q.cells.items()
                    if p.cells.get(c, bit) != bit)
        raise IncompatibleConditions(
            f"conditions disagree at cell {cell}", cell=cell)
    return PlaneCondition._of({**p.cells, **q.cells})


class GenericPlane:
    """A total function on the grid standing in for a generic filter.

    Rows present in `rows` are finalized streams; every other row is its
    commitments over the fill rule (seeded pseudo-random bits, or 0 when
    seed is None), a stream built on first read and kept by the plane.
    """

    def __init__(self, commitments: PlaneCondition = None,
                 rows: Optional[Dict[int, BitStream]] = None,
                 fill_seed=None):
        self.commitments = commitments if commitments is not None else PlaneCondition.empty()
        self.rows = dict(rows or {})
        self.fill_seed = fill_seed
        self._built: Dict[int, BitStream] = {}

    def cell(self, row: int, col: int) -> int:
        return self.row_stream(row).bit(col)

    def row_stream(self, row: int) -> BitStream:
        """The row as a stream; cell() reads every cell of the row from it."""
        stream = self.rows.get(row)
        if stream is None:
            stream = self._built.get(row)
        if stream is None:
            cols = self.commitments.row_cells(row)
            tail = (ConstTail(0) if self.fill_seed is None else
                    PrngTail(derive_seed(self.fill_seed, "plane-fill", row)))
            prefix = "".join(
                str(cols[c]) if c in cols else tail.take01(c, c + 1)
                for c in range(max(cols, default=-1) + 1))
            stream = BitStream(BitString.from01(prefix), tail)
            self._built[row] = stream
        return stream

    def restriction(self, size: int) -> PlaneCondition:
        """The size x size corner of the plane as a finite condition."""
        return PlaneCondition.from_rows(
            {r: self.row_stream(r).take01(size) for r in range(size)})

    def contains(self, p: PlaneCondition) -> bool:
        """Whether p is a restriction of this plane (p is in its filter)."""
        return all(self.cell(r, c) == b for (r, c), b in p.cells.items())

    def to_json(self):
        return {"commitments": self.commitments.to_json(),
                "rows": {str(r): self.rows[r].to_json() for r in sorted(self.rows)},
                "fill_seed": self.fill_seed}

    @classmethod
    def from_json(cls, obj) -> "GenericPlane":
        from .bits import stream_from_json
        rows = obj.get("rows", {})
        if not isinstance(rows, dict):
            raise UsageError("a plane's rows must be a JSON object")
        rows = {int(r): stream_from_json(s) for r, s in rows.items()}
        return cls(PlaneCondition.from_json(obj.get("commitments", [])),
                   rows=rows, fill_seed=obj.get("fill_seed"))
