"""Finite partial functions on the grid: conditions for adding many reals.

A PlaneCondition maps finitely many (row, col) cells to bits. Order is
reverse inclusion of cell maps: p is stronger than q when p's cells extend
q's. A GenericPlane is the filter-side object: a total assignment built
from finitely many commitments, finalized row streams, and a default fill
rule for everything never touched. Each cell is read through its row's
BitStream, so a fill bit is hashed at most once per plane.

Order, compatibility and merge compare cell maps through dict views, so
their per-cell work runs inside the dict and set code, not in a Python loop.

A condition made from another by adding cells (`extend`, which a
densifier's `p ∪ fill` and a merge call) carries four caches, so that each
step of a plane build pays for the cells it adds rather than for the cells
it holds:

  _side   a side s whose s x s corner the condition is known to cover; the
          square checks read only the border past it
  _base   a weak reference to the condition it was made from, so `leq`
          against that one is an identity test (a strong one would keep
          every intermediate condition of a build alive)
  _added  the cells it added to that base; `fresh_cells` hands them to the
          chain bound's clash test once, then drops them
  _rows   each row's last column and segment of `json.dumps(to_json())`;
          the key text (the seeded fill key, and the text the trace writer
          re-indents) is their join, and a derived condition appends its new
          cells to the rows they end, rebuilding a row only when a cell
          lands inside it

None of them is part of the condition's value. The empty condition starts
with empty row segments, so every condition a build derives from it
carries its key text, whether or not the family is seeded; a condition
made from cells (`PlaneCondition(cells)`, `from_json`, `from_rows`, a
corner) starts without them and learns them when its key text is asked for.

The k x k corners a genericity search reads (`GenericPlane.corners()`) are
views: their `_side` is k, and their cell map (`_CornerCells`) answers
whether a pair of ints is a cell by a bounds test, building the cells of
`restriction(k)` only when a value is read. A square or cell set's member
test therefore reads no row.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from itertools import chain, count, filterfalse, product, repeat
from operator import eq
from types import MappingProxyType
from typing import Callable, Dict, Optional, Tuple

from .bits import (_MATERIALIZE_LIMIT, BitStream, BitString, ConstTail,
                   PrngTail, _is_nat_text, derive_seed, stream_from_json)
from .errors import CheckFailure, IncompatibleConditions, UsageError

Cell = Tuple[int, int]


def _grow_rows(rows: dict, cells: Mapping[Cell, int],
               added: Mapping[Cell, int]) -> dict:
    """`rows` (row -> (last col, key segment)) with the cells `added`, which
    they do not hold yet, put in; `cells` is the whole new map. A row that
    gains a cell left of its last one is rebuilt from `cells`."""
    rows = dict(rows)
    new_by_row: Dict[int, list] = {}
    for (r, c), b in added.items():
        new_by_row.setdefault(r, []).append((c, b))
    for r, new in new_by_row.items():
        new.sort()
        last, segment = rows.get(r, (-1, ""))
        if new[0][0] < last:
            new = sorted((c, b) for (r2, c), b in cells.items() if r2 == r)
            segment = ""
        text = ", ".join([f"[{r}, {c}, {b}]" for c, b in new])
        rows[r] = (new[-1][0], segment + ", " + text if segment else text)
    return rows


class PlaneCondition:
    """Immutable finite partial function (row, col) -> bit, carrying the
    caches of the module docstring."""

    __slots__ = ("cells", "_side", "_base", "_added", "_rows", "__weakref__")

    def __init__(self, cells: Optional[Dict[Cell, int]] = None):
        self.cells = MappingProxyType(dict(cells or {}))
        self._side, self._base, self._added = 0, None, None
        self._rows = None if cells else {}

    @classmethod
    def _of(cls, cells: Mapping[Cell, int], side: int = 0
            ) -> "PlaneCondition":
        """Wrap a dict (or a corner's `_CornerCells`) the caller has just
        built and keeps no reference to, covering at least the side x side
        corner."""
        p = cls.__new__(cls)
        p.cells = MappingProxyType(cells)
        p._side, p._base, p._added, p._rows = side, None, None, None
        return p

    def extend(self, added: Dict[Cell, int], side: int = 0
               ) -> "PlaneCondition":
        """This condition's cells plus `added`, cells it lacks, covering at
        least the side x side corner: the one way to derive a condition,
        so the result carries the caches of the module docstring."""
        p = PlaneCondition.__new__(PlaneCondition)
        p.cells = MappingProxyType({**self.cells, **added})
        p._side = max(self._side, side)
        p._base, p._added = weakref.ref(self), added
        p._rows = (None if self._rows is None
                   else _grow_rows(self._rows, p.cells, added))
        return p

    def fresh_cells(self, base: "PlaneCondition"):
        """The (cell, bit) items this condition holds and `base` lacks: the
        cells it was extended by when `base` is the condition it was made
        from, else the difference of the two cell maps (a densifier may
        build its condition from cells). The added cells are handed out
        once, then forgotten, so a kept condition does not hold them."""
        added, self._added = self._added, None
        if self is base:
            return ()
        if added is not None and self._base() is base:
            return added.items()
        cells = self.cells
        return [(cell, cells[cell]) for cell in cells.keys() - base.cells]

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
        """Stronger-or-equal: self's cell map extends other's; at once when
        other is self or the condition self was made from."""
        if other is self or (self._base is not None
                             and self._base() is other):
            return True
        return self.cells.items() >= other.cells.items()

    def compatible(self, other: "PlaneCondition") -> bool:
        """Whether the two maps give every cell they share the same bit;
        walks the smaller map."""
        a, b = self.cells, other.cells
        if len(a) > len(b):
            a, b = b, a
        return all(map(eq, map(b.get, a.keys(), a.values()), a.values()))

    def square_gaps(self, size: int) -> list:
        """The undefined cells of the size x size corner, row-major. Only
        the border past the known side is read, and a corner found whole
        becomes the known side."""
        side = self._side
        if side >= size:
            return []
        gaps = list(filterfalse(self.cells.__contains__, chain(
            product(range(side), range(side, size)),
            product(range(side, size), range(size)))))
        if not gaps:
            self._side = size
        return gaps

    def key_text(self) -> str:
        """`json.dumps(self.to_json())`, joined from the row segments."""
        if self._rows is None:
            self._rows = _grow_rows({}, self.cells, self.cells)
        return "[" + ", ".join([segment for _, (_, segment)
                                in sorted(self._rows.items())]) + "]"

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
    cells = p.cells
    return p.extend({c: bit for c, bit in q.cells.items() if c not in cells},
                    q._side)


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

    def corners(self) -> Callable[[int], PlaneCondition]:
        """A function k -> restriction(k) for reading many corners.

        Each corner is a view of the plane (`_CornerCells`): known to cover
        its k x k square, it reads the rows only when a value is asked for,
        so a square or cell set's member test reads none. The same k as the
        last call gives the same object. A corner of more than
        _MATERIALIZE_LIMIT cells raises CheckFailure before it is made."""
        last, last_k = None, None

        def corner(k: int) -> PlaneCondition:
            nonlocal last, last_k
            if k * k > _MATERIALIZE_LIMIT:
                raise CheckFailure(f"a corner of side {k} holds {k * k} "
                                   f"cells, past the cap of "
                                   f"{_MATERIALIZE_LIMIT}")
            if k != last_k:
                last = PlaneCondition._of(_CornerCells(self, k), k)
                last_k = k
            return last

        return corner

    def contains(self, p: PlaneCondition) -> bool:
        """Whether p is a restriction of this plane (p is in its filter)."""
        return all(self.cell(r, c) == b for (r, c), b in p.cells.items())

    def to_json(self):
        """The plane's JSON value, its commitments left as the condition."""
        return {"commitments": self.commitments,
                "rows": {str(r): self.rows[r].to_json() for r in sorted(self.rows)},
                "fill_seed": self.fill_seed}

    @classmethod
    def from_json(cls, obj) -> "GenericPlane":
        """Inverse of to_json: an object holding `commitments` and `rows`,
        and `fill_seed` or nothing else (an absent one reads as None)."""
        if not (isinstance(obj, dict) and {"commitments", "rows"}
                <= obj.keys() <= {"commitments", "rows", "fill_seed"}):
            raise UsageError("a plane must be an object holding "
                             "'commitments' and 'rows', and 'fill_seed' or "
                             "no other key")
        rows = obj["rows"]
        if not isinstance(rows, dict) or not all(map(_is_nat_text, rows)):
            raise UsageError("a plane's rows must be a JSON object keyed by "
                             "decimal row numbers")
        rows = {int(r): stream_from_json(s) for r, s in rows.items()}
        return cls(PlaneCondition.from_json(obj["commitments"]),
                   rows=rows, fill_seed=obj.get("fill_seed"))


class _CornerCells(Mapping):
    """The cell map of a plane's k x k corner, the cells of restriction(k).

    Whether a pair of ints is a cell is a bounds test; any other key, and
    any read of values (`Mapping` derives `get`, `items` and the rest from
    `__getitem__` and `__iter__`), is answered by the restriction's cells,
    built from the rows once, on the first such read."""

    __slots__ = ("_plane", "_k", "_cells")

    def __init__(self, plane: GenericPlane, k: int):
        self._plane, self._k, self._cells = plane, k, None

    def _built(self) -> Mapping[Cell, int]:
        if self._cells is None:
            self._cells = self._plane.restriction(self._k).cells
        return self._cells

    def __contains__(self, cell) -> bool:
        if (type(cell) is tuple and len(cell) == 2
                and type(cell[0]) is int and type(cell[1]) is int):
            return 0 <= cell[0] < self._k and 0 <= cell[1] < self._k
        return cell in self._built()

    def __len__(self) -> int:
        return self._k * self._k

    def __getitem__(self, cell) -> int:
        return self._built()[cell]

    def __iter__(self):
        return iter(self._built())
