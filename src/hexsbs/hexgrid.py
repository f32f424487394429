"""Hexagonal-grid geometry: cells, the shaded-vertex lattice, boundary
words and the ring count behind a cell set's Euler characteristic.

Coordinates
-----------
* Cells carry axial coordinates (q, r); the six neighbors are offset by
  N = (0, 1), NE = (1, 0), SE = (1, -1) and their negatives.  Hexagons
  have horizontal top and bottom edges.
* Step endpoints (the shaded vertices) form a triangular lattice with
  displacements d(X) = (0, 1), d(Y) = (-1, 0), d(Z) = (1, -1).
* All plane geometry is done in integer half-units: x in units of s/2 and
  y in units of s*sqrt(3)/2 for hexagon side s.  The center of cell (q, r)
  sits at (3q, q + 2r); lattice point (u, v) sits at (1 + 3u, -1 + u + 2v).
  Grid vertices have x = 1 or 2 (mod 3); the shaded ones are x = 1 (mod 3).
* A written step word is traversed from its rightmost letter (see
  :mod:`hexsbs.words`), so boundary extraction records the
  counterclockwise walk from a shaded vertex and pairs it, reversed, into
  step letters with words.edges_to_steps.
* A region is tested by one boundary walk, kept with the Region; the step
  word is read off it only when asked for.  The cells whose bottom and
  top edges the walk takes pair off, sorted, into column runs (q fixed,
  r from bottom to top).  If the walk is the outer cycle of the least
  cell's piece, they are the runs of that piece with its holes filled,
  and the set is one region exactly when the runs lie in it and hold
  all its cells.  If the walk is instead a hole's cycle, as for a ring,
  each column pairs a top below its bottom and the set is rejected.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from itertools import chain, repeat

from .cyclo import Frozen, setters
from .words import (STEP_TO_EDGES, Word, check_size, edges_to_steps,
                    step_word)

Cell = tuple  # (q, r)
LatticePoint = tuple  # (u, v)

# neighbor offsets indexed like the cell's CCW boundary edges below
NEIGHBOR_OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class RegionError(ValueError):
    """A cell set that is not a valid (simply connected) region."""


def cell_center_plane(cell: Cell) -> tuple:
    q, r = cell
    return (3 * q, q + 2 * r)


def lattice_to_plane(p: LatticePoint) -> tuple:
    u, v = p
    return (1 + 3 * u, -1 + u + 2 * v)


def plane_to_lattice(xy: tuple) -> LatticePoint:
    x, y = xy
    if x % 3 != 1:
        raise ValueError(f"{xy} is not a shaded vertex")
    u = (x - 1) // 3
    return (u, (y + 1 - u) // 2)


def cell_vertices_plane(cell: Cell):
    """The six corners in CCW order starting at the east vertex."""
    cx, cy = cell_center_plane(cell)
    return ((cx + 2, cy), (cx + 1, cy + 1), (cx - 1, cy + 1),
            (cx - 2, cy), (cx - 1, cy - 1), (cx + 1, cy - 1))


# the letter of edge k of a cell, which runs from its corner k to k + 1
_EDGE_LETTERS = "BGabgA"
_CORNERS = cell_vertices_plane((0, 0))
_EDGE_DELTAS = {e: (x2 - x1, y2 - y1) for e, (x1, y1), (x2, y2)
                in zip(_EDGE_LETTERS, _CORNERS, _CORNERS[1:] + _CORNERS[:1])}
# step letter -> its edge displacements as walked: its STEP_TO_EDGES pair
# reversed, since the rightmost letter of a written word is walked first
STEP_EDGE_DELTAS = {step: tuple(_EDGE_DELTAS[e] for e in reversed(pair))
                    for step, pair in STEP_TO_EDGES.items()}
STEP_DISPLACEMENTS = {  # on the lattice of shaded vertices
    step: plane_to_lattice(tuple(map(sum, zip(lattice_to_plane((0, 0)), *ds))))
    for step, ds in STEP_EDGE_DELTAS.items()}
_EDGE_K = {d: k for k, d in enumerate(_EDGE_DELTAS.values())}  # delta -> k


def path_endpoint(start: LatticePoint, w: Word) -> LatticePoint:
    u, v = start
    for ch in w.letters:
        du, dv = STEP_DISPLACEMENTS[ch]
        u, v = u + du, v + dv
    return (u, v)


def is_closed(w: Word) -> bool:
    return path_endpoint((0, 0), w) == (0, 0)


def left_cells(w: Word) -> frozenset:
    """The cells on the left of the path of `w` from the origin, rightmost
    letter first: for a boundary word walked counterclockwise, every
    region cell that has a boundary edge."""
    x, y = lattice_to_plane((0, 0))
    cells = set()
    for step in reversed(w.letters):
        for dx, dy in STEP_EDGE_DELTAS[step]:
            # the walked edge is edge k of the cell whose corner k is here
            kx, ky = _CORNERS[_EDGE_K[dx, dy]]
            q = (x - kx) // 3
            cells.add((q, (y - ky - q) // 2))
            x, y = x + dx, y + dy
    return frozenset(cells)


class Region(Frozen):
    """A finite, edge-connected, simply connected set of cells.

    `walk` is the (cell, k, edge letters) that region_validate's
    _boundary_walk returned; a Region built directly has none, and
    region_boundary_word makes, and so checks, its walk then.  Equality,
    hash and repr read `cells` only."""

    __slots__ = ("cells", "walk")

    def __init__(self, cells: frozenset, walk: tuple | None = None):
        _set_cells(self, cells)
        _set_walk(self, walk)

    def _key(self) -> tuple:
        return (self.cells,)

    def __len__(self) -> int:
        return len(self.cells)

    def sorted_cells(self):
        return sorted(self.cells)


_set_cells, _set_walk = setters(Region)


def neighbors(cell: Cell):
    q, r = cell
    return ((q + dq, r + dr) for dq, dr in NEIGHBOR_OFFSETS)


def is_edge_connected(cells) -> bool:
    cells = set(cells)
    if not cells:
        return True
    start = min(cells)
    seen = {start}
    stack = [start]
    while stack:
        for n in neighbors(stack.pop()):
            if n in cells and n not in seen:
                seen.add(n)
                stack.append(n)
    return len(seen) == len(cells)


# edge k -> (its letter, the neighbor offset across edge k + 1, the next
# edge if that neighbor is in the region, the next edge if it is not)
_WALK_STEPS = tuple((_EDGE_LETTERS[k], *NEIGHBOR_OFFSETS[(k + 1) % 6],
                     (k - 1) % 6, (k + 1) % 6) for k in range(6))


def _walk_from(cells, cell: Cell, k: int) -> tuple:
    """(edge letters, bottoms, tops) of the boundary cycle from boundary
    edge k of `cell`, region on the left: at the head of edge k the walk
    turns onto edge k + 1 of the same cell, or, if the neighbor across that
    edge is in `cells`, goes on along that neighbor's edge k - 1.  Bottoms
    and tops are the cells whose bottom edge (k = 4) and top edge (k = 1)
    the walk takes, in walk order."""
    q0, r0 = q, r = cell
    k0 = k
    letters, bottoms, tops = [], [], []
    while True:
        letter, dq, dr, inside, outside = _WALK_STEPS[k]
        letters.append(letter)
        if k == 4:
            bottoms.append((q, r))
        elif k == 1:
            tops.append((q, r))
        if (q + dq, r + dr) in cells:
            q, r, k = q + dq, r + dr, inside
        else:
            k = outside
        if k == k0 and q == q0 and r == r0:
            return "".join(letters), bottoms, tops


def _boundary_walk(cells) -> tuple:
    """(cell, k, edge letters) of the walk from edge k of `cell`, the least
    boundary edge, or a RegionError when `cells` is not one region.

    Each grid vertex has degree 3, so the boundary edges form disjoint
    simple cycles, one per piece and one per hole.  The least cell's piece
    P has an outer cycle, the boundary of P with its holes filled (F).  A
    column of F is a union of runs, each from a cell whose bottom edge is
    on that cycle up to one whose top edge is, so the sorted bottoms and
    tops pair off into F's runs.  `cells` is one region exactly when those
    runs lie in `cells` and hold len(cells) cells: then F is all of
    `cells`, so there is no other piece, and P has no hole, since a hole
    in `cells` would have joined P's piece.  If the least cell's first
    boundary edge faces a hole of P instead, the walk is that hole's
    cycle, and in each of its columns the first bottom lies above the
    first top (the cells just above and just below a run of the hole), so
    the pairing fails.  Only on failure does a flood name the fault."""
    cell = min(cells)
    k = next(k for k, n in enumerate(neighbors(cell)) if n not in cells)
    letters, bottoms, tops = _walk_from(cells, cell, k)
    bottoms.sort()
    tops.sort()
    size = 0
    for (q, lo), (top_q, hi) in zip(bottoms, tops):
        if q != top_q or lo > hi or not cells.issuperset(
                zip(repeat(q), range(lo, hi + 1))):
            break
        size += hi - lo + 1
    else:
        if size == len(cells):
            return cell, k, letters
    if not is_edge_connected(cells):
        raise RegionError("region is not edge-connected")
    raise RegionError("region is not simply connected (hole detected)")


def _bulk_cell_set(cells: list) -> frozenset | None:
    """The entries as a set of (q, r) tuples when every one is a list or
    tuple of exactly two ints and none repeats, else None.  Each check
    runs over the whole list at C speed, and the coordinate types are
    checked before anything is hashed, so nothing here can raise."""
    if not ({list, tuple}.issuperset(map(type, cells))
            and {2}.issuperset(map(len, cells))
            and {int}.issuperset(map(type, chain.from_iterable(cells)))):
        return None
    cell_set = frozenset(map(tuple, cells))
    return cell_set if len(cell_set) == len(cells) else None


def _scan_cells(cells: list) -> frozenset:
    """The entries as a set of (q, r) tuples, one index at a time: a
    RegionError names the first malformed or duplicate entry."""
    seen = set()
    for i, cell in enumerate(cells):
        if not isinstance(cell, (list, tuple)) or len(cell) != 2:
            raise RegionError(f"cell {i}: {cell!r} is not a [q, r] pair")
        for x in cell:
            if not isinstance(x, int) or isinstance(x, bool):
                raise RegionError(
                    f"cell {i}: coordinate {x!r} is not an integer")
        if tuple(cell) in seen:
            raise RegionError(f"cell {i}: {list(cell)} is a duplicate")
        seen.add(tuple(cell))
    return frozenset(seen)


def region_validate(cells, allow_empty: bool = False) -> Region:
    """A Region from (q, r) pairs of ints, rejecting a malformed or
    duplicate entry by its index, and any set that is not one region.

    The bulk check accepts a list of plain pairs at C speed; only when it
    fails does the per-index scan run, which names the first fault (or
    accepts what the bulk check leaves to it, such as int subclasses)."""
    cells = list(cells)
    cell_set = _bulk_cell_set(cells)
    if cell_set is None:
        cell_set = _scan_cells(cells)
    if not cell_set:
        if allow_empty:
            return Region(cell_set)
        raise RegionError("empty region")
    return Region(cell_set, _boundary_walk(cell_set))


class BoundaryWord(namedtuple("BoundaryWord", "start word")):
    """Closed CCW boundary: the region interior lies on the left of the
    walk, and the winding of the step Word `word` from the lattice point
    `start` is +1 exactly on the region's cells."""

    __slots__ = ()


def region_boundary_word(region: Region) -> BoundaryWord:
    """Extract the CCW boundary as a step word.

    The walk starts at the lexicographically least boundary edge, keyed by
    (cell, edge index); it is aligned to begin at a shaded vertex before
    step letters are read off, and the written word is the reversed walk.
    """
    cells = region.cells
    if not cells:
        raise RegionError("empty region has no boundary word")
    cell, k, letters = region.walk or _boundary_walk(cells)
    if k % 2 == 0:  # corner k of a cell is shaded exactly when k is odd
        k += 1
        letters = letters[1:] + letters[:1]
    start = plane_to_lattice(cell_vertices_plane(cell)[k])
    return BoundaryWord(start, step_word(edges_to_steps(letters[::-1])))


def grow_random_region(rng, n_cells: int) -> Region:
    """Random simply connected region grown by boundary accretion, drawing
    from rng, a random.Random.

    Each step adds a random frontier cell whose neighbours in the region
    form one arc of its ring, so the Euler characteristic stays 1 (see
    ring_arcs): the region stays connected and gains no hole."""
    check_size("n_cells", n_cells, 1)
    cells = {(0, 0)}
    fits = sorted(neighbors((0, 0)))  # such frontier cells, kept sorted
    while len(cells) < n_cells:
        cell = fits.pop(rng.randrange(len(fits)))
        cells.add(cell)
        for n in neighbors(cell):  # only their rings changed
            i = bisect_left(fits, n)
            listed = i < len(fits) and fits[i] == n
            if n not in cells and ring_arcs(n, cells) == 1:
                if not listed:
                    fits.insert(i, n)
            elif listed:
                del fits[i]
    return Region(frozenset(cells))


def ring_arcs(cell, cells) -> int:
    """Number of runs of `cells` around the ring of `cell`.

    Two hexagons meet only along an edge, and three only at a corner they
    share, so the Euler characteristic of a union of cells is cells -
    adjacent pairs + mutually adjacent triples.  Adding `cell` to `cells`,
    which lacks it, adds one cell, k pairs and k - arcs triples for its k
    neighbours in `cells` (a full ring counts as no run), so it changes
    that characteristic by 1 - arcs."""
    ring = [n in cells for n in neighbors(cell)]
    return sum(a and not b for a, b in zip(ring, ring[1:] + ring[:1]))


# --- region file formats ---------------------------------------------------

def region_from_json(text: str, allow_empty: bool = False) -> Region:
    try:
        data = json.loads(text)
    except RecursionError as e:  # arrays nested past the parser's stack
        raise RegionError(f"JSON nested too deep to read: {e}") from e
    if not isinstance(data, dict) or not isinstance(data.get("cells"), list):
        raise RegionError('region JSON must be {"cells": [[q, r], ...]}')
    return region_validate(data["cells"], allow_empty)


def region_from_ascii(text: str, allow_empty: bool = False) -> Region:
    """Rows of '#' (cell) and '.' (empty): column j, row k maps to
    q = j, r = -k - (j + (j % 2)) // 2, so odd columns sit a half-step
    lower than their even neighbors."""
    cells = []
    for k, line in enumerate(text.splitlines()):
        for j, ch in enumerate(line):
            if ch == "#":
                cells.append((j, -k - (j + (j % 2)) // 2))
            elif ch not in ". \t":
                raise RegionError(
                    f"unexpected character {ch!r} at row {k}, column {j}")
    return region_validate(cells, allow_empty)
