"""Stone/bone/snake tiles: catalog, signed-tiling lattice oracle, exact
cover, the boundary obstruction and boundary-constructible sequences.

A signed tiling assigns each placed tile a weight of +1 or -1 so that the
net coverage is 1 on the region and 0 elsewhere.  Tiles may stick out of
the region, which makes the search space unbounded in principle; the
solver therefore works inside the region padded by a configurable margin
and reports failure as window-relative, never as a global impossibility.
A region whose boundary class is Other has no signed tiling anywhere, so
it is answered from its boundary word alone, before any placement.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice, repeat
from operator import and_, itemgetter, or_

from . import fixtures
from .cyclo import PMClass
from .hexgrid import (NEIGHBOR_OFFSETS, Region, left_cells, neighbors,
                      region_boundary_word, region_validate, ring_arcs)
from .words import check_size, classify_pm, eval_word, step_word

KINDS = ("bone", "stone", "snake")


class TileShape(namedtuple("TileShape", "kind orientation index cells "
                                        "offsets boundary_word")):
    """index is the position in catalog order; cells the frozenset of cell
    offsets that the step Word boundary_word encloses at the origin, and
    offsets the same, sorted, with (0, 0) one of them."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"{self.kind}_{self.orientation}"


def _build_catalog() -> tuple:
    # every cell of a tile has a boundary edge, so lies left of its word
    shapes = []
    for i, (name, letters) in enumerate(fixtures.TILE_WORDS.items()):
        kind, orientation = name.split("_", 1)
        word = step_word(letters)
        cells = left_cells(word)
        walked = region_boundary_word(region_validate(cells)).word.letters
        assert len(walked) == len(letters) and walked in letters * 2, name
        assert (0, 0) in cells and len(cells) in (3, 4), name
        # colour (q, r) by (q - r) mod 3: the three counts' parities agree
        assert len({sum((q - r) % 3 == k for q, r in cells) % 2
                    for k in range(3)}) == 1, name
        shapes.append(TileShape(kind, orientation, i, cells,
                                tuple(sorted(cells)), word))
    return tuple(shapes)


_CATALOG = _build_catalog()
_BY_NAME = {s.name: s for s in _CATALOG}


def tile_catalog() -> tuple:
    """The 11 shapes: 3 bones, 2 stones, 6 snakes, in fixed order."""
    return _CATALOG


def tile_shape(kind: str, orientation: str) -> TileShape:
    try:
        return _BY_NAME[f"{kind}_{orientation}"]
    except KeyError:
        raise ValueError(f"unknown tile {kind}_{orientation}") from None


class Placement(namedtuple("Placement", "shape anchor")):
    __slots__ = ()

    def cells(self) -> frozenset:
        aq, ar = self.anchor
        return frozenset((q + aq, r + ar) for q, r in self.shape.cells)

    def to_json(self) -> dict:
        return {"kind": self.shape.kind, "orientation": self.shape.orientation,
                "anchor": list(self.anchor)}


def _field(obj: dict, name: str):
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f"missing field {name!r}") from None


def placement_from_json(obj: dict) -> Placement:
    """A placement from {"kind", "orientation", "anchor": [q, r]}; the
    anchor must be a pair of integers, not booleans or floats."""
    if not isinstance(obj, dict):
        raise ValueError(f"{obj!r} is not an object")
    anchor = _field(obj, "anchor")
    if (not isinstance(anchor, (list, tuple)) or len(anchor) != 2
            or any(type(x) is not int for x in anchor)):
        raise ValueError(f"anchor {anchor!r} is not a pair of integers")
    return Placement(tile_shape(_field(obj, "kind"),
                                _field(obj, "orientation")), tuple(anchor))


def _tile_kinds(kinds) -> tuple:
    """The kinds as a tuple of names from KINDS.  A string is refused,
    since `in` would match its substrings."""
    if isinstance(kinds, str):
        raise ValueError(f"kinds must be a collection of names, "
                         f"not the string {kinds!r}")
    kinds = tuple(kinds)
    for k in kinds:
        if k not in KINDS:
            raise ValueError(f"unknown tile kind {k!r}")
    return kinds


def pad_window(cells, padding: int) -> frozenset:
    """The cells and every cell within `padding` neighbour steps of them.
    Each step expands only the ring the step before added, since the
    neighbours of the cells inside it are in the window already."""
    check_size("padding", padding, 0)
    window = set(cells)
    ring = window
    for _ in range(padding):
        ring = {c for q, r in ring
                for c in ((q + 1, r), (q, r + 1), (q - 1, r + 1),
                          (q - 1, r), (q, r - 1), (q + 1, r - 1))} - window
        window |= ring
    return frozenset(window)


_STAY = len(NEIGHBOR_OFFSETS)  # a step that stays put, to pad a walk


def _neighbour_walk(offsets: tuple) -> tuple:
    """A shortest walk of neighbour steps from the anchor that visits
    every cell of the shape, from a breadth-first search over the states
    (walk's last cell, cells visited).  Returns the walk's directions,
    padded with _STAY to four, and a getter that picks each offset's
    first visit out of the walk's cells, in offset order."""
    queue, seen = [((0, 0),)], set()
    for walk in queue:
        visited = frozenset(walk)
        if len(visited) == len(offsets):
            break
        q, r = walk[-1]
        for dq, dr in NEIGHBOR_OFFSETS:
            cell = (q + dq, r + dr)
            state = cell, visited | {cell}
            if cell in offsets and state not in seen:
                seen.add(state)
                queue.append(walk + (cell,))
    assert set(walk) == set(offsets), offsets  # every tile is connected
    steps = [NEIGHBOR_OFFSETS.index((bq - aq, br - ar))
             for (aq, ar), (bq, br) in zip(walk, walk[1:])]
    assert len(steps) <= 4, offsets
    return (*steps, *[_STAY] * (4 - len(steps))), \
        itemgetter(*map(walk.index, offsets))


_WALKS = tuple(_neighbour_walk(s.offsets) for s in _CATALOG)


def _placement_builder(cells, kinds=KINDS) -> tuple:
    """The placement table of the selected kinds in `cells`, built as it
    is read, as (sorted cells, their numbers by cell, step, shapes).
    step(k) is the neighbour list for direction k: the number of each
    cell's neighbour that way, or n where it has none, with n at n; each
    list is built when it is first asked for.  shapes yields (shape,
    anchor numbers, rows) one shape at a time, in catalog order and
    anchor order, and builds no shape before it is asked for; a row holds
    a placement's cell numbers in offset order.  A shape's walk is
    followed by integer list indexing, no tuple hashed, and fits where no
    step comes out n.  An unknown kind, or a string, raises ValueError."""
    kinds = _tile_kinds(kinds)
    order = sorted(set(cells))
    n = len(order)
    index = dict(zip(order, range(n)))
    lists = {_STAY: list(range(n + 1))}  # direction -> neighbour numbers

    def step(k: int) -> list:
        if k not in lists:
            dq, dr = NEIGHBOR_OFFSETS[k]
            lists[k] = [index.get((q + dq, r + dr), n)
                        for q, r in order] + [n]
        return lists[k]

    def shapes():
        for shape in _CATALOG:
            if shape.kind in kinds:
                directions, pick = _WALKS[shape.index]
                a, b, c, d = map(step, directions)
                fit = [(i, w, x, y, z) for i in range(n)
                       if (w := a[i]) != n and (x := b[w]) != n
                       and (y := c[x]) != n and (z := d[y]) != n]
                yield shape, [t[0] for t in fit], list(map(pick, fit))

    return order, index, step, shapes()


def _placement_table(cells, kinds=KINDS) -> tuple:
    """The placements of the selected kinds lying entirely inside `cells`,
    as (sorted cells, [(shape, anchor)], rows), where a placement's row
    holds its cells' numbers in the sorted cells, in offset order.  The
    placements come in (catalog, anchor) order.  An unknown kind, or a
    string, raises ValueError.
    """
    order, _, _, shapes = _placement_builder(cells, kinds)
    placements, rows = [], []
    for shape, anchors, shape_rows in shapes:
        placements += zip(repeat(shape), map(order.__getitem__, anchors))
        rows += shape_rows
    return order, placements, rows


def enumerate_placements(window, kinds=KINDS) -> list:
    """All placements of the selected kinds lying entirely inside the
    window, in deterministic (catalog, anchor) order, as `Placement`s read
    from the placement table.  An unknown kind, or a string, raises
    ValueError."""
    return [Placement(*p) for p in _placement_table(window, kinds)[1]]


class SignedTiling(namedtuple("SignedTiling", "entries")):
    """Multiset of placements with unit +-1 coefficients: entries is a
    tuple of (Placement, coeff)."""

    __slots__ = ()

    def to_json(self) -> list:
        return [{**p.to_json(), "coeff": c} for p, c in self.entries]

    @classmethod
    def from_json(cls, data) -> "SignedTiling":
        """Strict: a list of placement objects, each with a "coeff" of 1
        or -1; the first bad entry is named by its index."""
        if not isinstance(data, list):
            raise ValueError("a tiling must be a list of placements")
        entries = []
        for i, e in enumerate(data):
            try:
                placement, coeff = placement_from_json(e), _field(e, "coeff")
                if type(coeff) is not int or coeff not in (1, -1):
                    raise ValueError(f"coeff {coeff!r} is not 1 or -1")
            except ValueError as err:
                raise ValueError(f"entry {i}: {err}") from err
            entries.append((placement, coeff))
        return cls(tuple(entries))

    def net_coverage(self) -> dict:
        cov = {}
        for placement, coeff in self.entries:
            for cell in placement.cells():
                cov[cell] = cov.get(cell, 0) + coeff
        return cov


def signed_tiling_verify(region: Region, tiling: SignedTiling):
    """None if the net coverage is exactly the region indicator, else the
    first offending (cell, net_coefficient) in sorted cell order."""
    cov = tiling.net_coverage()
    for cell in sorted(set(cov) | set(region.cells)):
        want = 1 if cell in region.cells else 0
        got = cov.get(cell, 0)
        if got != want:
            return (cell, got)
    return None


def _subtract(row: dict, q: int, base: dict) -> None:
    """row -= q * base for sparse integer rows, dropping the zeros made."""
    for k, b in base.items():
        v = row.get(k, 0) - q * b
        if v:
            row[k] = v
        else:
            del row[k]


def _bone_back(bone: TileShape) -> int:
    """The number of direction -d, for the bone's axis d: the difference
    of its first two offsets, (1, 0), (0, 1) or (1, -1), each a step to
    a later cell in sorted order."""
    (aq, ar), (bq, br) = bone.offsets[:2]
    return NEIGHBOR_OFFSETS.index((aq - bq, ar - br))


_BONE_BACKS = tuple((s.index, _bone_back(s)) for s in _CATALOG
                    if s.kind == "bone")

# A 6-cell triangle is a stone and a bone in three ways, one bone per
# side, so a stone at one corner and its translate at another differ by
# two bones: s(b) + B2 = s(b - t) + B1, both sides the triangle.  Each
# entry: the stone, t, then B1 and B2, each with its anchor less b; b - t
# is an earlier anchor.
_TRIANGLES = (
    ("stone_left", (0, 1), ("bone_right", (-2, 1)), ("bone_left", (0, -1))),
    ("stone_left", (1, -1), ("bone_vertical", (0, 0)),
     ("bone_right", (-2, 2))),
    ("stone_left", (1, 0), ("bone_vertical", (0, -1)),
     ("bone_left", (0, -1))),
    ("stone_right", (0, 1), ("bone_left", (1, -1)),
     ("bone_right", (-1, -1))),
    ("stone_right", (1, -1), ("bone_right", (-2, 0)),
     ("bone_vertical", (-2, 0))),
    ("stone_right", (1, 0), ("bone_left", (0, 0)),
     ("bone_vertical", (-2, 0))),
)


def _triangle_side(stone: str, t: tuple, b1: tuple, b2: tuple) -> tuple:
    """B2, the bone that completes the stone's triangle, as (i, j, k): the
    bone's catalog index, and its anchor as a step in direction k from
    the stone's j-th offset.  Asserts the identity as cell multisets."""
    def cells(name, anchor):
        return [*Placement(_BY_NAME[name], anchor).cells()]

    triangle = sorted(cells(stone, (0, 0)) + cells(*b2))
    assert len(set(triangle)) == 6, stone
    assert triangle == sorted(cells(stone, (-t[0], -t[1])) + cells(*b1)), stone
    name, (aq, ar) = b2
    return next((_BY_NAME[name].index, j, k)
                for j, (q, r) in enumerate(_BY_NAME[stone].offsets)
                for k, (dq, dr) in enumerate(NEIGHBOR_OFFSETS)
                if (q + dq, r + dr) == (aq, ar))


# by catalog index; a triangle with two earlier corners is listed once
_SIDES = tuple(tuple(dict.fromkeys(_triangle_side(*e) for e in _TRIANGLES
                                   if e[0] == s.name)) for s in _CATALOG)


def _identity_flags(step, shapes):
    """The builder's shapes as (shape, anchors, rows, spanned), where
    `spanned` says for each row whether an identity of IntegerLattice puts
    it in the lattice of the rows before it.  An identity applies once its
    bone has been built, so both need bones.

    The bone identity holds for shape s at anchor b when, for the axis d
    of a bone built before s, s also fits at b - d and b - 2d; the two
    anchors' numbers are read off the neighbour list for -d.  The
    triangle identity holds for a stone when the bone B2 that completes
    one of its triangles fits; B2's anchor is a neighbour of one of the
    row's cells.  Both are read a whole shape at a time by `map`, over
    integer lists."""
    fitting = {}  # catalog index -> whether the built shape fits at a number
    for shape, anchors, rows in shapes:
        fits = set(anchors).__contains__
        flags = [False] * len(rows)
        for i, k in _BONE_BACKS:
            if i in fitting:
                back = step(k).__getitem__
                behind = list(map(back, anchors))  # b - d, then b - 2d
                both = map(and_, map(fits, behind),
                           map(fits, map(back, behind)))
                flags = list(map(or_, flags, both))
        for i, j, k in _SIDES[shape.index]:
            if i in fitting:
                b2 = map(step(k).__getitem__, map(itemgetter(j), rows))
                flags = list(map(or_, flags, map(fitting[i], b2)))
        fitting[shape.index] = fits
        yield shape, anchors, rows, flags


class IntegerLattice:
    """Row lattice of placement indicator vectors, in echelon form.

    It reads the placement table of the window from `_placement_builder`
    a shape at a time, in (catalog, anchor) order: `cells` in sorted order
    and each placement's row of cell numbers 0..m-1, so each placement is
    one sparse row with no cell set built.  The rows are inserted one at
    a time into a basis that maps a leading column to (row, placement).
    At its leading column a row takes q times the basis row off; if a
    remainder is left there, the row takes the pivot and the former basis
    row carries on being reduced, as in Euclid.  Each row operation is
    appended to one flat log instead of being applied to a transform, as
    (i, q, b): placement i's row -= q * placement b's row.  A negation,
    of a row that lands on a free column with a negative lead, is
    (i, 2, i).  A row's operations are logged only once it holds a pivot:
    a row reduced to zero is never a basis row again, so the backward
    replay reaches its later operations with its coefficient still 0,
    and they are dropped.

    Colour cell (q, r) by (q - r) mod 3: every tile covers the three
    colours with equal parity, so the window lattice lies inside the
    vectors whose colour sums have equal parity, which have index 4 in
    Z^m when the window holds two or more colours and 2 when it holds
    one.  The basis lattice lies inside the window lattice, so once its
    rank is m and its pivots multiply to that index all three are equal.
    Every later row then reduces to zero without taking a pivot, and the
    insertion stops there, with the basis, and so every certificate, that
    inserting all rows would give.  No shape after the one it stops in is
    built.  `rows_used` counts the rows read, and `placements` holds
    their (shape, anchor), in the order of every solution.  Kind sets
    without snakes, snakes alone and tiny windows never reach the index
    and read every row.

    Most rows are not reduced at all, by two tiling identities in the
    spirit of Conway-Lagarias.  Three translates of a shape s along a
    bone's axis d, where the bone covers c, c + d and c + 2d, cover what
    the bones along d at the first translate's cells cover:

        s(b - 2d) + s(b - d) + s(b) = sum of bone_d(c), c in s(b - 2d).

    Each of those bones lies in the window, since its cells are cells of
    the three translates.  When bone_d comes before s in the catalog and
    s(b - d) and s(b - 2d) are placements, every other term is an earlier
    row, since b - d and b - 2d are earlier anchors.  And a 6-cell
    triangle is a stone plus a bone in three ways, one bone per side, so
    a stone at b and its translate at another corner of the triangle,
    an earlier anchor b - t, differ by two bones:

        s(b) = s(b - t) + B1 - B2.

    When the triangle lies in the window all four are placements, and the
    bones are earlier rows, since bones come before stones.  Either way
    row s(b) lies in the lattice of the rows before it, which the basis
    spans.  Its reduction would take an exact multiple off at each
    leading column and end at zero, with no remainder, no pivot and no
    logged operation, so skipping it leaves the basis, the log, the pivot
    product and every certificate as they were.  `_identity_flags` flags
    those rows; a skipped row still counts in `rows_used`, and in
    `rows_skipped`.  The rows left to reduce number about the window's
    cells.

    Targets are integer vectors over the window cells; membership comes
    from forward substitution along the basis in column order, and a
    particular solution from replaying the log backwards on the pivot
    coefficients.  Exact big-integer arithmetic throughout.  An unknown
    kind, or a string, raises ValueError.
    """

    def __init__(self, window, kinds=KINDS):
        cells, numbers, step, shapes = _placement_builder(window, kinds)
        self.cells, self._cell_index = cells, numbers
        m = len(cells)
        index = 1 << min(len({(q - r) % 3 for q, r in cells}), 2)
        basis = {}  # leading column -> (row, placement)
        log = []
        det = 1  # the product of the pivots
        placements = []
        used = skipped = 0
        for shape, anchors, rows, spanned in _identity_flags(step, shapes):
            first = used
            for t, flag in zip(rows, spanned):
                if len(basis) == m and det == index:
                    break
                i = used
                used += 1
                if flag:
                    skipped += 1
                    continue
                row = dict.fromkeys(t, 1)
                ops = []  # the row's operations since it last held a pivot
                while row:
                    col = min(row)
                    if col not in basis:
                        if row[col] < 0:
                            row = {k: -a for k, a in row.items()}
                            ops.append((i, 2, i))
                        basis[col] = row, i
                        det *= row[col]
                        log += ops
                        break
                    base, b = basis[col]
                    q = row[col] // base[col]
                    if q:
                        _subtract(row, q, base)
                        ops.append((i, q, b))
                    if col in row:  # a remainder: the row takes the pivot
                        det = det // base[col] * row[col]
                        basis[col] = row, i
                        log += ops
                        row, i, ops = base, b, []
            placements += zip(repeat(shape),
                              map(cells.__getitem__, anchors[:used - first]))
            if len(basis) == m and det == index:
                break  # before the next shape is built
        self._basis = [(c, *basis[c]) for c in sorted(basis)]
        self._log = log
        self._n_placements = used  # the length of every solution
        self.placements = placements
        self.rows_used = used
        self.rows_skipped = skipped

    def solve(self, target: dict):
        """Integer coefficients x with sum x_i * placement_i = target, or
        None if the target is outside the lattice (window-relative).

        Forward substitution writes the target as sum y_k * row_k over
        the basis rows, each named by its placement k; as row_k =
        sum_j T[k][j] * placement_j for the logged operations' product T,
        x is T transposed times y, which the log read backwards builds one
        operation at a time.
        """
        index = self._cell_index
        if any(v and c not in index for c, v in target.items()):
            return None
        resid = {index[c]: v for c, v in target.items() if v}
        y = [0] * self._n_placements
        for col, row, k in self._basis:
            if col not in resid:
                continue
            if resid[col] % row[col]:
                return None
            y[k] = t = resid[col] // row[col]
            _subtract(resid, t, row)
        if resid:
            return None
        for i, q, b in reversed(self._log):
            if y[i]:
                y[b] -= q * y[i]
        return y


def solve_cell_target(target: dict, kinds=KINDS, window=None,
                      padding: int = 2):
    """Signed tiling with the given net coverage, or None (window-relative).

    The low-level entry point: `target` may be any integer-valued cell map,
    not necessarily a valid region indicator, so no boundary test is made.
    Every value must be an int; any other, a bool or a float included,
    raises ValueError naming its cell.  A `Placement` is made only for a
    non-zero coefficient.
    """
    for cell, v in target.items():
        if type(v) is not int:
            raise ValueError(f"cell {cell!r}: value {v!r} is not an integer")
    if window is None:
        window = pad_window([c for c, v in target.items() if v], padding)
    lattice = IntegerLattice(window, kinds)
    x = lattice.solve(target)
    if x is None:
        return None
    entries = []
    for p, coeff in zip(lattice.placements, x):
        if coeff:
            placement, sign = Placement(*p), 1 if coeff > 0 else -1
            entries.extend((placement, sign) for _ in range(abs(coeff)))
    return SignedTiling(tuple(entries))


def signed_tiling_solve(region: Region, kinds=KINDS, padding: int = 2):
    """A verified signed tiling of the region using only the given kinds,
    with placements restricted to the region padded by `padding`; None
    means no solution exists in that window (not a global impossibility).
    A boundary class of Other rules out every signed tiling in the plane,
    so such a region is answered None before any placement is made.
    An unknown kind, or a string, raises ValueError before that."""
    kinds = _tile_kinds(kinds)
    check_size("padding", padding, 0)
    if not region.cells:
        return SignedTiling(())
    if boundary_obstruction_check(region) is PMClass.OTHER:
        return None
    target = {c: 1 for c in region.cells}
    tiling = solve_cell_target(target, kinds,
                               pad_window(region.cells, padding))
    bad = None if tiling is None else signed_tiling_verify(region, tiling)
    if bad is not None:  # raised, not asserted, so that -O keeps the check
        raise AssertionError("the signed tiling found does not tile the "
                             f"region: cell {list(bad[0])} has net "
                             f"coverage {bad[1]}")
    return tiling


class TilingCount(namedtuple("TilingCount", "count cap_exceeded")):
    __slots__ = ()


def _exact_covers(n: int, tiles):
    """Yield each exact cover of the cells 0..n-1 by `tiles`, the rows of
    a placement table of those cells, as a list of tile numbers in the
    order chosen.  Depth first on an explicit stack: each level takes the
    uncovered cell with the fewest fitting candidates, ties by cell
    order, and tries them in placement order.

    The counts are kept as in Knuth's dancing links: `dead[p]` is the
    number of covered cells of placement p, and `live[c]` the number of
    candidates of cell c with no covered cell.  Taking or returning a
    tile updates only the placements that meet it, so a step costs the
    same however large the region is.  The choice comes from a heap in
    which an entry (l, c) is a lower bound, live[c] >= l; the least entry
    of each uncovered cell is one.  A count that falls is pushed, one
    that rises needs no push, and a returned tile pushes its own cells.
    An entry on top whose bound is below the count is replaced by the
    count, so the top, once current, is the least (live, cell) of all.
    """
    cands = [[] for _ in range(n)]  # cell -> placements, in their order
    for i, t in enumerate(tiles):
        for c in t:
            cands[c].append(i)
    live = [len(cs) for cs in cands]
    dead = [0] * len(tiles)
    covered = [False] * n
    heap = sorted(zip(live, range(n)))  # a sorted list is a heap
    remaining = n
    chosen = []  # the placement taken at each level
    levels = []  # the fitting candidates of each level's cell, lazily
    while True:
        if remaining:
            if len(heap) > 2 * n:  # drop the stale entries in one pass
                heap = [(live[c], c) for c in range(n) if not covered[c]]
                heapify(heap)
            while True:
                low, cell = heap[0]
                if covered[cell]:
                    heappop(heap)
                elif live[cell] != low:
                    heapreplace(heap, (live[cell], cell))
                else:
                    break
            levels.append(p for p in cands[cell] if not dead[p])
        else:
            yield list(chosen)
        while levels:  # take the next candidate, backtracking
            if len(chosen) == len(levels):  # return the level's tile
                tile = tiles[chosen.pop()]
                remaining += len(tile)
                for c in tile:
                    covered[c] = False
                for c in tile:
                    for p in cands[c]:
                        dead[p] -= 1
                        if not dead[p]:
                            for d in tiles[p]:
                                live[d] += 1
                for c in tile:
                    heappush(heap, (live[c], c))
            nxt = next(levels[-1], None)
            if nxt is not None:
                chosen.append(nxt)
                tile = tiles[nxt]
                remaining -= len(tile)
                for c in tile:
                    covered[c] = True
                for c in tile:
                    for p in cands[c]:
                        dead[p] += 1
                        if dead[p] == 1:
                            for d in tiles[p]:
                                live[d] -= 1
                                if not covered[d]:
                                    heappush(heap, (live[d], d))
                break
            levels.pop()
        else:
            return


def standard_tiling_solve(region: Region, kinds=KINDS, mode: str = "first",
                          cap: int = 10 ** 6):
    """Exact cover of the region by non-overlapping tiles inside it.

    mode "first": a placement list, or None.
    mode "count": TilingCount; exact when cap is not exceeded.
    The empty region has one cover, the empty one.  Covers come in a
    fixed order: fewest fitting candidates first, ties by cell order,
    candidates in placement order.  The search is iterative, so its depth
    is not limited by the recursion limit, and it keeps its candidate
    counts live, so a bar of n bones takes time linear in n.
    A tiling's boundary value is the product of its tiles' signs, so a
    region whose class is Other, or -I when stones are excluded, has no
    cover and is answered before any placement is made.  An unknown
    kind, or a string, raises ValueError before that.
    """
    kinds = _tile_kinds(kinds)
    if mode not in ("first", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    check_size("cap", cap, 0)
    if region.cells:
        klass = boundary_obstruction_check(region)
        if klass is PMClass.OTHER or (klass is PMClass.MINUS_IDENTITY
                                      and "stone" not in kinds):
            return None if mode == "first" else TilingCount(0, False)
    cells, placements, rows = _placement_table(region.cells, kinds)
    covers = _exact_covers(len(cells), rows)
    if mode == "first":
        cover = next(covers, None)
        return None if cover is None else [Placement(*placements[i])
                                           for i in cover]
    found = sum(1 for _ in islice(covers, cap + 1))
    return TilingCount(min(found, cap), found > cap)


def boundary_obstruction_check(region: Region) -> PMClass:
    """The necessary condition: a signed-tilable region's boundary word
    must evaluate to +I or -I; Other means obstructed."""
    return classify_pm(eval_word(region_boundary_word(region).word))


class ConstructionStep(namedtuple("ConstructionStep", "action placement")):
    __slots__ = ()  # action is "add" or "remove"


def construction_step_from_json(obj: dict) -> ConstructionStep:
    placement = placement_from_json(obj)
    action = _field(obj, "action")
    if action not in ("add", "remove"):
        raise ValueError(f"bad action {action!r}")
    return ConstructionStep(action, placement)


class StepRecord(namedtuple("StepRecord", "index action kind support_size "
                                          "boundary_class ledger_sign "
                                          "agrees")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"index": self.index, "action": self.action, "kind": self.kind,
                "support_size": self.support_size,
                "class": self.boundary_class.value,
                "ledger_sign": self.ledger_sign, "agrees": self.agrees}


class SequenceReport(namedtuple("SequenceReport", "valid violation_index "
                                                  "violation_reason records")):
    __slots__ = ()

    def to_json(self) -> dict:
        out = {"valid": self.valid,
               "steps": [r.to_json() for r in self.records]}
        if not self.valid:
            out["violation_index"] = self.violation_index
            out["violation_reason"] = self.violation_reason
        return out


def constructible_sequence_check(steps) -> SequenceReport:
    """Simulate adding/removing tiles along the boundary.

    After every step the coverage must stay 0/1 everywhere, the support
    must remain edge-connected and simply connected, and the tile must
    touch the support boundary (first step exempt).  A touching add keeps
    the support connected, and a remove touching its connected complement
    makes no hole, so a non-empty support is a region exactly when its
    Euler characteristic, kept cell by cell with ring_arcs, is 1.  Each
    step's class is the stone-parity ledger (-1)^(#stone steps so far),
    and agrees by a theorem: a tile's boundary value is +-I, which is
    central, so gluing it on along one arc, or cutting it off, multiplies
    the support's value by it.  No region is walked or evaluated.
    """
    support = set()
    chi = 0  # cells - adjacent pairs + mutually adjacent triples
    stone_steps = 0
    records = []

    def fail(i, reason):
        return SequenceReport(False, i, reason, tuple(records))

    for i, step in enumerate(steps):
        cells = step.placement.cells()
        kind = step.placement.shape.kind
        if step.action == "add":
            if cells & support:
                return fail(i, "coverage conflict")
            if support and not any(n in support for c in cells
                                   for n in neighbors(c)):
                return fail(i, "interior placement")
            for c in cells:
                chi += 1 - ring_arcs(c, support)
                support.add(c)
        elif step.action == "remove":
            if not cells <= support:
                return fail(i, "coverage conflict")
            if not any(n not in support for c in cells for n in neighbors(c)):
                return fail(i, "interior placement")
            for c in cells:
                support.remove(c)
                chi -= 1 - ring_arcs(c, support)
        else:
            raise ValueError(f"bad action {step.action!r}")
        if support and chi != 1:
            return fail(i, "puncture" if step.action == "add"
                        else "disconnected")
        if kind == "stone":
            stone_steps += 1
        sign = -1 if stone_steps % 2 else 1
        klass = PMClass.MINUS_IDENTITY if sign < 0 else PMClass.PLUS_IDENTITY
        records.append(StepRecord(i, step.action, kind, len(support),
                                  klass, sign, True))
    return SequenceReport(True, None, None, tuple(records))


class StoneProbe(namedtuple("StoneProbe", "stones boundary_class "
                                          "parity_consistent")):
    """Window-relative minimum-stone probe, stopping at one stone.

    stones: 0, 1, or None for "at least 2 or unknown in this window".
    parity_consistent compares the probe parity against the boundary
    class; it is reported, never asserted, because the lattice oracle is
    weaker than boundary-constructibility.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"stones": self.stones if self.stones is not None
                else "AtLeast2OrUnknown",
                "boundary_class": self.boundary_class.value,
                "parity_consistent": self.parity_consistent}


def min_stone_probe(region: Region, padding: int = 2) -> StoneProbe:
    check_size("padding", padding, 0)
    klass = boundary_obstruction_check(region)
    if klass is PMClass.OTHER:  # no signed tiling, with stones or without
        return StoneProbe(None, klass, None)
    window = pad_window(region.cells, padding)
    lattice = IntegerLattice(window, ("bone", "snake"))
    target = {c: 1 for c in region.cells}
    if lattice.solve(target) is not None:
        return StoneProbe(0, klass, klass is PMClass.PLUS_IDENTITY)
    cells, _, stones = _placement_table(window, ("stone",))
    for t in stones:
        for sign in (1, -1):
            shifted = dict(target)
            for i in t:
                shifted[cells[i]] = shifted.get(cells[i], 0) - sign
            if lattice.solve(shifted) is not None:
                return StoneProbe(1, klass, klass is PMClass.MINUS_IDENTITY)
    return StoneProbe(None, klass, None)
