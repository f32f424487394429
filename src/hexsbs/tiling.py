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

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice

from . import fixtures
from .cyclo import PMClass
from .hexgrid import (Region, left_cells, neighbors, region_boundary_word,
                      region_validate, ring_arcs)
from .words import Word, check_size, classify_pm, eval_word, step_word

KINDS = ("bone", "stone", "snake")


@dataclass(frozen=True)
class TileShape:
    kind: str
    orientation: str
    index: int  # position in catalog order
    cells: frozenset  # cell offsets enclosed by boundary_word at the origin
    offsets: tuple  # the same offsets, sorted; (0, 0) is one of them
    boundary_word: Word

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


@dataclass(frozen=True)
class Placement:
    shape: TileShape
    anchor: tuple

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
    check_size("padding", padding, 0)
    window = set(cells)
    for _ in range(padding):
        window |= {n for c in window for n in neighbors(c)}
    return frozenset(window)


def enumerate_placements(window, kinds=KINDS) -> list:
    """All placements of the selected kinds lying entirely inside the
    window, in deterministic (catalog, anchor) order.

    Every shape holds the offset (0, 0), so every anchor is a window
    cell: one pass over the sorted window per shape keeps each cell that
    puts the shape's other offsets on the window too.  The 3- and 4-cell
    tests are written out: a generic all() over the offsets took more
    than twice as long.  An unknown kind, or a string, raises ValueError.
    """
    kinds = _tile_kinds(kinds)
    window = frozenset(window)
    order = sorted(window)
    out = []
    for shape in _CATALOG:
        if shape.kind not in kinds:
            continue
        (aq, ar), (bq, br), *rest = [o for o in shape.offsets if o != (0, 0)]
        if rest:
            (cq, cr), = rest
            out.extend(Placement(shape, (q, r)) for q, r in order
                       if (q + aq, r + ar) in window
                       and (q + bq, r + br) in window
                       and (q + cq, r + cr) in window)
        else:
            out.extend(Placement(shape, (q, r)) for q, r in order
                       if (q + aq, r + ar) in window
                       and (q + bq, r + br) in window)
    return out


@dataclass(frozen=True)
class SignedTiling:
    """Multiset of placements with unit +-1 coefficients."""

    entries: tuple  # of (Placement, coeff)

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


def _tile_indices(placements, index: dict) -> list:
    """Each placement's cells as their numbers in `index`, read from the
    anchor plus the shape's offsets, in offset order."""
    out = []
    for p in placements:
        aq, ar = p.anchor
        out.append([index[q + aq, r + ar] for q, r in p.shape.offsets])
    return out


def _subtract(row: dict, q: int, base: dict) -> None:
    """row -= q * base for sparse integer rows, dropping the zeros made."""
    for k, b in base.items():
        v = row.get(k, 0) - q * b
        if v:
            row[k] = v
        else:
            del row[k]


class IntegerLattice:
    """Row lattice of placement indicator vectors, in Hermite normal form.

    Each placement is one sparse row over the window cells, keyed 0..m-1
    in sorted cell order and read from its anchor plus its shape's
    offsets, with no cell set built.  A row keeps the name of the
    placement it started as, in `_ids`, while swaps move it.  The rows
    are reduced by integer row operations, and each is appended to one
    flat log instead of being applied to a transform, as (i, q, b):
    placement i's row -= q * placement b's row.  A swap logs nothing, and
    a negation is (i, 2, i).  Targets are integer vectors over the window
    cells; membership comes from forward substitution along the HNF rows,
    and a particular solution from replaying the log backwards on the
    pivot coefficients.  Exact big-integer arithmetic throughout.
    """

    def __init__(self, placements, window):
        self.placements = list(placements)
        self.cells = sorted(window)
        self._cell_index = {c: i for i, c in enumerate(self.cells)}
        n, m = len(self.placements), len(self.cells)
        rows = [dict.fromkeys(t, 1)
                for t in _tile_indices(self.placements, self._cell_index)]
        ids = list(range(n))
        log = []
        pivots = []
        piv = 0
        for col in range(m):
            if piv == n:
                break
            # gcd-eliminate column entries below the pivot row
            nz = [i for i in range(piv, n) if col in rows[i]]
            if not nz:
                continue
            while len(nz) > 1:
                nz.sort(key=lambda i: abs(rows[i][col]))
                b = nz[0]
                base = rows[b]
                for i in nz[1:]:
                    q = rows[i][col] // base[col]
                    if q:
                        _subtract(rows[i], q, base)
                        log.append((ids[i], q, ids[b]))
                nz = [i for i in nz if col in rows[i]]
            src = nz[0]
            rows[piv], rows[src] = rows[src], rows[piv]
            ids[piv], ids[src] = ids[src], ids[piv]
            if rows[piv][col] < 0:
                rows[piv] = {k: -a for k, a in rows[piv].items()}
                log.append((ids[piv], 2, ids[piv]))
            pivots.append((piv, col))
            piv += 1
        self._rows = rows
        self._pivots = pivots
        self._ids = ids
        self._log = log

    def solve(self, target: dict):
        """Integer coefficients x with sum x_i * placement_i = target, or
        None if the target is outside the lattice (window-relative).

        Forward substitution writes the target as sum y_k * row_k over
        the pivot rows, each named by its placement k; as row_k =
        sum_j T[k][j] * placement_j for the logged operations' product T,
        x is T transposed times y, which the log read backwards builds one
        operation at a time.
        """
        index = self._cell_index
        if any(v and c not in index for c, v in target.items()):
            return None
        resid = {index[c]: v for c, v in target.items() if v}
        y = [0] * len(self.placements)
        for pr, pc in self._pivots:
            if pc not in resid:
                continue
            row = self._rows[pr]
            if resid[pc] % row[pc]:
                return None
            y[self._ids[pr]] = t = resid[pc] // row[pc]
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
    raises ValueError naming its cell.
    """
    for cell, v in target.items():
        if type(v) is not int:
            raise ValueError(f"cell {cell!r}: value {v!r} is not an integer")
    if window is None:
        window = pad_window([c for c, v in target.items() if v], padding)
    placements = enumerate_placements(window, kinds)
    lattice = IntegerLattice(placements, window)
    x = lattice.solve(target)
    if x is None:
        return None
    entries = []
    for placement, coeff in zip(placements, x):
        sign = 1 if coeff > 0 else -1
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
    if tiling is not None:
        assert signed_tiling_verify(region, tiling) is None
    return tiling


@dataclass(frozen=True)
class TilingCount:
    count: int
    cap_exceeded: bool


def _exact_covers(cells, placements):
    """Yield each exact cover of `cells` by `placements`, which must lie
    inside it, as a list in the order chosen.  Depth first on an explicit
    stack: each level takes the uncovered cell with the fewest fitting
    candidates, ties by cell order, and tries them in placement order.

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
    order = sorted(cells)
    n = len(order)
    tiles = _tile_indices(placements, {c: i for i, c in enumerate(order)})
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
            yield [placements[i] for i in chosen]
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
    covers = _exact_covers(region.cells,
                           enumerate_placements(region.cells, kinds))
    if mode == "first":
        return next(covers, None)
    found = sum(1 for _ in islice(covers, cap + 1))
    return TilingCount(min(found, cap), found > cap)


def boundary_obstruction_check(region: Region) -> PMClass:
    """The necessary condition: a signed-tilable region's boundary word
    must evaluate to +I or -I; Other means obstructed."""
    return classify_pm(eval_word(region_boundary_word(region).word))


@dataclass(frozen=True)
class ConstructionStep:
    action: str  # "add" | "remove"
    placement: Placement


def construction_step_from_json(obj: dict) -> ConstructionStep:
    placement = placement_from_json(obj)
    if obj.get("action") not in ("add", "remove"):
        raise ValueError(f"bad action {obj.get('action')!r}")
    return ConstructionStep(obj["action"], placement)


@dataclass(frozen=True)
class StepRecord:
    index: int
    action: str
    kind: str
    support_size: int
    boundary_class: PMClass
    ledger_sign: int
    agrees: bool

    def to_json(self) -> dict:
        return {"index": self.index, "action": self.action, "kind": self.kind,
                "support_size": self.support_size,
                "class": self.boundary_class.value,
                "ledger_sign": self.ledger_sign, "agrees": self.agrees}


@dataclass(frozen=True)
class SequenceReport:
    valid: bool
    violation_index: int | None
    violation_reason: str | None
    records: tuple

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


@dataclass(frozen=True)
class StoneProbe:
    """Window-relative minimum-stone probe, stopping at one stone.

    stones: 0, 1, or None for "at least 2 or unknown in this window".
    parity_consistent compares the probe parity against the boundary
    class; it is reported, never asserted, because the lattice oracle is
    weaker than boundary-constructibility.
    """

    stones: int | None
    boundary_class: PMClass
    parity_consistent: bool | None

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
    quiet = enumerate_placements(window, ("bone", "snake"))
    lattice = IntegerLattice(quiet, window)
    target = {c: 1 for c in region.cells}
    if lattice.solve(target) is not None:
        return StoneProbe(0, klass, klass is PMClass.PLUS_IDENTITY)
    for stone in enumerate_placements(window, ("stone",)):
        for sign in (1, -1):
            shifted = dict(target)
            for c in stone.cells():
                shifted[c] = shifted.get(c, 0) - sign
            if lattice.solve(shifted) is not None:
                return StoneProbe(1, klass, klass is PMClass.MINUS_IDENTITY)
    return StoneProbe(None, klass, None)
