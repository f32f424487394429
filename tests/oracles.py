"""Independent oracles for the test suite.

Everything here recomputes results along a different route than the
package: numeric evaluation through a complex embedding of the ring,
word evaluation and word scans by plain Mat2 products (no group table),
the census's former per-length count over lazily interned matrices, the
former closure-set and unpruned prenecklace enumerations and
dict-of-substrings relation reducer,
the former bounding-box flood for holes, the former pair-count region
check and its letters-only walk, the former per-index region
validation, winding numbers by ray crossings,
the former per-step boundary walk of the sequence check, tiling counts
by raw subset search,
the former anchor-scan placement enumeration, the former window padding
that expands the whole window at each step, the former recursive and
rescanning exact covers, dense-transform lattice, the former lattice
row insertion that reduces every row, word-by-word
endpoint walk and reduced-word endpoint frontier, the former group
probe by Mat2 closure and matrix powers, group orders from a
presentation alone by coset enumeration (no matrices at all), and the
former edge-to-step groupings: pair by pair per phase, and the boundary
walk's time-ordered pairs looked up reversed, last step first.
"""

from __future__ import annotations

import cmath
import itertools
from operator import add

from hexsbs.cyclo import (IDENTITY, MINUS_IDENTITY, CycInt, Mat2, PMClass,
                          classify_pm)
from hexsbs.hexgrid import (_EDGE_LETTERS, NEIGHBOR_OFFSETS,
                            STEP_DISPLACEMENTS, BoundaryWord, LatticePoint,
                            Region, RegionError, _boundary_walk,
                            cell_vertices_plane, is_closed, is_edge_connected,
                            lattice_to_plane, neighbors, plane_to_lattice)
from hexsbs.search import (_FOLLOWERS, START_LETTERS, GroupProbeResult,
                           RelationRecord, Reduction)
from hexsbs.tiling import (KINDS, IntegerLattice, Placement, SequenceReport,
                           StepRecord, TilingCount, _subtract,
                           boundary_obstruction_check, enumerate_placements,
                           tile_catalog)
from hexsbs.words import (STEP_GROUP, STEP_LETTERS, STEP_MATRICES,
                          STEP_TO_EDGES, Word, WordError, check_size,
                          eval_word, is_least_member, step_word)

OMEGA_C = cmath.exp(1j * cmath.pi / 6)  # primitive 12th root of unity

INVERSE = dict(zip("XYZxyz", "xyzXYZ"))
ROTATE = str.maketrans("XYZxyz", "YZXyzx")


def cyc_to_complex(x: CycInt) -> complex:
    return sum(c * OMEGA_C ** k for k, c in enumerate(x.coeffs()))


def mat_to_complex(m: Mat2):
    return [[cyc_to_complex(m.a), cyc_to_complex(m.b)],
            [cyc_to_complex(m.c), cyc_to_complex(m.d)]]


def complex_mat_mul(p, q):
    return [[p[0][0] * q[0][0] + p[0][1] * q[1][0],
             p[0][0] * q[0][1] + p[0][1] * q[1][1]],
            [p[1][0] * q[0][0] + p[1][1] * q[1][0],
             p[1][0] * q[0][1] + p[1][1] * q[1][1]]]


def mats_close(p, q, tol=1e-9) -> bool:
    return all(abs(p[i][j] - q[i][j]) < tol for i in range(2)
               for j in range(2))


def eval_complex(word: Word):
    """Numeric evaluation of a word through the complex embedding."""
    from hexsbs.words import EDGE_MATRICES
    table = STEP_MATRICES if word.alphabet == "step" else EDGE_MATRICES
    m = [[1 + 0j, 0j], [0j, 1 + 0j]]
    for ch in word.letters:
        m = complex_mat_mul(m, mat_to_complex(table[ch]))
    return m


def eval_by_products(letters: str) -> Mat2:
    """A step word's value as a left-to-right fold of Mat2 products."""
    m = IDENTITY
    for ch in letters:
        m = m * STEP_MATRICES[ch]
    return m


def exact_matches_complex(word: Word, tol=1e-7) -> bool:
    return mats_close(mat_to_complex(eval_word(word)), eval_complex(word),
                      tol)


def closure_set(letters: str) -> frozenset:
    """Every cyclic shift of the word, of its 120-degree rotations and of
    their inverses, as one set."""
    rot1 = letters.translate(ROTATE)
    rot2 = rot1.translate(ROTATE)
    out = set()
    for base in (letters, rot1, rot2):
        for var in (base, "".join(INVERSE[ch] for ch in reversed(base))):
            if not var:
                out.add(var)
                continue
            for i in range(len(var)):
                out.add(var[i:] + var[:i])
    return frozenset(out)


def closure_set_identity_words(max_word_length: int) -> list:
    """The former enumeration: a depth-first walk over the reduced words w
    not starting or ending in x, stepping STEP_GROUP, that dedupes the hits
    w+X by the least member of their closure set."""
    step, pm = STEP_GROUP.step, STEP_GROUP.pm
    found = {}

    def visit(word: str, state: int):
        if word[-1] != "x":
            k = pm[step["X"][state]]
            if k is not PMClass.OTHER:
                found.setdefault(min(closure_set(word + "X")), k)
        if len(word) < max_word_length - 1:
            for ch in "XYZxyz":
                if ch != INVERSE[word[-1]]:
                    visit(word + ch, step[ch][state])

    for ch in "XYZyz":
        visit(ch, step[ch][0])
    records = [RelationRecord(rep, k, len(rep), is_closed(step_word(rep)))
               for rep, k in found.items()]
    return sorted(records, key=lambda r: (r.length, r.representative))


def unpruned_prenecklace_partition(first_letters: str,
                                   max_word_length: int) -> list:
    """The former search partition, verbatim: every prenecklace "X" + w
    is grown and every closing one goes to is_least_member, with no cap
    on letter runs and no test that it is a necklace."""
    step, pm = STEP_GROUP.step, STEP_GROUP.pm
    # closers[state]: the letters ch, not x, with state * ch * X = +-I,
    # and that value, which "X" + w + ch shares with its shift w + ch + "X"
    closers = [tuple((ch, k) for ch in START_LETTERS
                     for k in (pm[step["X"][step[ch][state]]],)
                     if k is not PMClass.OTHER)
               for state in range(len(pm))]
    found = []

    def visit(u: str, state: int, letters, period: int):
        # u = "X" + w, state is the value of w and period the length of the
        # longest Lyndon prefix of u.  The least member of a class is a
        # necklace, so only prenecklaces are grown, and u + ch is one iff
        # ch >= floor (Ruskey-Savage-Wang).  The children that close are
        # kept, and only those with children of their own are grown: the
        # last level makes no call.
        floor = u[len(u) - period]
        for ch, k in closers[state]:
            if ch in letters and ch >= floor and is_least_member(u + ch):
                found.append((u + ch, k))
        if len(u) + 2 <= max_word_length:
            for ch in letters:
                if ch >= floor:
                    visit(u + ch, step[ch][state], _FOLLOWERS[ch],
                          period if ch == floor else len(u) + 1)

    visit("X", 0, first_letters, 1)
    return found


def prenecklace_identity_words(max_word_length: int,
                               partitions: int = 1) -> list:
    """enumerate_identity_words on the former, unpruned partition."""
    groups = [START_LETTERS[i::partitions]
              for i in range(min(partitions, len(START_LETTERS)))]
    records = [RelationRecord(rep, value, len(rep), is_closed(step_word(rep)))
               for group in groups
               for rep, value in unpruned_prenecklace_partition(
                   group, max_word_length)]
    return sorted(records, key=lambda r: (r.length, r.representative))


def substring_dict_reduce(records) -> Reduction:
    """The former reducer: every substring of length at least half plus
    one of every member of each accepted class goes into one dict, keyed
    to the earliest acceptance; a record falls to the least (acceptance,
    substring) hit among all substrings of all its members."""
    factors = {}  # substring -> (accept_index, source_representative)
    max_factor_len = 0
    survivors = []
    casualties = []
    for record in records:
        members = closure_set(record.representative)
        hits = []
        for member in members:
            top = min(len(member), max_factor_len)
            for flen in range(2, top + 1):
                for i in range(len(member) - flen + 1):
                    hit = factors.get(member[i:i + flen])
                    if hit is not None:
                        hits.append((hit[0], member[i:i + flen], hit[1]))
        if hits:
            _, factor, src = min(hits)
            casualties.append((record, factor, src))
            continue
        survivors.append(record)
        half = record.length // 2 + 1
        for member in members:
            for flen in range(half, len(member) + 1):
                for i in range(len(member) - flen + 1):
                    factors.setdefault(member[i:i + flen],
                                       (len(survivors) - 1,
                                        record.representative))
        max_factor_len = max(max_factor_len, record.length)
    return Reduction(tuple(survivors), tuple(casualties))


def naive_identity_classes(max_length: int, require_final_x: bool = True):
    """Closure classes of cyclically reduced step words with value +-I,
    found by evaluating every word with direct matrix products (no state
    interning, no symmetry pruning)."""
    found = {}

    def record(word: str, value: PMClass):
        rep = min(closure_set(word))
        found.setdefault(rep, (value, len(word)))

    def rec(word: str, m: Mat2):
        if word and INVERSE[word[0]] != word[-1]:
            if not require_final_x or word.endswith("X"):
                if m == IDENTITY:
                    record(word, PMClass.PLUS_IDENTITY)
                elif m == MINUS_IDENTITY:
                    record(word, PMClass.MINUS_IDENTITY)
        if len(word) < max_length:
            for ch in "XYZxyz":
                if not word or INVERSE[word[-1]] != ch:
                    rec(word + ch, m * STEP_MATRICES[ch])

    rec("", IDENTITY)
    return found


def count_identity_words(length: int) -> tuple:
    """(plus, minus) counts of cyclically reduced words of the exact
    length that end in X, by direct scan."""
    plus = minus = 0

    def rec(word: str, m: Mat2):
        nonlocal plus, minus
        if len(word) == length:
            if word.endswith("X") and INVERSE[word[0]] != word[-1]:
                if m == IDENTITY:
                    plus += 1
                elif m == MINUS_IDENTITY:
                    minus += 1
            return
        for ch in "XYZxyz":
            if not word or INVERSE[word[-1]] != ch:
                rec(word + ch, m * STEP_MATRICES[ch])

    rec("", IDENTITY)
    return plus, minus


def census_counts_by_length(max_length: int) -> list:
    """(length, plus, minus) for each total length 2..max_length, with a
    dynamic programme over (matrix, last letter) rebuilt from scratch for
    every length; matrices are interned lazily and products memoized."""
    mats, index, trans = [IDENTITY], {IDENTITY: 0}, {}

    def step(state, ch):
        if (state, ch) not in trans:
            m = mats[state] * STEP_MATRICES[ch]
            if m not in index:
                index[m] = len(mats)
                mats.append(m)
            trans[state, ch] = index[m]
        return trans[state, ch]

    out = []
    for total in range(2, max_length + 1):
        cur = {(step(0, ch), ch): 1 for ch in "XYZyz"}
        for _ in range(total - 2):
            nxt = {}
            for (state, last), count in cur.items():
                for ch in "XYZxyz":
                    if INVERSE[last] != ch:
                        key = (step(state, ch), ch)
                        nxt[key] = nxt.get(key, 0) + count
            cur = nxt
        plus = minus = 0
        for (state, last), count in cur.items():
            if last == "x":
                continue
            k = classify_pm(mats[step(state, "X")])
            if k is PMClass.PLUS_IDENTITY:
                plus += count
            elif k is PMClass.MINUS_IDENTITY:
                minus += count
        out.append((total, plus, minus))
    return out


def flood_is_simply_connected(cells) -> bool:
    """No holes: the complement of the cells inside a one-cell margin of
    their bounding box is connected to the margin."""
    cells = set(cells)
    if not cells:
        return True
    qs = [q for q, _ in cells]
    rs = [r for _, r in cells]
    lo_q, hi_q = min(qs) - 1, max(qs) + 1
    lo_r, hi_r = min(rs) - 1, max(rs) + 1
    outside = {(q, r) for q in range(lo_q, hi_q + 1)
               for r in range(lo_r, hi_r + 1)} - cells
    start = (lo_q, lo_r)
    seen = {start}
    stack = [start]
    while stack:
        for n in neighbors(stack.pop()):
            if n in outside and n not in seen:
                seen.add(n)
                stack.append(n)
    return seen == outside


def letter_walk_from(cells, cell, k: int) -> str:
    """Edge letters of the boundary cycle from boundary edge k of `cell`,
    region on the left.  At the head of edge k the walk turns onto edge
    k + 1 of the same cell, or, if the neighbor across that edge is in
    `cells`, goes on along that neighbor's edge k - 1."""
    q0, r0 = q, r = cell
    k0 = k
    letters = []
    while True:
        letters.append(_EDGE_LETTERS[k])
        dq, dr = NEIGHBOR_OFFSETS[(k + 1) % 6]
        if (q + dq, r + dr) in cells:
            q, r, k = q + dq, r + dr, (k - 1) % 6
        else:
            k = (k + 1) % 6
        if k == k0 and q == q0 and r == r0:
            return "".join(letters)


def pair_count_boundary_walk(cells) -> tuple:
    """(cell, k, edge letters) of the walk from edge k of `cell`, the least
    boundary edge.  Each grid vertex has degree 3, so the boundary edges
    form disjoint simple cycles, one per piece and one per hole; a walk
    that leaves some unused (6 per cell, less 2 per adjacent pair) is a
    RegionError, and only then does a flood name the fault."""
    cell = min(cells)
    k = next(k for k, n in enumerate(neighbors(cell)) if n not in cells)
    letters = letter_walk_from(cells, cell, k)
    pairs = sum(((q + 1, r) in cells) + ((q, r + 1) in cells)
                + ((q + 1, r - 1) in cells) for q, r in cells)
    if len(letters) != 6 * len(cells) - 2 * pairs:
        if not is_edge_connected(cells):
            raise RegionError("region is not edge-connected")
        raise RegionError("region is not simply connected (hole detected)")
    return cell, k, letters


def scanning_region_validate(cells, allow_empty: bool = False) -> Region:
    """A Region from (q, r) pairs of ints, rejecting a malformed or
    duplicate entry by its index, and any set that is not one region."""
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
    cell_set = frozenset(seen)
    if not cell_set:
        if allow_empty:
            return Region(cell_set)
        raise RegionError("empty region")
    return Region(cell_set, _boundary_walk(cell_set))


def path_plane_points(w: Word, start: LatticePoint = (0, 0)):
    """Chord polyline of the path, rightmost letter first."""
    u, v = start
    pts = [lattice_to_plane(start)]
    for ch in reversed(w.letters):
        du, dv = STEP_DISPLACEMENTS[ch]
        u, v = u + du, v + dv
        pts.append(lattice_to_plane((u, v)))
    return pts


def winding_cells(w: Word, start: LatticePoint = (0, 0)) -> dict:
    """Signed winding number of the closed path around each cell center.

    Computed by summing signed crossings of the eastward ray from each
    candidate center against the step-chord polygon; chords never pass
    through a cell center, so the count is exact.  Cells with winding 0
    are omitted.
    """
    if not is_closed(w):
        raise WordError(f"winding_cells requires a closed word, got {w}")
    pts = path_plane_points(w, start)
    if len(pts) == 1:
        return {}
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    out = {}
    for q in range(min(xs) // 3 - 1, max(xs) // 3 + 2):
        for r in range((min(ys) - q) // 2 - 1, (max(ys) - q) // 2 + 2):
            cx, cy = 3 * q, q + 2 * r
            wind = 0
            for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
                if y1 <= cy < y2:
                    if (x2 - x1) * (cy - y1) > (y2 - y1) * (cx - x1):
                        wind += 1
                elif y2 <= cy < y1:
                    if (x2 - x1) * (cy - y1) < (y2 - y1) * (cx - x1):
                        wind -= 1
            if wind:
                out[(q, r)] = wind
    return out


def walking_sequence_check(steps) -> SequenceReport:
    """The former constructible_sequence_check, which walks and evaluates
    the whole support after every step.  Simulate adding/removing tiles
    along the boundary.

    After every step the coverage must stay 0/1 everywhere, the support
    must remain edge-connected and simply connected, and the tile must
    touch the support boundary (first step exempt).  Each step's directly
    evaluated boundary class must equal the stone-parity ledger
    (-1)^(#stone steps so far); removing a stone flips the sign, bones and
    snakes leave it unchanged.  One boundary walk per step checks the
    support and gives its class.  A touching add cannot disconnect a
    region, nor a remove touching its connected complement puncture it,
    so a RegionError names the fault.
    """
    support = set()
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
        elif step.action == "remove":
            if not cells <= support:
                return fail(i, "coverage conflict")
            if not any(n not in support for c in cells for n in neighbors(c)):
                return fail(i, "interior placement")
        else:
            raise ValueError(f"bad action {step.action!r}")
        support = support | cells if step.action == "add" else support - cells
        if kind == "stone":
            stone_steps += 1
        if support:
            try:
                klass = boundary_obstruction_check(Region(frozenset(support)))
            except RegionError:
                return fail(i, "puncture" if step.action == "add"
                            else "disconnected")
        else:
            klass = PMClass.PLUS_IDENTITY
        sign = -1 if stone_steps % 2 else 1
        agrees = klass is (PMClass.MINUS_IDENTITY if sign < 0
                           else PMClass.PLUS_IDENTITY)
        records.append(StepRecord(i, step.action, kind, len(support),
                                  klass, sign, agrees))
        if not agrees:
            return fail(i, "sign ledger mismatch")
    return SequenceReport(True, None, None, tuple(records))


def euler_characteristic(cells) -> int:
    """cells - adjacent pairs + mutually adjacent triples, by counting
    each pair's common neighbours."""
    cells = set(cells)
    adj = {c: {n for n in neighbors(c) if n in cells} for c in cells}
    pairs = sum(map(len, adj.values())) // 2
    triples = sum(len(adj[a] & adj[b]) for a in cells for b in adj[a]) // 6
    return len(cells) - pairs + triples


def brute_force_tiling_count(region_cells, placements) -> int:
    """Exact-cover count by scanning subsets of at most area/3 placements."""
    cells = frozenset(region_cells)
    usable = [p for p in placements if p.cells() <= cells]
    count = 0
    for k in range(0, len(cells) // 3 + 1):
        for combo in itertools.combinations(usable, k):
            seen = set()
            ok = True
            for p in combo:
                pc = p.cells()
                if seen & pc:
                    ok = False
                    break
                seen |= pc
            if ok and seen == cells:
                count += 1
    return count


def anchor_scan_placements(window, kinds=KINDS) -> list:
    """The former placement enumeration: every anchor that puts some cell
    of the shape on the window, in sorted order, kept when the whole
    placement's cell set lies inside the window."""
    window = frozenset(window)
    out = []
    for shape in tile_catalog():
        if shape.kind not in kinds:
            continue
        anchors = set()
        for wq, wr in window:
            for oq, orr in shape.cells:
                anchors.add((wq - oq, wr - orr))
        for anchor in sorted(anchors):
            p = Placement(shape, anchor)
            if p.cells() <= window:
                out.append(p)
    return out


def recursive_exact_cover(region, kinds=KINDS, mode="first", cap=10 ** 6):
    """The former exact cover: one recursive call per placed tile, least
    candidates cell first, ties by cell order.  Returns what
    standard_tiling_solve returns, except (0, False) for the empty region
    at cap 0, and its depth is bounded by the recursion limit."""
    placements = enumerate_placements(region.cells, kinds)
    cover = {p: p.cells() for p in placements}
    by_cell = {}
    for p in placements:
        for c in cover[p]:
            by_cell.setdefault(c, []).append(p)
    uncovered = set(region.cells)
    chosen = []
    state = {"count": 0, "capped": False}

    def descend():
        if not uncovered:
            state["count"] += 1
            return mode == "first"
        if state["capped"]:
            return True
        cell = min(uncovered, key=lambda c: (
            sum(1 for p in by_cell.get(c, ()) if cover[p] <= uncovered), c))
        for p in by_cell.get(cell, ()):
            cells = cover[p]
            if cells <= uncovered:
                uncovered.difference_update(cells)
                chosen.append(p)
                if descend():
                    return True
                chosen.pop()
                uncovered.update(cells)
                if mode == "count" and state["count"] > cap:
                    state["capped"] = True
                    return True
        return False

    hit = descend()
    if mode == "first":
        return list(chosen) if hit else None
    return TilingCount(min(state["count"], cap), state["capped"])


def rescan_exact_covers(cells, placements):
    """The former exact-cover generator, which rescans every uncovered
    cell at each level to choose the next one.  Yields each exact cover
    of `cells` by `placements`, which must lie inside it, as a list in
    the order chosen.  Depth first on an explicit stack: each level takes
    the uncovered cell with the fewest fitting candidates, ties by cell
    order, and tries them in placement order."""
    by_cell = {c: [] for c in cells}  # cell -> [(placement, its cells)]
    for p in placements:
        pc = p.cells()
        for c in pc:
            by_cell[c].append((p, pc))
    uncovered = set(cells)
    chosen = []  # (placement, its cells) taken at each level
    levels = []  # the fitting candidates of each level's cell, lazily
    while True:
        if uncovered:
            cell = min(uncovered, key=lambda c: (
                sum(pc <= uncovered for _, pc in by_cell[c]), c))
            levels.append(e for e in by_cell[cell] if e[1] <= uncovered)
        else:
            yield [p for p, _ in chosen]
        while levels:  # take the next candidate, backtracking
            if len(chosen) == len(levels):
                uncovered.update(chosen.pop()[1])
            nxt = next(levels[-1], None)
            if nxt is not None:
                chosen.append(nxt)
                uncovered.difference_update(nxt[1])
                break
            levels.pop()
        else:
            return


def rescan_pad_window(cells, padding: int) -> frozenset:
    """The former pad_window: each step adds the neighbours of every
    cell of the window so far."""
    check_size("padding", padding, 0)
    window = set(cells)
    for _ in range(padding):
        window |= {n for c in window for n in neighbors(c)}
    return frozenset(window)


class DenseIntegerLattice:
    """The former signed-tiling lattice: dense rows beside a dense n x n
    transform, each row operation applied to both.  Row lattice of
    placement indicator vectors, in Hermite normal form with the transform
    kept so that particular solutions can be read off.

    Targets are integer vectors over the window cells; membership and a
    particular solution come from forward substitution along the HNF rows.
    Exact big-integer arithmetic throughout.  Each placement is given by
    its set of cells.
    """

    def __init__(self, tiles, window):
        tiles = list(tiles)
        self.cells = sorted(window)
        self._cell_index = {c: i for i, c in enumerate(self.cells)}
        n, m = len(tiles), len(self.cells)
        rows = []
        for tile in tiles:
            row = [0] * m
            for c in tile:
                row[self._cell_index[c]] = 1
            rows.append(row)
        transform = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        pivots = []
        piv = 0
        for col in range(m):
            if piv == n:
                break
            # gcd-eliminate column entries below the pivot row
            nz = [i for i in range(piv, n) if rows[i][col]]
            if not nz:
                continue
            while len(nz) > 1:
                nz.sort(key=lambda i: abs(rows[i][col]))
                base = nz[0]
                for i in nz[1:]:
                    q = rows[i][col] // rows[base][col]
                    if q:
                        rows[i] = [a - q * b for a, b in
                                   zip(rows[i], rows[base])]
                        transform[i] = [a - q * b for a, b in
                                        zip(transform[i], transform[base])]
                nz = [i for i in nz if rows[i][col]]
            src = nz[0]
            rows[piv], rows[src] = rows[src], rows[piv]
            transform[piv], transform[src] = transform[src], transform[piv]
            if rows[piv][col] < 0:
                rows[piv] = [-a for a in rows[piv]]
                transform[piv] = [-a for a in transform[piv]]
            pivots.append((piv, col))
            piv += 1
        self._rows = rows
        self._transform = transform
        self._pivots = pivots

    def solve(self, target: dict):
        """Integer coefficients x with sum x_i * placement_i = target, or
        None if the target is outside the lattice (window-relative)."""
        resid = [0] * len(self.cells)
        for cell, value in target.items():
            i = self._cell_index.get(cell)
            if i is None:
                if value:
                    return None
                continue
            resid[i] = value
        coeffs_rows = [0] * len(self._rows)
        for pr, pc in self._pivots:
            if resid[pc] == 0:
                continue
            if resid[pc] % self._rows[pr][pc]:
                return None
            t = resid[pc] // self._rows[pr][pc]
            coeffs_rows[pr] = t
            resid = [a - t * b for a, b in zip(resid, self._rows[pr])]
        if any(resid):
            return None
        x = [0] * len(self._rows)
        for i, t in enumerate(coeffs_rows):
            if t:
                for j, u in enumerate(self._transform[i]):
                    x[j] += t * u
        return x


class InsertionLattice(IntegerLattice):
    """The former row insertion of IntegerLattice, which reduces every row
    up to the stop at the colouring's index, with no row skipped.  It
    keeps IntegerLattice's solve."""

    def __init__(self, cells, rows):
        self.cells = cells
        self._cell_index = {c: i for i, c in enumerate(cells)}
        self._n_placements = len(rows)  # the length of every solution
        m = len(cells)
        index = 1 << min(len({(q - r) % 3 for q, r in self.cells}), 2)
        basis = {}  # leading column -> (row, placement)
        log = []
        det = 1  # the product of the pivots
        used = 0
        for i, t in enumerate(rows):
            if len(basis) == m and det == index:
                break
            used += 1
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
        self._basis = [(c, *basis[c]) for c in sorted(basis)]
        self._log = log
        self.rows_used = used


def transform_from_log(log, n: int) -> list:
    """The dense n x n transform of a lattice's operation log: the logged
    row operations replayed forward on the identity rows, each row named
    by its placement."""
    transform = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, q, b in log:
        transform[i] = [a - q * c for a, c in zip(transform[i], transform[b])]
    return transform


def endpoints_by_length(max_length: int) -> dict:
    """{(length, PMClass): endpoints} over every reduced step word of each
    length up to max_length, by the endpoint lattice's former depth-first
    walk over the words one by one."""
    step, pm = STEP_GROUP.step, STEP_GROUP.pm
    followers = {ch: [f for f in INVERSE if f != INVERSE[ch]]
                 for ch in INVERSE}
    out = {}

    def visit(state, letters, u, v, depth):
        out.setdefault((depth, pm[state]), set()).add((u, v))
        if depth < max_length:
            for ch in letters:
                du, dv = STEP_DISPLACEMENTS[ch]
                visit(step[ch][state], followers[ch], u + du, v + dv,
                      depth + 1)

    visit(0, "XYZxyz", 0, 0, 0)
    return out


def _extend(counts: dict, move) -> dict:
    """Grow each counted reduced word by one letter at its end.

    Keys are (group element, last letter); move(element, letter) gives
    the element of the grown word."""
    out = {}
    for (state, end), count in counts.items():
        for ch in _FOLLOWERS[end]:
            key = (move(state, ch), ch)
            out[key] = out.get(key, 0) + count
    return out


def reduced_endpoint_lattice(max_length: int, sign: str = "both") -> list:
    """The former identity_endpoint_lattice, verbatim: one counted
    frontier per length of the reduced words, keyed by ((element,
    endpoint), last letter)."""
    if sign not in ("+I", "-I", "both"):
        raise ValueError(f"bad sign filter {sign!r}")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    wanted = {"+I": {PMClass.PLUS_IDENTITY},
              "-I": {PMClass.MINUS_IDENTITY},
              "both": {PMClass.PLUS_IDENTITY, PMClass.MINUS_IDENTITY}}[sign]
    step, pm = STEP_GROUP.step, STEP_GROUP.pm

    def move(key, ch):
        state, (u, v) = key
        du, dv = STEP_DISPLACEMENTS[ch]
        return step[ch][state], (u + du, v + dv)

    out = {(0, 0)} if pm[0] in wanted else set()
    frontier = {(move((0, (0, 0)), ch), ch): 1 for ch in STEP_LETTERS}
    for n in range(max_length):
        if n:
            frontier = _extend(frontier, move)
        out.update(p for (s, p), _ in frontier if pm[s] in wanted)
    return sorted(out)


MAX_COSETS = 100_000  # stops an infinite or badly collapsing enumeration


def todd_coxeter(generators: str, relators):
    """Coset table of the trivial subgroup of <generators | relators>.

    Todd–Coxeter enumeration with the HLT strategy (relator scans that
    define cosets as needed, with full coincidence processing); see Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, sec. 5.1.
    Generators are uppercase letters, their inverses the lowercase ones,
    and each relator is a word over both that equals 1.  Returns the
    table as a list of {letter: coset} rows with row 0 the identity, so
    its length is the group order.  Uses no matrices, so it checks the
    package's evaluations from the presentation side only.
    """
    letters = generators.upper() + generators.lower()
    table = [{}]
    parent = [0]
    queue = []

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    def define(k, ch):
        if len(table) >= MAX_COSETS:
            raise RuntimeError(f"more than {MAX_COSETS} cosets defined")
        d = len(table)
        table.append({})
        parent.append(d)
        table[k][ch] = d
        table[d][ch.swapcase()] = k

    def merge(k, l):
        k, l = find(k), find(l)
        if k != l:
            k, l = min(k, l), max(k, l)
            parent[l] = k
            queue.append(l)

    def coincidence(a, b):
        merge(a, b)
        while queue:
            e = queue.pop(0)
            for ch in letters:
                if ch not in table[e]:
                    continue
                f = table[e][ch]
                inv = ch.swapcase()
                del table[f][inv]
                e1, f1 = find(e), find(f)
                if ch in table[e1]:
                    merge(f1, table[e1][ch])
                elif inv in table[f1]:
                    merge(e1, table[f1][inv])
                else:
                    table[e1][ch] = f1
                    table[f1][inv] = e1

    def scan_and_fill(k, word):
        f, i = k, 0
        b, j = k, len(word) - 1
        while True:
            while i <= j and word[i] in table[f]:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and word[j].swapcase() in table[b]:
                b = table[b][word[j].swapcase()]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][word[i].swapcase()] = f
                return
            define(f, word[i])

    k = 0
    while k < len(table):
        for r in relators:
            if find(k) != k:
                break
            scan_and_fill(k, r)
        if find(k) == k:
            for ch in letters:
                if ch not in table[k]:
                    define(k, ch)
        k += 1

    live = [k for k in range(len(table)) if find(k) == k]
    index = {k: n for n, k in enumerate(live)}
    return [{ch: index[find(table[k][ch])] for ch in letters} for k in live]


def coset_trace(table, word: str, coset: int = 0) -> int:
    """The coset reached from `coset` by reading `word` left to right."""
    for ch in word:
        coset = table[coset][ch]
    return coset


def sign_presentation(minus, plus):
    """Relators on X, Y, Z and a central involution C standing for -I:
    each word of `minus` equals C and each word of `plus` equals 1."""
    return (["CC", "CXcx", "CYcy", "CZcz"] + [w + "c" for w in minus]
            + list(plus))


def mat2_group_closure(generators, bound: int) -> GroupProbeResult:
    """Breadth-first closure of <generators> under multiplication by the
    generators and their inverses, keyed on the matrices themselves for
    dedup; stops (BoundExceeded) once more than `bound` elements appear.
    Each element's order comes from multiplying its powers up to I."""
    gens = []
    for g in generators:
        gens.append(g)
        gens.append(g.inv())
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = m * g
                if p not in seen:
                    if len(seen) >= bound:
                        return GroupProbeResult(None, bound, ())
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    orders = {}
    for m in seen:
        n = mat2_order(m)
        orders[n] = orders.get(n, 0) + 1
    return GroupProbeResult(len(seen), bound, tuple(sorted(orders.items())))


def mat2_order(m: Mat2) -> int:
    """The least n >= 1 with m^n = I, by repeated Mat2 products."""
    n, p = 1, m
    while p != IDENTITY:
        p = p * m
        n += 1
    return n


_EDGES_TO_STEP = {pair: step for step, pair in STEP_TO_EDGES.items()}


def pairwise_edge_to_step(w: Word) -> tuple[Word, int]:
    """The former edge_to_step: each phase grouped one pair at a time; the
    error names the first bad pair of the unshifted word."""
    if w.alphabet != "edge":
        raise WordError("edge_to_step expects an edge word")
    s = w.letters
    if len(s) % 2:
        raise WordError(f"edge word has odd length {len(s)}")
    first_error = None
    for shift in (0, 1):
        shifted = s[shift:] + s[:shift]
        steps = []
        for i in range(0, len(shifted), 2):
            pair = shifted[i:i + 2]
            step = _EDGES_TO_STEP.get(pair)
            if step is None:
                if first_error is None:
                    first_error = WordError(
                        f"edge pair {pair!r} at index {i} is not a step move",
                        i)
                break
            steps.append(step)
        else:
            return Word("step", "".join(steps)), shift
    raise first_error


# time-ordered edge pair (from a shaded vertex) -> step letter
_STEP_BY_EDGE_PAIR = {pair[::-1]: step for step, pair in STEP_TO_EDGES.items()}


def reversed_pair_boundary_word(region: Region) -> BoundaryWord:
    """The former region_boundary_word: the kept walk, aligned to a shaded
    vertex, paired in walk order from its end, each pair looked up
    reversed."""
    cell, k, letters = region.walk or _boundary_walk(region.cells)
    if k % 2 == 0:
        k += 1
        letters = letters[1:] + letters[:1]
    x, y = cell_vertices_plane(cell)[k]
    pairs = map(add, letters[-2::-2], letters[::-2])
    return BoundaryWord(plane_to_lattice((x, y)), step_word(
        "".join(map(_STEP_BY_EDGE_PAIR.__getitem__, pairs))))
