import functools
import inspect
import itertools
import math
import random
import re
import sys
import time
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexsbs.cli import load_region
from hexsbs.cyclo import IDENTITY, PMClass
from hexsbs.fixtures import TILE_WORDS
from hexsbs.hexgrid import (NEIGHBOR_OFFSETS, Region, RegionError,
                            grow_random_region, neighbors, path_endpoint,
                            region_boundary_word, region_validate)
from hexsbs.tiling import (KINDS, ConstructionStep, IntegerLattice, Placement,
                           SignedTiling, StoneProbe, TilingCount,
                           _TRIANGLES, _exact_covers, _identity_flags,
                           _placement_builder, _placement_table,
                           boundary_obstruction_check,
                           constructible_sequence_check, enumerate_placements,
                           min_stone_probe, pad_window, signed_tiling_solve,
                           signed_tiling_verify, solve_cell_target,
                           standard_tiling_solve, tile_catalog, tile_shape)
from hexsbs.words import (STEP_GROUP, STEP_MATRICES, closure, eval_word,
                          step_word)

from fixture_data import (BARBELL_CELLS, CRESCENT_CELLS, CRESCENT_CERTIFICATE,
                          CRESCENT_SEQUENCE, HEX7_CELLS, RING6_CELLS,
                          SEQUENCE_2X2X2_LEFT, SEQUENCE_2X2X2_LEFT_TARGET,
                          SEQUENCE_2X2X2_MIDDLE, SEQUENCE_2X2X2_MIDDLE_TARGET)
from oracles import (DenseIntegerLattice, InsertionLattice,
                     anchor_scan_placements, brute_force_tiling_count,
                     flood_is_simply_connected,
                     recursive_exact_cover, rescan_exact_covers,
                     rescan_pad_window,
                     transform_from_log, walking_sequence_check,
                     winding_cells)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# every region fixture but ring6.json, whose hole makes it invalid input
REGION_FIXTURES = ("bone.json", "crescent.json", "hex7.json", "hex7.txt",
                   "single_cell.json")

# cell sets enclosed by each tile word, derived independently by tracing
# the paths on the lattice
EXPECTED_TILE_CELLS = {
    "bone_left": {(-2, 2), (-1, 1), (0, 0)},
    "bone_vertical": {(0, 0), (0, 1), (0, 2)},
    "bone_right": {(0, 0), (1, 0), (2, 0)},
    "stone_left": {(-1, 1), (0, 0), (0, 1)},
    "stone_right": {(-1, 0), (-1, 1), (0, 0)},
    "snake_flat_left": {(-3, 2), (-2, 1), (-1, 1), (0, 0)},
    "snake_vertical_left": {(-1, 2), (-1, 3), (0, 0), (0, 1)},
    "snake_flat_right": {(-3, 1), (-2, 1), (-1, 0), (0, 0)},
    "snake_left": {(-2, 3), (-1, 1), (-1, 2), (0, 0)},
    "snake_vertical_right": {(0, 0), (0, 1), (1, 1), (1, 2)},
    "snake_right": {(-1, 0), (0, 0), (0, 1), (1, 1)},
}


def placement(kind, orientation, anchor):
    return Placement(tile_shape(kind, orientation), anchor)


def steps(items):
    return [ConstructionStep(a, placement(k, o, anchor))
            for a, k, o, anchor in items]


def test_sequence_check_rejects_unknown_action():
    with pytest.raises(ValueError, match="bad action 'move'"):
        constructible_sequence_check(steps([("move", "bone", "left",
                                             (0, 0))]))


def test_catalog_counts():
    catalog = tile_catalog()
    assert len(catalog) == 11
    by_kind = {}
    for shape in catalog:
        by_kind[shape.kind] = by_kind.get(shape.kind, 0) + 1
    assert by_kind == {"bone": 3, "stone": 2, "snake": 6}
    sizes = {s.kind: len(s.cells) for s in catalog}
    assert sizes == {"bone": 3, "stone": 3, "snake": 4}


def test_catalog_cells_frozen():
    for shape in tile_catalog():
        assert set(shape.cells) == EXPECTED_TILE_CELLS[shape.name], shape.name


def test_catalog_words_and_geometry_agree():
    for shape in tile_catalog():
        cls = closure(shape.boundary_word).members
        bw = region_boundary_word(region_validate(shape.cells))
        assert bw.word.letters in cls, shape.name
        assert shape.boundary_word.letters == TILE_WORDS[shape.name]


def test_bone_cells_collinear():
    for name in ("bone_left", "bone_vertical", "bone_right"):
        cells = sorted(EXPECTED_TILE_CELLS[name])
        (q0, r0), (q1, r1), (q2, r2) = cells
        assert (q1 - q0, r1 - r0) == (q2 - q1, r2 - r1)


def test_stone_cells_mutually_adjacent():
    from hexsbs.hexgrid import neighbors
    for name in ("stone_left", "stone_right"):
        cells = sorted(EXPECTED_TILE_CELLS[name])
        for a, b in itertools.combinations(cells, 2):
            assert b in set(neighbors(a)), name


def test_enumerate_placements():
    bone = tile_shape("bone", "vertical")
    window = frozenset(bone.cells)
    inside = enumerate_placements(window, ("bone",))
    assert Placement(bone, (0, 0)) in inside
    assert enumerate_placements(frozenset([(0, 0)])) == []
    # deterministic order
    window7 = pad_window(HEX7_CELLS, 2)
    a = enumerate_placements(window7)
    b = enumerate_placements(window7)
    assert a == b
    keys = [(p.shape.index, p.anchor) for p in a]
    assert keys == sorted(keys)


def test_enumerate_placements_window_count():
    # independent recount over a brute anchor box
    window = pad_window(HEX7_CELLS, 2)
    count = 0
    for shape in tile_catalog():
        for aq in range(-8, 9):
            for ar in range(-8, 9):
                cells = {(q + aq, r + ar) for q, r in shape.cells}
                if cells <= window:
                    count += 1
    got = enumerate_placements(window)
    assert len(got) == count
    assert len(set(got)) == count


def test_enumerate_placements_matches_anchor_scan():
    rng = random.Random(58)
    regions = [load_region(str(FIXTURES / name)) for name in REGION_FIXTURES]
    regions += [grow_random_region(rng, rng.randrange(1, 40))
                for _ in range(20)]
    regions += [tile_built_region(rng, rng.randrange(1, 12))
                for _ in range(20)]
    for region in regions:
        for padding in (0, 1, 2):
            window = pad_window(region.cells, padding)
            for kinds in (KINDS, ("bone",), ("bone", "snake"), ("stone",)):
                assert enumerate_placements(window, kinds) == \
                    anchor_scan_placements(window, kinds), \
                    (sorted(region.cells), padding, kinds)


@settings(max_examples=200, deadline=None)
@given(cells=st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                     max_size=40),
       shift=st.sampled_from([(0, 0), (-7, -3), (2 ** 64 + 5, -2 ** 70),
                              (-2 ** 65, 2 ** 64)]),
       kinds=st.sampled_from([KINDS, ("bone",), ("bone", "snake"),
                              ("stone",)]))
@example(cells={(0, 0)}, shift=(0, 0), kinds=KINDS)  # a single cell
@example(cells=set(HEX7_CELLS) - {(0, 0)}, shift=(0, 0),
         kinds=KINDS)  # a hole
@example(cells={(0, 0), (0, 1), (0, 2), (5, 5), (5, 4), (4, 5)},
         shift=(2 ** 64, 2 ** 64), kinds=KINDS)  # two pieces
def test_enumerate_placements_matches_anchor_scan_on_any_cells(cells, shift,
                                                               kinds):
    # any cell set: holes, several pieces, single cells, large coordinates
    sq, sr = shift
    window = {(q + sq, r + sr) for q, r in cells}
    assert enumerate_placements(window, kinds) == \
        anchor_scan_placements(window, kinds)


@settings(max_examples=150, deadline=None)
@given(cells=st.sets(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                     max_size=40),
       shift=st.sampled_from([(0, 0), (-7, -3), (2 ** 64 + 5, -2 ** 70)]))
@example(cells=set(), shift=(0, 0))
@example(cells=set(HEX7_CELLS) - {(0, 0)}, shift=(0, 0))  # a hole
def test_placement_table_matches_anchor_scan_for_every_kind_set(cells,
                                                                 shift):
    # the table's placements are the anchor scan's, and each row numbers
    # the placement's cells in the sorted cells, in offset order
    sq, sr = shift
    window = {(q + sq, r + sr) for q, r in cells}
    for kinds in (k for n in range(4)
                  for k in itertools.combinations(KINDS, n)):
        order, placed, rows = _placement_table(window, kinds)
        assert order == sorted(window)
        assert placed == [(p.shape, p.anchor)
                          for p in anchor_scan_placements(window, kinds)]
        assert len(rows) == len(placed)
        index = {c: i for i, c in enumerate(order)}
        for p, row in zip(placed, rows):
            assert row == tuple(index[c]
                                for c in sorted(Placement(*p).cells()))


def test_catalog_offsets_are_the_sorted_cells():
    for shape in tile_catalog():
        assert len(shape.cells) in (3, 4) and (0, 0) in shape.cells
        assert shape.offsets == tuple(sorted(shape.cells)), shape.name
        for aq, ar in ((0, 0), (-4, 7), (2 ** 64 + 1, -2 ** 66)):
            assert Placement(shape, (aq, ar)).cells() == \
                {(q + aq, r + ar) for q, r in shape.offsets}


def window_lattice(window, kinds=KINDS):
    """The window's placements, as enumerate_placements gives them, and
    the window's lattice."""
    return enumerate_placements(window, kinds), IntegerLattice(window, kinds)


def test_integer_lattice_solves_combinations():
    rng = random.Random(31)
    placements, lattice = window_lattice(pad_window(HEX7_CELLS, 1))
    for _ in range(30):
        chosen = rng.sample(range(len(placements)), rng.randrange(1, 7))
        coeffs = {i: rng.choice([-2, -1, 1, 2]) for i in chosen}
        target = {}
        for i, k in coeffs.items():
            for cell in placements[i].cells():
                target[cell] = target.get(cell, 0) + k
        x = lattice.solve(target)
        assert x is not None
        got = {}
        for i, xi in enumerate(x):
            if xi:
                for cell in placements[i].cells():
                    got[cell] = got.get(cell, 0) + xi
        assert {c: v for c, v in got.items() if v} == \
            {c: v for c, v in target.items() if v}


def test_integer_lattice_rejects_unreachable():
    # a single cell cannot be bone-covered inside its own 3-cell window
    window = frozenset([(0, 0), (0, 1), (0, 2)])
    _, lattice = window_lattice(window, ("bone",))
    assert lattice.solve({(0, 0): 1}) is None


def net_of(placements, x) -> dict:
    """The non-zero net coverage of sum x_i * placement_i."""
    net = {}
    for placement, xi in zip(placements, x):
        for cell in placement.cells():
            net[cell] = net.get(cell, 0) + xi
    return {c: v for c, v in net.items() if v}


def assert_lattice_matches_dense(window, kinds, targets):
    """The lattice of the window's placement table has the dense oracle's
    pivot columns and positive pivot values, the diagonal of the Hermite
    normal form, which the lattice alone fixes for a fixed column order;
    its operation log, all (i, q, b) over placement numbers, replayed on
    identity rows turns the placements into its basis rows; it answers
    each target in or out as the dense oracle does, and every x it
    returns reproduces the target.  The oracle and the checks read the
    placements from enumerate_placements."""
    placements, lattice = window_lattice(window, kinds)
    dense = DenseIntegerLattice([p.cells() for p in placements], window)
    n = len(placements)
    assert [(col, row[col]) for col, row, _ in lattice._basis] == \
        [(col, dense._rows[r][col]) for r, col in dense._pivots]
    assert all(len(op) == 3 and all(type(a) is int for a in op)
               and 0 <= op[0] < n and 0 <= op[2] < n for op in lattice._log)
    transform = transform_from_log(lattice._log, n)
    for col, row, k in lattice._basis:
        assert net_of(placements, transform[k]) == \
            {lattice.cells[c]: v for c, v in row.items()}
    answers = [lattice.solve(t) for t in targets]
    for target, x, want in zip(targets, answers,
                               (dense.solve(t) for t in targets)):
        assert (x is None) == (want is None)
        if x is not None:
            assert net_of(placements, x) == \
                {c: v for c, v in target.items() if v}
    return answers


def dense_stone_probe(region, padding, monkeypatch):
    def dense(window, kinds):  # the oracle, on the placements' cell sets
        cells, _, rows = _placement_table(window, kinds)
        return DenseIntegerLattice([{cells[i] for i in t} for t in rows],
                                   cells)

    with monkeypatch.context() as patched:
        patched.setattr("hexsbs.tiling.IntegerLattice", dense)
        return min_stone_probe(region, padding)


def test_lattice_matches_dense_oracle_on_fixtures(monkeypatch):
    for name in REGION_FIXTURES:
        region = load_region(str(FIXTURES / name))
        target = {c: 1 for c in region.cells}
        for padding in (0, 1, 2):
            window = pad_window(region.cells, padding)
            for kinds in (KINDS, ("bone", "snake")):
                assert_lattice_matches_dense(window, kinds, [target])
            assert min_stone_probe(region, padding) == \
                dense_stone_probe(region, padding, monkeypatch), \
                (name, padding)


def test_lattice_matches_dense_oracle_on_random_regions(monkeypatch):
    rng = random.Random(61)
    solved = 0
    for _ in range(60):
        region = grow_random_region(rng, rng.randrange(1, 11))
        padding = rng.choice([0, 1, 2])
        window = pad_window(region.cells, padding)
        kinds = rng.choice([KINDS, ("bone", "snake")])
        target = {c: 1 for c in region.cells}
        x, = assert_lattice_matches_dense(window, kinds, [target])
        solved += x is not None
        assert min_stone_probe(region, padding) == \
            dense_stone_probe(region, padding, monkeypatch)
    assert 0 < solved < 60


def test_lattice_matches_dense_oracle_on_integer_targets():
    rng = random.Random(62)
    answers = []
    for _ in range(12):
        region = grow_random_region(rng, rng.randrange(1, 8))
        window = pad_window(region.cells, rng.choice([1, 2]))
        kinds = rng.choice([KINDS, ("bone", "snake"), ("bone",)])
        placements = enumerate_placements(window, kinds)
        cells = sorted(window)
        targets = []
        for _ in range(10):
            if rng.random() < 0.5:  # a lattice vector, so solvable
                target = {}
                for p in rng.sample(placements, min(4, len(placements))):
                    k = rng.randint(-3, 3)
                    for c in p.cells():
                        target[c] = target.get(c, 0) + k
            else:
                target = {c: rng.randint(-3, 3)
                          for c in rng.sample(cells, rng.randrange(1, 8))}
            targets.append(target)
        outside = max(cells)[0] + 1, 0
        targets.append({**targets[0], outside: 0})  # a zero is no obstacle
        targets += [{**t, outside: rng.choice([-3, -2, -1, 1, 2, 3])}
                    for t in targets[:3]]
        got = assert_lattice_matches_dense(window, kinds, targets)
        assert got[-3:] == [None] * 3
        answers += got
    assert sum(x is None for x in answers) < len(answers)


KIND_SETS = [kinds for n in (1, 2, 3)
             for kinds in itertools.combinations(KINDS, n)]


@pytest.mark.parametrize("kinds", KIND_SETS, ids=",".join)
def test_lattice_pivots_match_dense_for_every_kind_set(kinds):
    rng = random.Random(63)
    for _ in range(8):
        region = grow_random_region(rng, rng.randrange(1, 10))
        window = pad_window(region.cells, rng.choice([0, 1, 2]))
        assert_lattice_matches_dense(window, kinds,
                                     [{c: 1 for c in region.cells}])


def _pivot_product(lattice):
    return math.prod(row[col] for col, row, _ in lattice._basis)


@pytest.mark.parametrize("kinds", [KINDS, ("bone", "snake")],
                         ids=",".join)
def test_lattice_stops_at_the_colour_index(kinds):
    # hex7 padded by 2 holds all three colours, so the lattice of the
    # vectors with equal colour parities has index 4
    window = pad_window(HEX7_CELLS, 2)
    placements, lattice = window_lattice(window, kinds)
    assert len(lattice._basis) == len(window)
    assert _pivot_product(lattice) == 4
    assert lattice.rows_used < len(placements)


def test_bones_alone_insert_every_row():
    window = pad_window(HEX7_CELLS, 2)
    placements, lattice = window_lattice(window, ("bone",))
    assert lattice.rows_used == len(placements)
    assert len(lattice._basis) < len(window) or _pivot_product(lattice) > 4


def hex_distance(q: int, r: int) -> int:
    return max(abs(q), abs(r), abs(q + r))


def is_triangle(cells) -> bool:
    """Whether the cells are a 6-cell triangle: q >= a, r >= b and
    q + r <= a + b + 2 at the least q and r, or that turned half a turn."""
    qs, rs = {q for q, _ in cells}, {r for _, r in cells}
    a, b, c, d = min(qs), min(rs), max(qs), max(rs)
    return set(cells) in ({(a + i, b + j) for i in range(3)
                           for j in range(3 - i)},
                          {(c - i, d - j) for i in range(3)
                           for j in range(3 - i)})


@functools.cache
def brute_force_triangle_identities() -> tuple:
    """Every s(b) = s(b - t) + B1 - B2 for a stone s at b = (0, 0), with
    b - t an earlier anchor, found by trying each bone placement with its
    anchor within distance 3 as B2, as (stone, t, (B1, anchor of B1),
    (B2, anchor of B2)) in the order found."""
    near = [(q, r) for q in range(-6, 7) for r in range(-6, 7)
            if hex_distance(q, r) <= 6]
    bones = {Placement(s, a).cells(): (s.name, a)
             for s in tile_catalog() if s.kind == "bone" for a in near}
    found = []
    for stone in tile_catalog():
        if stone.kind != "stone":
            continue
        for cells, b2 in bones.items():
            if hex_distance(*b2[1]) > 3 or cells & stone.cells:
                continue
            union = stone.cells | cells
            for tq, tr in sorted(near):
                if (tq, tr) > (0, 0):
                    moved = Placement(stone, (-tq, -tr)).cells()
                    if moved <= union and union - moved in bones:
                        found.append((stone.name, (tq, tr),
                                      bones[union - moved], b2))
    return tuple(found)


def test_triangle_identities_are_found_by_brute_force():
    # the package's six identities are every stone that is an earlier
    # translate plus a bone minus a bone, each a cell multiset inside one
    # 6-cell triangle
    def cells(name, anchor):
        return list(Placement(tile_shape(*name.split("_", 1)),
                              anchor).cells())

    found = brute_force_triangle_identities()
    assert sorted(found) == sorted(_TRIANGLES)
    for stone, (tq, tr), (b1, d1), (b2, d2) in found:
        triangle = cells(stone, (0, 0)) + cells(b2, d2)
        assert sorted(triangle) == sorted(cells(stone, (-tq, -tr)) +
                                          cells(b1, d1))
        assert len(set(triangle)) == 6 and is_triangle(triangle)


def identity_spans(placements, kinds) -> list:
    """Per placement (shape, anchor), whether shape s at b has, for the
    axis d of a selected bone before s, placements s(b - d) and s(b - 2d);
    or, for a stone with bones selected, placements s(b - t), B1 and B2 of
    an identity s(b) = s(b - t) + B1 - B2 found by brute force.  The rules
    read from sets of placements, with d from the bone's sorted cells."""
    placed = set(placements)
    axes, triangles = [], []
    if "bone" in kinds:
        for bone in tile_catalog():
            if bone.kind == "bone":
                (aq, ar), (bq, br), _ = sorted(bone.cells)
                axes.append((bone.index, (bq - aq, br - ar)))
        for stone, t, *bones in brute_force_triangle_identities():
            triangles.append((stone, t, [
                (tile_shape(*name.split("_", 1)), d) for name, d in bones]))

    def spans(shape, q, r):
        return any(i < shape.index
                   and (shape, (q - dq, r - dr)) in placed
                   and (shape, (q - 2 * dq, r - 2 * dr)) in placed
                   for i, (dq, dr) in axes) or \
            any(stone == shape.name and (shape, (q - tq, r - tr)) in placed
                and all((bone, (q + dq, r + dr)) in placed
                        for bone, (dq, dr) in bones)
                for stone, (tq, tr), bones in triangles)

    return [spans(shape, q, r) for shape, (q, r) in placements]


LATTICE_KIND_SETS = [KINDS, ("bone", "snake"), ("bone",), ("bone", "stone"),
                     ("stone", "snake"), ("snake",), ("stone",)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 60),
       padding=st.integers(0, 3), kinds=st.sampled_from(LATTICE_KIND_SETS),
       shift=st.sampled_from([(0, 0), (-7, 4), (2 ** 64 + 5, -2 ** 70)]))
@example(seed=0, size=1, padding=2, kinds=KINDS, shift=(0, 0))
def test_skipped_rows_leave_the_basis_and_log_of_full_insertion(
        seed, size, padding, kinds, shift):
    # the shapes built are the placement table's; every row an identity
    # flags is skipped, and the basis, the log, the rows used and the
    # solution on them are the oracle's, which reduces every row
    region = grow_random_region(random.Random(seed), size)
    sq, sr = shift
    window = {(q + sq, r + sr) for q, r in pad_window(region.cells, padding)}
    cells, placements, rows = _placement_table(window, kinds)
    order, numbers, step, shapes = _placement_builder(window, kinds)
    built = list(_identity_flags(step, shapes))
    assert order == cells
    assert numbers == {c: i for i, c in enumerate(cells)}
    assert [(s, cells[a]) for s, anchors, _, _ in built
            for a in anchors] == placements
    assert [t for _, _, ts, _ in built for t in ts] == rows
    spanned = [f for _, _, _, fs in built for f in fs]
    assert spanned == identity_spans(placements, kinds)
    lattice = IntegerLattice(window, kinds)
    oracle = InsertionLattice(cells, rows)
    used = lattice.rows_used
    assert lattice._basis == oracle._basis
    assert lattice._log == oracle._log
    assert used == oracle.rows_used
    assert lattice.rows_skipped == sum(spanned[:used])
    assert lattice.placements == placements[:used]
    target = {(q + sq, r + sr): 1 for q, r in region.cells}
    x, want = lattice.solve(target), oracle.solve(target)
    if want is None:
        assert x is None
    else:
        assert x == want[:used] and not any(want[used:])


@pytest.mark.parametrize("kinds, used, skipped",
                         [(KINDS, 125, 82), (("bone", "snake"), 74, 34)],
                         ids=["all", "bone,snake"])
def test_rows_skipped_on_hex7_padded_by_2(kinds, used, skipped):
    # 37 cells: all kinds reduce 43 rows, bones and snakes 40
    _, lattice = window_lattice(pad_window(HEX7_CELLS, 2), kinds)
    assert (lattice.rows_used, lattice.rows_skipped) == (used, skipped)


def test_lattice_builds_no_shape_after_the_one_it_stops_in(monkeypatch):
    # on hex7 padded by 2 with all kinds the insertion stops after 125 of
    # the table's 231 rows, inside the first snake's rows, and the five
    # snakes after it are never built
    real, built = _placement_builder, []

    def recording(window, kinds):
        cells, numbers, step, shapes = real(window, kinds)
        return cells, numbers, step, (built.append(s) or s for s in shapes)

    window = pad_window(HEX7_CELLS, 2)
    assert len(_placement_table(window)[2]) == 231
    monkeypatch.setattr("hexsbs.tiling._placement_builder", recording)
    lattice = IntegerLattice(window)
    sizes = [len(rows) for _, _, rows in built]
    assert lattice.rows_used == 125
    assert sum(sizes[:-1]) < 125 <= sum(sizes)
    assert [s for s, _, _ in built] == list(tile_catalog()[:6])


def test_bones_only_table_builds_only_the_lists_its_walks_read(monkeypatch):
    # a bar of bones takes one neighbour list per bone axis, each built
    # once; the lattice's bone identity reads a backward step as well
    read = []

    class Recording(tuple):
        def __getitem__(self, k):
            read.append(k)
            return tuple.__getitem__(self, k)

    monkeypatch.setattr("hexsbs.tiling.NEIGHBOR_OFFSETS",
                        Recording(NEIGHBOR_OFFSETS))
    bar = [(0, r) for r in range(30)]
    assert len(_placement_table(bar, ("bone",))[2]) == 28
    axes = {(1, 0), (0, 1), (-1, 1)}
    assert len(read) == 3 and {NEIGHBOR_OFFSETS[k] for k in read} == axes
    # positive control: the lattice reads the list for the vertical
    # bone's backward step, which no walk takes
    read.clear()
    IntegerLattice(bar, ("bone",))
    assert len(read) == 4
    assert {NEIGHBOR_OFFSETS[k] for k in read} == axes | {(0, -1)}


def test_rows_reduced_grow_with_the_window_cells():
    # a count, not a time: the rows reduced stay near one per window cell
    blob = grow_random_region(random.Random(4), 300)
    assert boundary_obstruction_check(blob) is PMClass.PLUS_IDENTITY
    for cells, kinds in ((HEX7_CELLS, ("bone", "snake")), (HEX7_CELLS, KINDS),
                         (blob.cells, KINDS)):
        window = pad_window(cells, 2)
        _, lattice = window_lattice(window, kinds)
        assert lattice.rows_skipped > 0
        assert lattice.rows_used - lattice.rows_skipped <= 1.25 * len(window)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 40),
       padding=st.integers(0, 4),
       shift=st.sampled_from([(0, 0), (-7, 4), (2 ** 64 + 5, -2 ** 70),
                              (-2 ** 65, 2 ** 64)]))
def test_pad_window_matches_the_former_rescan(seed, size, padding, shift):
    # each step expands only the ring the step before added
    region = grow_random_region(random.Random(seed), size)
    sq, sr = shift
    cells = {(q + sq, r + sr) for q, r in region.cells}
    assert pad_window(cells, padding) == rescan_pad_window(cells, padding)


def colour_counts(cells) -> list:
    """How many cells of each colour (q - r) mod 3 there are."""
    return [sum((q - r) % 3 == k for q, r in cells) for k in range(3)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), size=st.integers(1, 60),
       built=st.booleans())
def test_class_is_pm_identity_exactly_when_colour_parities_agree(
        seed, size, built):
    rng = random.Random(seed)
    region = (tile_built_region(rng, 1 + size // 5) if built
              else grow_random_region(rng, size))
    agree = len({c % 2 for c in colour_counts(region.cells)}) == 1
    assert agree == (boundary_obstruction_check(region)
                     is not PMClass.OTHER)


def test_signed_tiling_hex7_without_stones():
    region = region_validate(HEX7_CELLS)
    tiling = signed_tiling_solve(region, ("bone", "snake"), padding=2)
    assert tiling is not None
    assert signed_tiling_verify(region, tiling) is None
    assert boundary_obstruction_check(region) is PMClass.PLUS_IDENTITY


def test_signed_tiling_empty_region():
    region = region_validate([], allow_empty=True)
    tiling = signed_tiling_solve(region)
    assert tiling == SignedTiling(())
    assert signed_tiling_verify(region, tiling) is None


def test_signed_tiling_bone_region_tight_window():
    bone = tile_shape("bone", "vertical")
    region = region_validate(bone.cells)
    tiling = signed_tiling_solve(region, ("bone",), padding=0)
    assert tiling is not None
    assert [(p.shape.name, p.anchor, c) for p, c in tiling.entries] == \
        [("bone_vertical", (0, 0), 1)]


def test_crescent_certificate():
    region = region_validate(CRESCENT_CELLS)
    entries = tuple((placement(k, o, a), c)
                    for k, o, a, c in CRESCENT_CERTIFICATE)
    tiling = SignedTiling(entries)
    assert signed_tiling_verify(region, tiling) is None
    # flipping the bone weight to +1 over-covers its cells
    flipped = SignedTiling(tuple((p, abs(c)) for p, c in entries))
    fail = signed_tiling_verify(region, flipped)
    assert fail is not None
    cell, got = fail
    assert got == 2


def test_crescent_certificate_matches_brute_force():
    # all one-of-each certificates with stone and snake positive, bone
    # negative
    window = pad_window(CRESCENT_CELLS, 2)
    crescent = set(CRESCENT_CELLS)
    hits = set()
    stones = enumerate_placements(window, ("stone",))
    snakes = enumerate_placements(window, ("snake",))
    bones = enumerate_placements(window, ("bone",))
    for s, k, b in itertools.product(stones, snakes, bones):
        cov = {}
        for cell in s.cells():
            cov[cell] = cov.get(cell, 0) + 1
        for cell in k.cells():
            cov[cell] = cov.get(cell, 0) + 1
        for cell in b.cells():
            cov[cell] = cov.get(cell, 0) - 1
        if all(cov.get(c, 0) == (1 if c in crescent else 0)
               for c in set(cov) | crescent):
            hits.add(((s.shape.name, s.anchor), (k.shape.name, k.anchor),
                      (b.shape.name, b.anchor)))
    assert len(hits) == 6
    fixture = tuple((f"{k}_{o}", a) for k, o, a, _ in CRESCENT_CERTIFICATE)
    assert fixture in hits


def test_barbell_cells_signed_tilable_without_stones():
    # not an edge-connected region, but still a lattice point of the
    # bones+snakes module
    tiling = solve_cell_target({c: 1 for c in BARBELL_CELLS},
                               ("bone", "snake"), padding=2)
    assert tiling is not None
    cov = tiling.net_coverage()
    assert {c: v for c, v in cov.items() if v} == \
        {c: 1 for c in BARBELL_CELLS}


def test_standard_tiling_bone():
    region = region_validate(tile_shape("bone", "vertical").cells)
    result = standard_tiling_solve(region, mode="count")
    assert (result.count, result.cap_exceeded) == (1, False)
    first = standard_tiling_solve(region, mode="first")
    assert first is not None and len(first) == 1


def test_standard_tiling_single_cell():
    region = region_validate([(0, 0)])
    assert standard_tiling_solve(region, mode="first") is None
    assert standard_tiling_solve(region, mode="count").count == 0


def test_standard_tiling_cap():
    # 2x2x2-of-bones style region with many tilings: cap must trip
    cells = [(q, r) for q in range(3) for r in range(3)]
    region = region_validate(cells)
    capped = standard_tiling_solve(region, mode="count", cap=0)
    full = standard_tiling_solve(region, mode="count")
    if full.count > 0:
        assert capped.cap_exceeded
    with pytest.raises(ValueError):
        standard_tiling_solve(region, mode="bogus")


def test_standard_tiling_is_a_signed_tiling():
    # an exact cover with all +1 weights is a valid signed tiling
    rng = random.Random(56)
    found = 0
    for _ in range(60):
        region = grow_random_region(rng, rng.choice([3, 4, 6, 7, 8, 9]))
        first = standard_tiling_solve(region, mode="first")
        if first is None:
            continue
        found += 1
        tiling = SignedTiling(tuple((p, 1) for p in first))
        assert signed_tiling_verify(region, tiling) is None
    assert found > 0


def test_standard_tiling_matches_brute_force():
    rng = random.Random(55)
    regions = [region_validate(HEX7_CELLS),
               region_validate(CRESCENT_CELLS)]
    regions += [grow_random_region(rng, rng.randrange(3, 10))
                for _ in range(40)]
    for region in regions:
        placements = enumerate_placements(region.cells)
        want = brute_force_tiling_count(region.cells, placements)
        got = standard_tiling_solve(region, mode="count")
        assert not got.cap_exceeded
        assert got.count == want, sorted(region.cells)


def tile_built_region(rng, tiles):
    """A simply connected union of `tiles` disjoint random placements,
    each touching the ones before it."""
    catalog = tile_catalog()
    cells = set(Placement(rng.choice(catalog), (0, 0)).cells())
    placed = 1
    while placed < tiles:
        shape = rng.choice(catalog)
        q, r = rng.choice(sorted({n for c in cells for n in neighbors(c)}
                                 - cells))
        oq, orr = rng.choice(sorted(shape.cells))
        new = Placement(shape, (q - oq, r - orr)).cells()
        if not new & cells and flood_is_simply_connected(cells | new):
            cells |= new
            placed += 1
    return region_validate(cells)


def table_covers(cells, kinds=KINDS):
    """_exact_covers on the placement table of `cells`, each cover as
    Placements."""
    order, placed, rows = _placement_table(cells, kinds)
    for cover in _exact_covers(len(order), rows):
        yield [Placement(*placed[i]) for i in cover]


def test_exact_cover_matches_recursive_oracle():
    rng = random.Random(57)
    regions = [region_validate(cells) for cells in
               (HEX7_CELLS, CRESCENT_CELLS, tile_shape("bone", "left").cells,
                [(q, r) for q in range(3) for r in range(3)])]
    regions += [grow_random_region(rng, rng.randrange(3, 13))
                for _ in range(50)]
    regions += [tile_built_region(rng, rng.randrange(2, 8))
                for _ in range(60)]
    totals = []
    for region in regions:
        label = sorted(region.cells)
        assert standard_tiling_solve(region) == \
            recursive_exact_cover(region), label
        for cap in (0, 1, 2, 10 ** 6):
            got = standard_tiling_solve(region, mode="count", cap=cap)
            assert got == recursive_exact_cover(region, mode="count",
                                                cap=cap), (label, cap)
        totals.append(got.count)
    # every cap is exceeded on some regions and not on others
    assert sum(n == 0 for n in totals) >= 10
    assert sum(n > 2 for n in totals) >= 10


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       built=st.booleans(),
       kinds=st.sampled_from([("bone",), ("bone", "snake"), KINDS]),
       cap=st.sampled_from([0, 1, 2, 5, 100]))
@example(seed=0, built=False, kinds=("bone",), cap=3)  # no cover
def test_exact_cover_sequence_matches_rescan_oracle(seed, built, kinds, cap):
    # the same covers in the same order, each in the same placement order
    rng = random.Random(seed)
    if built:
        region = tile_built_region(rng, rng.randrange(1, 9))
    else:
        region = grow_random_region(rng, rng.randrange(1, 25))
    placements = enumerate_placements(region.cells, kinds)
    got = list(islice(table_covers(region.cells, kinds), cap + 1))
    want = list(islice(rescan_exact_covers(region.cells, placements),
                       cap + 1))
    assert got == want


def test_exact_cover_sequence_matches_rescan_oracle_when_backtracking():
    # every cover in order, through many returned tiles: parallelograms
    # (4 x 5 is Other, so the ungated search backtracks to no cover) and
    # -I tile-built regions, which need their stones
    def parallelogram(w, h):
        return region_validate([(q, r) for q in range(w) for r in range(h)])

    cases = [(parallelogram(w, h), cap) for w, h in ((3, 4), (4, 5))
             for cap in (None, 2000)]
    cases += [(parallelogram(4, 6), None), (parallelogram(5, 6), 2000)]
    rng = random.Random(59)
    minus = []
    while len(minus) < 8:
        region = tile_built_region(rng, rng.randrange(5, 9))
        if boundary_obstruction_check(region) is PMClass.MINUS_IDENTITY:
            minus.append(region)
    cases += [(region, None) for region in minus]
    covers = []
    for region, cap in cases:
        placements = enumerate_placements(region.cells)
        stop = None if cap is None else cap + 1
        got = list(islice(table_covers(region.cells), stop))
        want = list(islice(rescan_exact_covers(region.cells, placements),
                           stop))
        assert got == want, sorted(region.cells)
        covers.append(len(got))
    assert covers[:6] == [17, 17, 0, 0, 544, 2001]
    assert all(n > 0 for n in covers[6:])


@pytest.mark.parametrize("length, tiles", [(6000, 2000), (3001, None)])
def test_exact_cover_linear_on_long_bars(length, tiles):
    # the rescanning search is quadratic: 3.1 s on a 1000-bone bar (2 cores)
    bar = region_validate([(0, r) for r in range(length)])
    start = time.perf_counter()
    first = standard_tiling_solve(bar, ("bone",))
    assert time.perf_counter() - start < 3
    if tiles is None:
        assert first is None
    else:
        assert len(first) == tiles
        tiling = SignedTiling(tuple((p, 1) for p in first))
        assert signed_tiling_verify(bar, tiling) is None


def test_exact_cover_deeper_than_recursion_limit():
    # one placed tile per recursive call would exceed this limit
    bar = region_validate([(0, r) for r in range(600)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        first = standard_tiling_solve(bar, ("bone",))
    finally:
        sys.setrecursionlimit(limit)
    assert len(first) == 200
    tiling = SignedTiling(tuple((p, 1) for p in first))
    assert signed_tiling_verify(bar, tiling) is None


def test_exact_cover_empty_region():
    empty = region_validate([], allow_empty=True)
    assert standard_tiling_solve(empty) == []
    count = standard_tiling_solve(empty, mode="count")
    assert (count.count, count.cap_exceeded) == (1, False)
    capped = standard_tiling_solve(empty, mode="count", cap=0)
    assert (capped.count, capped.cap_exceeded) == (0, True)


@pytest.mark.parametrize("padding", [True, False, 1.0, 2.5, "2", None])
def test_padding_must_be_an_int(padding):
    region = region_validate(HEX7_CELLS)
    other = region_validate([(0, 0)])  # answered without a window
    calls = [lambda: pad_window(region.cells, padding),
             lambda: signed_tiling_solve(region, padding=padding),
             lambda: signed_tiling_solve(other, padding=padding),
             lambda: signed_tiling_solve(
                 region_validate([], allow_empty=True), padding=padding),
             lambda: min_stone_probe(region, padding),
             lambda: min_stone_probe(other, padding)]
    for call in calls:
        with pytest.raises(ValueError, match="padding must be an int"):
            call()


@pytest.mark.parametrize("cap", [True, False, 2.5, "2", None])
def test_cap_must_be_an_int(cap):
    for region in (region_validate(HEX7_CELLS), region_validate([(0, 0)])):
        with pytest.raises(ValueError, match="cap must be an int"):
            standard_tiling_solve(region, mode="count", cap=cap)


@pytest.mark.parametrize("kinds, named", [
    (("bnoe",), "unknown tile kind 'bnoe'"),
    (("bone", "stoen", "bnoe"), "unknown tile kind 'stoen'"),
    (["bone", "Snake"], "unknown tile kind 'Snake'"),
    (("bone", None), "unknown tile kind None"),
    ("bonesnake", "not the string 'bonesnake'"),
    ("bone", "not the string 'bone'"),
])
@pytest.mark.parametrize("cells", [
    HEX7_CELLS,  # +I
    tile_shape("stone", "left").cells,  # -I, which no stone-free cover has
    [(0, 0)],  # Other, which no signed tiling has
    [],
], ids=["plus", "minus", "other", "empty"])
def test_unknown_kinds_rejected_before_any_gate(kinds, named, cells):
    region = region_validate(cells, allow_empty=True)
    calls = [lambda: enumerate_placements(region.cells, kinds),
             lambda: signed_tiling_solve(region, kinds),
             lambda: standard_tiling_solve(region, kinds),
             lambda: standard_tiling_solve(region, kinds, "count")]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(named)):
            call()


def test_kinds_may_be_any_collection_of_names():
    window = pad_window(HEX7_CELLS, 1)
    want = enumerate_placements(window, ("bone", "snake"))
    for kinds in (["snake", "bone"], {"bone", "snake"},
                  frozenset(("bone", "snake")), iter(("bone", "snake"))):
        assert enumerate_placements(window, kinds) == want
    region = region_validate(HEX7_CELLS)
    assert standard_tiling_solve(region, iter(["bone"])) == \
        standard_tiling_solve(region, ("bone",))


def element_order(m):
    k, power = 1, m
    while power != IDENTITY:
        power, k = power * m, k + 1
    return k


# the order-8 subgroup of the step group: its elements of order 1, 2 or 4
Q8 = frozenset(m for m in STEP_GROUP.elements if element_order(m) in (1, 2, 4))


# the coset of each element mod Q8, as the power j of X with m * X^-j in Q8
X_INV = STEP_MATRICES["x"]
COSET = {m: next(j for j, r in enumerate((IDENTITY, X_INV, X_INV * X_INV))
                 if m * r in Q8) for m in STEP_GROUP.elements}


def test_q8_is_a_subgroup_of_order_8():
    assert len(Q8) == 8
    assert all(a * b in Q8 for a in Q8 for b in Q8)
    assert all(g * a * g.inv() in Q8 for g in STEP_GROUP.elements for a in Q8)
    assert sorted(COSET.values()) == [0] * 8 + [1] * 8 + [2] * 8


def test_x_y_and_z_lie_in_one_nontrivial_coset_of_q8():
    assert {COSET[STEP_MATRICES[ch]] for ch in "XYZ"} == {1}
    assert {COSET[STEP_MATRICES[ch]] for ch in "xyz"} == {2}


def _assert_coset_is_the_endpoint_class(letters):
    u, v = path_endpoint((0, 0), step_word(letters))
    assert COSET[eval_word(step_word(letters))] == (v - u) % 3, letters


def test_coset_of_every_short_word_is_its_endpoint_class():
    for n in range(6):
        for letters in itertools.product("XYZxyz", repeat=n):
            _assert_coset_is_the_endpoint_class("".join(letters))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="XYZxyz", min_size=6, max_size=60))
def test_coset_of_a_step_word_is_its_endpoint_class(letters):
    # SL(2,3)/Q8 is Z/3, and X, Y and Z each map to its generator 1 and
    # move the endpoint by (u, v) with v - u = 1 mod 3
    _assert_coset_is_the_endpoint_class(letters)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), size=st.integers(1, 60),
       built=st.booleans())
def test_every_boundary_value_lies_in_q8(seed, size, built):
    # the paper's Q8 fact: a region's boundary word evaluates into the
    # order-8 subgroup, so its class mod +-I is one of four
    rng = random.Random(seed)
    region = (tile_built_region(rng, 1 + size // 5) if built
              else grow_random_region(rng, size))
    assert eval_word(region_boundary_word(region).word) in Q8


def test_negative_cap_and_padding_rejected():
    region = region_validate(HEX7_CELLS)
    with pytest.raises(ValueError, match="cap"):
        standard_tiling_solve(region, mode="count", cap=-1)
    with pytest.raises(ValueError, match="padding"):
        pad_window(region.cells, -1)
    with pytest.raises(ValueError, match="padding"):
        signed_tiling_solve(region, padding=-2)
    with pytest.raises(ValueError, match="padding"):
        signed_tiling_solve(region_validate([], allow_empty=True),
                            padding=-2)
    with pytest.raises(ValueError, match="padding"):
        min_stone_probe(region, padding=-2)
    other = region_validate([(0, 0)])  # answered without a window
    with pytest.raises(ValueError, match="padding"):
        signed_tiling_solve(other, padding=-1)
    with pytest.raises(ValueError, match="padding"):
        min_stone_probe(other, padding=-1)
    with pytest.raises(ValueError, match="cap"):
        standard_tiling_solve(other, mode="count", cap=-1)
    with pytest.raises(ValueError, match="mode"):
        standard_tiling_solve(other, mode="bogus")


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       built=st.booleans(),
       kinds=st.sampled_from([KINDS, ("bone", "snake"), ("bone",)]))
@example(seed=0, built=False, kinds=KINDS)  # a single cell: Other
def test_exact_cover_gate_matches_ungated_search(seed, built, kinds):
    # a region the boundary gate answers has no cover in the full search
    rng = random.Random(seed)
    if built:
        region = tile_built_region(rng, rng.randrange(1, 7))
    else:
        region = grow_random_region(rng, rng.randrange(1, 25))
    covers = list(islice(table_covers(region.cells, kinds), 101))
    assert standard_tiling_solve(region, kinds) == \
        (covers[0] if covers else None)
    assert standard_tiling_solve(region, kinds, "count", cap=100) == \
        TilingCount(min(len(covers), 100), len(covers) > 100)


def test_exact_cover_gate_answers_before_any_placement(monkeypatch):
    def no_placements(*args, **kwargs):
        raise AssertionError("placement table built for a gated region")

    hex4 = region_validate([(q, r) for q in range(-3, 4)
                            for r in range(-3, 4) if abs(q + r) <= 3])
    stone = region_validate(tile_shape("stone", "left").cells)
    assert boundary_obstruction_check(hex4) is PMClass.OTHER
    assert boundary_obstruction_check(stone) is PMClass.MINUS_IDENTITY
    monkeypatch.setattr("hexsbs.tiling._placement_builder", no_placements)
    for region, kinds in ((hex4, KINDS), (hex4, ("bone",)),
                          (stone, ("bone", "snake")), (stone, ("bone",))):
        assert standard_tiling_solve(region, kinds) is None
        for cap in (0, 10 ** 6):
            assert standard_tiling_solve(region, kinds, "count", cap) == \
                TilingCount(0, False)
    # positive control: a region the gate passes reaches the patched name
    bone = region_validate(tile_shape("bone", "vertical").cells)
    for region, kinds in ((bone, ("bone",)), (stone, KINDS)):
        with pytest.raises(AssertionError, match="placement table built"):
            standard_tiling_solve(region, kinds)
        with pytest.raises(AssertionError, match="placement table built"):
            standard_tiling_solve(region, kinds, "count", 10)


def test_boundary_obstruction():
    assert boundary_obstruction_check(
        region_validate(HEX7_CELLS)) is PMClass.PLUS_IDENTITY
    stone = tile_shape("stone", "right")
    assert boundary_obstruction_check(
        region_validate(stone.cells)) is PMClass.MINUS_IDENTITY
    assert boundary_obstruction_check(
        region_validate([(0, 0)])) is PMClass.OTHER


@pytest.mark.parametrize("cells, message", [
    (RING6_CELLS, "simply connected"),
    (((0, 0), (0, 2)), "edge-connected"),
])
def test_boundary_obstruction_rejects_unvalidated_non_region(cells, message):
    # a Region built directly is checked by the boundary walk itself, not
    # read as the class of whichever boundary cycle the walk met
    with pytest.raises(RegionError, match=message):
        boundary_obstruction_check(Region(frozenset(cells)))


def test_sequence_left_2x2x2():
    report = constructible_sequence_check(steps(SEQUENCE_2X2X2_LEFT))
    assert report.valid
    assert [r.boundary_class for r in report.records] == [
        PMClass.PLUS_IDENTITY, PMClass.PLUS_IDENTITY, PMClass.PLUS_IDENTITY,
        PMClass.PLUS_IDENTITY, PMClass.MINUS_IDENTITY, PMClass.PLUS_IDENTITY]
    assert [r.ledger_sign for r in report.records] == [1, 1, 1, 1, -1, 1]
    assert all(r.agrees for r in report.records)
    # the final support is the target hexagon
    support = set()
    for a, k, o, anchor in SEQUENCE_2X2X2_LEFT:
        cells = placement(k, o, anchor).cells()
        support = support | cells if a == "add" else support - cells
    assert tuple(sorted(support)) == SEQUENCE_2X2X2_LEFT_TARGET


def test_sequence_middle_2x2x2_rejected():
    report = constructible_sequence_check(steps(SEQUENCE_2X2X2_MIDDLE))
    assert not report.valid
    assert report.violation_index == 2
    assert report.violation_reason == "disconnected"
    # yet its net coverage is a genuine signed tiling of the hexagon
    net = {}
    for a, k, o, anchor in SEQUENCE_2X2X2_MIDDLE:
        for cell in placement(k, o, anchor).cells():
            net[cell] = net.get(cell, 0) + (1 if a == "add" else -1)
    assert {c for c, v in net.items() if v == 1} == \
        set(SEQUENCE_2X2X2_MIDDLE_TARGET)
    assert set(net.values()) <= {0, 1}


def test_sequence_crescent():
    report = constructible_sequence_check(steps(CRESCENT_SEQUENCE))
    assert report.valid
    assert report.records[-1].boundary_class is PMClass.MINUS_IDENTITY
    assert report.records[-1].ledger_sign == -1


def test_sequence_coverage_conflict():
    report = constructible_sequence_check(steps([
        ("add", "bone", "vertical", (0, 0)),
        ("add", "bone", "vertical", (0, 1)),
    ]))
    assert not report.valid
    assert (report.violation_index, report.violation_reason) == \
        (1, "coverage conflict")


def test_sequence_remove_uncovered():
    report = constructible_sequence_check(steps([
        ("add", "bone", "vertical", (0, 0)),
        ("remove", "stone", "left", (0, 0)),
    ]))
    assert not report.valid
    assert report.violation_reason == "coverage conflict"


def test_sequence_detached_add():
    report = constructible_sequence_check(steps([
        ("add", "bone", "vertical", (0, 0)),
        ("add", "bone", "vertical", (5, 5)),
    ]))
    assert not report.valid
    assert report.violation_reason == "interior placement"


def test_sequence_remove_of_an_interior_tile():
    # a 5 x 3 block of vertical bones; the middle one touches no outside
    adds = [("add", "bone", "vertical", (q, 3 * k))
            for q in range(5) for k in range(3)]
    report = constructible_sequence_check(steps(
        adds + [("remove", "bone", "vertical", (2, 3))]))
    assert not report.valid
    assert (report.violation_index, report.violation_reason) == \
        (15, "interior placement")
    assert len(report.records) == 15


def test_sequence_puncture():
    # two snakes whose union encloses the cell (-1, -1)
    report = constructible_sequence_check(steps([
        ("add", "snake", "flat_left", (0, -3)),
        ("add", "snake", "flat_right", (0, -1)),
    ]))
    assert not report.valid
    assert (report.violation_index, report.violation_reason) == \
        (1, "puncture")
    assert len(report.records) == 1


def random_steps(rng, length):
    """Up to `length` random adds and removes around a growing support.
    A step the walking oracle rejects is mostly redrawn and sometimes kept
    to end the sequence, and an add now and then lands far away, so every
    outcome of the check occurs."""
    catalog = tile_catalog()
    out, support = [], set()
    while len(out) < length:
        remove = bool(support) and rng.random() < 0.3
        pool = sorted(support) if remove else sorted(
            {n for c in support for n in neighbors(c)} - support) or [(0, 0)]
        q, r = rng.choice(pool)
        if rng.random() < 0.05:
            q += 9
        shape = rng.choice(catalog)
        oq, orr = rng.choice(sorted(shape.cells))
        out.append(ConstructionStep("remove" if remove else "add",
                                    Placement(shape, (q - oq, r - orr))))
        if not walking_sequence_check(out).valid:
            if rng.random() < 0.15:
                break
            out.pop()
            continue
        cells = out[-1].placement.cells()
        support = support - cells if remove else support | cells
    return out


def test_sequence_check_matches_walking_oracle_on_every_outcome():
    rng = random.Random(58)
    reasons, stone_records = {}, 0
    for _ in range(300):
        sequence = random_steps(rng, rng.randrange(1, 16))
        want = walking_sequence_check(sequence)
        assert constructible_sequence_check(sequence) == want
        reasons[want.violation_reason] = \
            reasons.get(want.violation_reason, 0) + 1
        stone_records += sum(r.kind == "stone" for r in want.records)
    assert set(reasons) == {None, "coverage conflict", "interior placement",
                            "disconnected", "puncture"}, reasons
    assert stone_records >= 100


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(1, 24))
def test_sequence_check_matches_walking_oracle(seed, length):
    sequence = random_steps(random.Random(seed), length)
    report = constructible_sequence_check(sequence)
    assert report == walking_sequence_check(sequence)
    assert all(r.agrees for r in report.records)


def test_sequence_check_walks_and_evaluates_nothing(monkeypatch):
    rng = random.Random(59)
    sequences = [steps(SEQUENCE_2X2X2_LEFT), steps(SEQUENCE_2X2X2_MIDDLE),
                 steps(CRESCENT_SEQUENCE)]
    sequences += [random_steps(rng, 12) for _ in range(40)]
    want = [walking_sequence_check(s) for s in sequences]

    def forbidden(*args, **kwargs):
        raise AssertionError("the sequence check built or read a region")

    for name in ("Region", "region_boundary_word", "eval_word"):
        monkeypatch.setattr(f"hexsbs.tiling.{name}", forbidden)
    assert [constructible_sequence_check(s) for s in sequences] == want


def test_sequence_check_linear_on_a_long_bar():
    # the walking check is quadratic: 4.9 s on a 1000-bone bar (2 cores)
    bone = tile_shape("bone", "vertical")
    bar = [ConstructionStep("add", Placement(bone, (0, 3 * i)))
           for i in range(10 ** 4)]
    start = time.perf_counter()
    report = constructible_sequence_check(bar)
    assert time.perf_counter() - start < 3
    assert report.valid and len(report.records) == 10 ** 4
    assert report.records[-1].support_size == 3 * 10 ** 4


def test_min_stone_probe_hex7():
    probe = min_stone_probe(region_validate(HEX7_CELLS))
    assert probe.stones == 0
    assert probe.boundary_class is PMClass.PLUS_IDENTITY
    assert probe.parity_consistent is True


def test_min_stone_probe_bone():
    probe = min_stone_probe(region_validate(
        tile_shape("bone", "vertical").cells))
    assert probe.stones == 0
    assert probe.parity_consistent is True


def test_min_stone_probe_crescent():
    # the lattice oracle finds a bones+snakes certificate inside the
    # padded window even though the boundary class is MinusIdentity: the
    # certificate is not boundary-constructible, so the parity comparison
    # is reported as inconsistent rather than asserted
    probe = min_stone_probe(region_validate(CRESCENT_CELLS))
    assert probe.stones == 0
    assert probe.boundary_class is PMClass.MINUS_IDENTITY
    assert probe.parity_consistent is False


def test_min_stone_probe_one_stone():
    # padding 0: the bones and snakes inside the region alone do not
    # reach it, one stone less does
    stone = region_validate(tile_shape("stone", "left").cells)
    assert min_stone_probe(stone, 0) == \
        StoneProbe(1, PMClass.MINUS_IDENTITY, True)
    plus = region_validate([(-1, -3), (-1, 1), (0, -3), (0, -2), (0, -1),
                            (0, 0), (1, -2), (1, -1), (2, -2)])
    assert min_stone_probe(plus, 0) == \
        StoneProbe(1, PMClass.PLUS_IDENTITY, False)


def assert_no_signed_tiling_in_windows(region):
    """The ungated lattice, which never looks at the boundary, finds no
    signed tiling of the region at padding 0, 1 or 2, with or without
    stones."""
    target = {c: 1 for c in region.cells}
    for padding in (0, 1, 2):
        window = pad_window(region.cells, padding)
        for kinds in (KINDS, ("bone", "snake")):
            assert solve_cell_target(target, kinds, window=window) is None, \
                (sorted(region.cells), padding, kinds)


def test_min_stone_probe_stops_at_other():
    # a boundary class of Other rules out a signed tiling with stones or
    # without, so the lattice the probe and the solver skip would find
    # none either
    regions = [load_region(str(FIXTURES / name)) for name in REGION_FIXTURES]
    rng = random.Random(94)
    regions += [grow_random_region(rng, rng.randrange(1, 16))
                for _ in range(40)]
    others = [r for r in regions
              if boundary_obstruction_check(r) is PMClass.OTHER]
    assert len(others) >= 20
    for region in others:
        for padding in (0, 1, 2):
            assert min_stone_probe(region, padding) == \
                StoneProbe(None, PMClass.OTHER, None)
            assert signed_tiling_solve(region, padding=padding) is None
        assert_no_signed_tiling_in_windows(region)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 14))
def test_other_regions_have_no_signed_tiling_in_any_window(seed, size):
    region = grow_random_region(random.Random(seed), size)
    assume(boundary_obstruction_check(region) is PMClass.OTHER)
    assert_no_signed_tiling_in_windows(region)


def test_other_region_is_answered_before_any_placement(monkeypatch):
    def spy(name):
        def called(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return called

    real_pad_window = pad_window
    for name in ("_placement_builder", "pad_window"):
        monkeypatch.setattr(f"hexsbs.tiling.{name}", spy(name))
    side6 = region_validate([(q, r) for q in range(-5, 6)
                             for r in range(-5, 6) if abs(q + r) <= 5])
    for region in (load_region(str(FIXTURES / "single_cell.json")), side6):
        assert boundary_obstruction_check(region) is PMClass.OTHER
        for padding in (0, 2):
            assert signed_tiling_solve(region, padding=padding) is None
            assert signed_tiling_solve(region, ("bone", "snake"),
                                       padding) is None
            assert min_stone_probe(region, padding) == \
                StoneProbe(None, PMClass.OTHER, None)
    # positive control: a +I region reaches both patched names
    bone = region_validate(tile_shape("bone", "vertical").cells)
    assert boundary_obstruction_check(bone) is PMClass.PLUS_IDENTITY
    for solve in (signed_tiling_solve, min_stone_probe):
        with pytest.raises(AssertionError, match="pad_window called"):
            solve(bone)
    monkeypatch.setattr("hexsbs.tiling.pad_window", real_pad_window)
    for solve in (signed_tiling_solve, min_stone_probe):
        with pytest.raises(AssertionError, match="_placement_builder called"):
            solve(bone)
    with pytest.raises(AssertionError, match="_placement_builder called"):
        solve_cell_target({c: 1 for c in bone.cells}, window=bone.cells)


@pytest.mark.parametrize("value", [1.5, 1.0, True, False, "1", None])
def test_solve_cell_target_rejects_non_integer_values(value):
    with pytest.raises(ValueError, match=r"cell \(0, 1\)"):
        solve_cell_target({(0, 0): 1, (0, 1): value})


def test_solver_window_completeness_random():
    rng = random.Random(91)
    for _ in range(15):
        region = grow_random_region(rng, rng.randrange(2, 8))
        window = pad_window(region.cells, 2)
        placements = enumerate_placements(window)
        combo = rng.sample(range(len(placements)),
                           min(5, len(placements)))
        target = {}
        for i in combo:
            sign = rng.choice([-1, 1])
            for cell in placements[i].cells():
                target[cell] = target.get(cell, 0) + sign
        target = {c: v for c, v in target.items() if v}
        tiling = solve_cell_target(target, window=window)
        assert tiling is not None
        cov = tiling.net_coverage()
        assert {c: v for c, v in cov.items() if v} == target


def test_solver_soundness_random_regions():
    rng = random.Random(92)
    for _ in range(10):
        region = grow_random_region(rng, rng.randrange(2, 9))
        tiling = signed_tiling_solve(region, padding=2)
        if tiling is not None:
            assert signed_tiling_verify(region, tiling) is None


def test_winding_matches_tile_cells():
    for name, letters in TILE_WORDS.items():
        wind = winding_cells(step_word(letters))
        assert wind == {c: 1 for c in EXPECTED_TILE_CELLS[name]}, name
