import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsbs.fixtures import (BARBELL_CELLS, BARBELL_WORD, HEX7_CELLS,
                             HEX7_WORD, RING6_CELLS, TILE_WORDS)
from hexsbs.hexgrid import (STEP_DISPLACEMENTS, STEP_EDGE_DELTAS, Region,
                            RegionError, _boundary_walk, _walk_from,
                            cell_center_plane, grow_random_region, is_closed,
                            is_edge_connected, lattice_to_plane, neighbors,
                            path_endpoint, plane_to_lattice,
                            region_boundary_word, region_from_ascii,
                            region_from_json, region_validate, ring_arcs)
from hexsbs.words import (STEP_TO_EDGES, WordError, closure, eval_word,
                          invert_word, step_to_edge, step_word)

from oracles import (euler_characteristic, flood_is_simply_connected,
                     pair_count_boundary_walk, reversed_pair_boundary_word,
                     scanning_region_validate, winding_cells)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_path_endpoint():
    assert path_endpoint((0, 0), step_word("XYZ")) == (0, 0)
    assert path_endpoint((0, 0), step_word("XXXXXX")) == (0, 6)
    assert path_endpoint((0, 0), step_word("")) == (0, 0)
    # translation invariance
    assert path_endpoint((3, -2), step_word("XyzZ")) == \
        tuple(a + b for a, b in zip((3, -2),
                                    path_endpoint((0, 0), step_word("XyzZ"))))


def test_is_closed():
    assert is_closed(step_word("XYZ"))
    assert not is_closed(step_word("XXXXXX"))
    assert is_closed(step_word("Xx"))


def test_displacement_homomorphism():
    rng = random.Random(21)
    letters = "XYZxyz"
    for _ in range(200):
        u = "".join(rng.choice(letters) for _ in range(rng.randrange(9)))
        v = "".join(rng.choice(letters) for _ in range(rng.randrange(9)))
        eu = path_endpoint((0, 0), step_word(u))
        ev = path_endpoint((0, 0), step_word(v))
        assert path_endpoint((0, 0), step_word(u + v)) == \
            (eu[0] + ev[0], eu[1] + ev[1])


def test_winding_zero_area_triangle():
    assert winding_cells(step_word("XYZ")) == {}


def test_winding_unit_cell():
    assert winding_cells(step_word("ZYX")) == {(0, 0): 1}


def test_winding_barbell():
    wind = winding_cells(step_word(BARBELL_WORD))
    assert wind == {cell: 1 for cell in BARBELL_CELLS}


def test_winding_open_path_rejected():
    with pytest.raises(WordError):
        winding_cells(step_word("XX"))


def test_winding_orientation():
    # reversing the loop flips every winding number
    wind = winding_cells(invert_word(step_word("ZYX")))
    assert wind == {(0, 0): -1}


def test_region_validate():
    region = region_validate(HEX7_CELLS)
    assert len(region) == 7
    with pytest.raises(RegionError, match="edge-connected"):
        region_validate([(0, 0), (1, 1)])  # share only a vertex
    with pytest.raises(RegionError, match="simply connected"):
        region_validate(RING6_CELLS)
    with pytest.raises(RegionError, match="empty"):
        region_validate([])
    assert len(region_validate([], allow_empty=True)) == 0


@pytest.mark.parametrize("cells, message", [
    ([[0, 0], [0.9, 0]], "cell 1: coordinate 0.9 is not an integer"),
    ([[0, 0], [1, False]], "cell 1: coordinate False is not an integer"),
    ([[0, "1"]], "cell 0: coordinate '1' is not an integer"),
    ([[0, 0], [0, 1, 2]], r"cell 1: \[0, 1, 2\] is not a \[q, r\] pair"),
    ([[0, 0], 5], r"cell 1: 5 is not a \[q, r\] pair"),
    ([[0, 0], [0, 1], [0, 0]], r"cell 2: \[0, 0\] is a duplicate"),
])
def test_region_validate_rejects_malformed_cells(cells, message):
    with pytest.raises(RegionError, match=message):
        region_validate(cells)


class Coordinate(int):
    """An int subclass: the bulk check leaves it to the per-index scan."""


_ODD_ENTRIES = [
    [0.5, 0], [1, 1.0], (0, 1.5), [True, 0], (0, False), [0, "1"],
    [0, 1, 2], [0], [], "ab", "00", 5, None, [[1], [2]], [0, [1]], ({}, 0),
    [Coordinate(1), 0], (0, Coordinate(-1)),
]
_ENTRIES = st.one_of(
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.sampled_from(_ODD_ENTRIES))


@st.composite
def _cell_lists(draw):
    """A random region's cells as lists or tuples, or nothing, with valid
    pairs, repeats and malformed entries mixed in at random places."""
    cells = []
    if draw(st.booleans()):
        region = grow_random_region(random.Random(draw(st.integers(0, 999))),
                                    draw(st.integers(1, 12)))
        cells = [list(c) if draw(st.booleans()) else c
                 for c in region.sorted_cells()]
    for entry in draw(st.lists(_ENTRIES, max_size=4)):
        cells.insert(draw(st.integers(0, len(cells))), entry)
    if cells and draw(st.booleans()):
        cells.insert(draw(st.integers(0, len(cells))),
                     draw(st.sampled_from(cells)))
    return cells


def _validation(validate, cells, allow_empty):
    try:
        region = validate(cells, allow_empty)
    except RegionError as e:
        return str(e)
    return region.cells, region.walk


@settings(max_examples=400, deadline=None)
@given(_cell_lists(), st.booleans())
def test_bulk_region_check_matches_per_index_scan(cells, allow_empty):
    assert (_validation(region_validate, cells, allow_empty)
            == _validation(scanning_region_validate, cells, allow_empty))


def test_unhashable_coordinate_is_named_not_hashed():
    # coordinate types are checked before any entry is hashed
    for cells in ([[[1], [2]]], [(0, 0), ([1], 2)], [[0, 0], [0, {}]]):
        with pytest.raises(RegionError) as err:
            region_validate(cells)
        assert str(err.value) == _validation(
            scanning_region_validate, cells, False)
    with pytest.raises(RegionError,
                       match=r"^cell 0: coordinate \[1\] is not an integer$"):
        region_validate([[[1], [2]]])


def test_region_validate_takes_any_iterable():
    region = region_validate(HEX7_CELLS)
    for cells in (iter(HEX7_CELLS), set(HEX7_CELLS), tuple(HEX7_CELLS),
                  (list(c) for c in HEX7_CELLS)):
        assert region_validate(cells).cells == region.cells


def _cell_sets(rng, count):
    """One or two random blobs, some with cells cut back out."""
    for _ in range(count):
        cells = set()
        for _ in range(rng.randrange(1, 3)):
            piece = {(rng.randrange(-6, 7), rng.randrange(-6, 7))}
            for _ in range(rng.randrange(30)):
                frontier = sorted({n for c in piece for n in neighbors(c)}
                                  - piece)
                piece.add(rng.choice(frontier))
            cells |= piece
        cut = min(rng.randrange(5), len(cells) - 1)
        cells -= set(rng.sample(sorted(cells), cut))
        yield cells


def test_hole_test_matches_flood_oracle():
    # the one boundary walk accepts exactly the connected sets without a
    # hole, and names the first of the two faults it finds
    seen = {}
    for cells in _cell_sets(random.Random(31), 800):
        connected = is_edge_connected(cells)
        holed = not flood_is_simply_connected(cells)
        seen[connected, holed] = seen.get((connected, holed), 0) + 1
        if connected and not holed:
            region = region_validate(sorted(cells))
            assert region.cells == cells
            continue
        message = ("not edge-connected" if not connected
                   else r"not simply connected \(hole detected\)")
        with pytest.raises(RegionError, match=message):
            region_validate(sorted(cells))
        with pytest.raises(RegionError, match=message):
            region_boundary_word(Region(frozenset(cells)))
    assert len(seen) == 4 and min(seen.values()) >= 50, seen


def test_hole_test_on_rings_and_paths():
    with pytest.raises(RegionError, match="simply connected"):
        region_validate(RING6_CELLS)
    ring_and_cell = list(RING6_CELLS) + [(9, 9)]
    with pytest.raises(RegionError, match="edge-connected"):
        region_validate(ring_and_cell)
    staircase = [(q, -(q // 2)) for q in range(300)]
    assert is_edge_connected(staircase)
    assert is_edge_connected([])
    region = region_validate(staircase)
    bw = region_boundary_word(region)
    assert bw == region_boundary_word(Region(region.cells))
    assert len(bw.word) == (6 * 300 - 2 * 299) // 2


def _runs(cells, cell, k):
    """The column runs that the walk from edge k of `cell` pairs off:
    its sorted bottoms and tops, zipped."""
    _, bottoms, tops = _walk_from(cells, cell, k)
    return list(zip(sorted(bottoms), sorted(tops)))


def _least_start(cells):
    cell = min(cells)
    return cell, next(k for k, n in enumerate(neighbors(cell))
                      if n not in cells)


def _ring(center, radius):
    q0, r0 = center
    return [(q0 + q, r0 + r) for q in range(-radius, radius + 1)
            for r in range(-radius, radius + 1)
            if max(abs(q), abs(r), abs(q + r)) == radius]


NOT_CONNECTED = r"^region is not edge-connected$"
HOLED = r"^region is not simply connected \(hole detected\)$"


def test_ring_with_a_hook_and_a_far_cell_fills_to_its_own_size():
    # the hook makes the least cell's walk the ring's outer cycle; filled,
    # that piece holds 8 cells, as many as the set, so only the runs'
    # membership test tells the hole cell from the far cell
    cells = frozenset(RING6_CELLS + ((-2, 1), (9, 9)))
    runs = _runs(cells, *_least_start(cells))
    assert sum(hi - lo + 1 for (_, lo), (_, hi) in runs) == len(cells)
    assert all(q == top_q and lo <= hi for (q, lo), (top_q, hi) in runs)
    assert (0, 0) not in cells
    with pytest.raises(RegionError, match=NOT_CONNECTED):
        region_validate(cells)


def test_ring_walks_its_hole_and_pairs_each_top_below_its_bottom():
    cells = frozenset(RING6_CELLS)
    cell, k = _least_start(cells)
    assert (cell, k) == ((-1, 0), 0)  # facing the hole (0, 0)
    assert _walk_from(cells, cell, k) == ("BAgbaG", [(0, 1)], [(0, -1)])
    with pytest.raises(RegionError, match=HOLED):
        region_validate(cells)


@pytest.mark.parametrize("cells", [
    _ring((0, 0), 2) + [(0, 0)],  # an island inside a lake
    _ring((0, 0), 2) + [(0, 0), (-3, 1)],  # the same, walked outside
    _ring((0, 0), 2) + _ring((0, 0), 4) + [(0, 0)],  # nested rings
    [(0, 0), (0, 1), (1, 0), (0, 4), (0, 5), (1, 3)],  # columns shared
    [(0, r) for r in range(5)] + [(0, r) for r in range(7, 12)],
    [(0, 0), (2, 0)],
])
def test_pieces_that_a_walk_can_miss_are_not_connected(cells):
    assert is_edge_connected(cells) is False
    with pytest.raises(RegionError, match=NOT_CONNECTED):
        region_validate(cells)
    with pytest.raises(RegionError, match=NOT_CONNECTED):
        pair_count_boundary_walk(frozenset(cells))


@pytest.mark.parametrize("cells", [
    _ring((0, 0), 2),
    _ring((0, 0), 2) + [(-3, 1)],  # walked outside: 20 filled, 13 cells
    _ring((0, 0), 2) + _ring((0, 0), 1)[:5],  # a hole of one cell
    _ring((5, -3), 1) + [(5, -1), (5, 0)],
])
def test_one_piece_with_a_hole_is_rejected(cells):
    assert is_edge_connected(cells)
    with pytest.raises(RegionError, match=HOLED):
        region_validate(cells)


def _serpentine(columns, height):
    """A thin path up one column, along the top, down the next, ..."""
    cells = []
    for i in range(columns):
        rs = range(height) if i % 2 == 0 else range(height - 1, -1, -1)
        cells += [(2 * i, r - i) for r in rs]
        if i + 1 < columns:
            r = height - 1 - i if i % 2 == 0 else -i
            cells.append((2 * i + 1, r))
    return cells


@pytest.mark.parametrize("cells", [
    [(0, r) for r in range(50)],
    [(q, 0) for q in range(50)],
    _serpentine(7, 9),
    _ring((0, 0), 2) + _ring((0, 0), 1) + [(0, 0)],
])
def test_thin_and_filled_regions_keep_the_former_walk(cells):
    assert len(set(cells)) == len(cells)
    region = region_validate(cells)
    assert region.walk == pair_count_boundary_walk(region.cells)
    runs = _runs(region.cells, *region.walk[:2])
    assert sum(hi - lo + 1 for (_, lo), (_, hi) in runs) == len(cells)


def _verdict(walk, cells):
    try:
        return walk(cells)
    except RegionError as e:
        return str(e)


@st.composite
def _punched_regions(draw):
    """A grown region with some cells punched out, inner ones or any, and
    some pieces added, near it or far off."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    cells = set(grow_random_region(rng, draw(st.integers(1, 40))).cells)
    inner = sorted(c for c in cells if cells.issuperset(neighbors(c)))
    punch = inner if inner and draw(st.booleans()) else sorted(cells)
    for cell in draw(st.lists(st.sampled_from(punch), max_size=4)):
        if len(cells) > 1:
            cells.discard(cell)
    for _ in range(draw(st.integers(0, 2))):
        q, r = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
        cells.update(_ring((q, r), draw(st.integers(0, 2))))
    return frozenset(cells)


@settings(max_examples=400, deadline=None)
@given(_punched_regions())
def test_run_check_matches_flood_and_pair_count(cells):
    # the same verdict, and on a region the same kept walk, as the former
    # check, whose walk shares no code with the package's
    got = _verdict(_boundary_walk, cells)
    assert got == _verdict(pair_count_boundary_walk, cells)
    if not is_edge_connected(cells):
        assert got == "region is not edge-connected"
    elif not flood_is_simply_connected(cells):
        assert got == "region is not simply connected (hole detected)"
    else:
        assert got[:2] == _least_start(cells)


def test_empty_region_has_no_boundary_word():
    with pytest.raises(RegionError, match="empty region"):
        region_boundary_word(Region(frozenset()))


@pytest.mark.parametrize("name", [
    "hex7.json", "hex7.txt", "single_cell.json", "bone.json",
    "crescent.json"])
def test_boundary_word_matches_reversed_pair_oracle_on_fixtures(name):
    path = FIXTURES / name
    load = region_from_ascii if name.endswith(".txt") else region_from_json
    region = load(path.read_text())
    assert region_boundary_word(region) == reversed_pair_boundary_word(region)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), size=st.integers(1, 80))
def test_boundary_word_matches_reversed_pair_oracle(seed, size):
    # on a grown region (no kept walk) and on its validated copy
    grown = grow_random_region(random.Random(seed), size)
    kept = region_validate(grown.sorted_cells())
    for region in (grown, kept):
        assert (region_boundary_word(region)
                == reversed_pair_boundary_word(region))


def test_boundary_word_hex7():
    bw = region_boundary_word(region_validate(HEX7_CELLS))
    assert bw.word.letters in closure(step_word(HEX7_WORD)).members
    assert winding_cells(bw.word, bw.start) == {c: 1 for c in HEX7_CELLS}


def test_boundary_word_single_cell():
    bw = region_boundary_word(region_validate([(0, 0)]))
    assert len(bw.word) == 3
    assert bw.word.letters in closure(step_word("XZY")).members
    assert bw.word.letters not in closure(step_word("XYZ")).members


def test_boundary_word_tiles():
    for name, letters in TILE_WORDS.items():
        cells = winding_cells(step_word(letters))
        bw = region_boundary_word(region_validate(cells))
        assert bw.word.letters in closure(step_word(letters)).members, name


def test_boundary_walk_is_the_same_cycle_from_every_start():
    # the kept walk starts at the least boundary edge; a walk from any
    # other boundary edge is a rotation of it, so the start picks no word
    rng = random.Random(11)
    regions = [HEX7_CELLS] + [grow_random_region(rng, n).cells
                              for n in (1, 2, 5, 12, 30)]
    for cells in regions:
        region = region_validate(cells)
        kept = region.walk[2]
        starts = [(cell, k) for cell in region.cells
                  for k, n in enumerate(neighbors(cell))
                  if n not in region.cells]
        assert len(starts) == len(kept)
        for cell, k in starts:
            walk, _, _ = _walk_from(region.cells, cell, k)
            assert len(walk) == len(kept) and walk in kept + kept


def test_closure_members_of_closed_word_are_closed():
    for member in closure(step_word(HEX7_WORD)).members:
        assert is_closed(step_word(member))


def test_random_regions_winding_indicator():
    rng = random.Random(4242)
    for _ in range(200):
        region = grow_random_region(rng, rng.randrange(1, 13))
        bw = region_boundary_word(region)
        assert is_closed(bw.word)
        assert winding_cells(bw.word, bw.start) == \
            {c: 1 for c in region.cells}


def test_boundary_edge_step_consistency():
    rng = random.Random(77)
    for _ in range(40):
        region = grow_random_region(rng, rng.randrange(1, 11))
        bw = region_boundary_word(region)
        assert eval_word(step_to_edge(bw.word)) == eval_word(bw.word)


def test_step_tables_follow_from_edge_pairs():
    # each step walks its written edge pair backwards, from a shaded
    # vertex to the next one
    letter_of = {"A": (1, 1), "B": (-1, 1), "G": (-2, 0),
                 "a": (-1, -1), "b": (1, -1), "g": (2, 0)}
    for step, pair in STEP_TO_EDGES.items():
        first, second = (letter_of[e] for e in reversed(pair))
        assert STEP_EDGE_DELTAS[step] == (first, second)
        x, y = lattice_to_plane((0, 0))
        assert (x + first[0]) % 3 == 2  # the midpoint is unshaded
        end = (x + first[0] + second[0], y + first[1] + second[1])
        assert plane_to_lattice(end) == STEP_DISPLACEMENTS[step]
    assert STEP_DISPLACEMENTS == {"X": (0, 1), "Y": (-1, 0), "Z": (1, -1),
                                  "x": (0, -1), "y": (1, 0), "z": (-1, 1)}


def test_plane_round_trip():
    for u in range(-3, 4):
        for v in range(-3, 4):
            assert plane_to_lattice(lattice_to_plane((u, v))) == (u, v)
    with pytest.raises(ValueError):
        plane_to_lattice(cell_center_plane((0, 0)))


def test_region_json_round_trip():
    text = ('{"cells": [[-2, 0], [-2, 1], [-1, -1], [-1, 0], [-1, 1], '
            '[0, -1], [0, 0]]}')
    assert region_from_json(text) == region_validate(HEX7_CELLS)
    with pytest.raises(RegionError):
        region_from_json('{"not_cells": []}')


def test_region_json_nested_past_the_parser_stack_is_a_region_error():
    # past the parser's stack on 3.10-3.13; 3.13 reads 5000 deep
    with pytest.raises(RegionError, match="JSON nested too deep to read"):
        region_from_json("[" * 100000 + "]" * 100000)


def test_region_ascii():
    region = region_from_ascii(".#.\n###\n###\n")
    assert len(region) == 7
    # same shape as the canonical hexagon, translated
    dq = min(q for q, r in region.cells) - min(q for q, r in HEX7_CELLS)
    translated = any(
        {(q - dq, r - dr) for q, r in region.cells} == set(HEX7_CELLS)
        for dr in range(-6, 7))
    assert translated
    with pytest.raises(RegionError):
        region_from_ascii("#?#")


def test_grow_random_region_valid():
    rng = random.Random(1)
    for _ in range(25):
        region = grow_random_region(rng, 9)
        assert region_validate(region.cells) == region


@pytest.mark.parametrize("n_cells, message", [
    (True, "n_cells must be an int, got True"),
    (False, "n_cells must be an int, got False"),
    (2.5, "n_cells must be an int, got 2.5"),
    (3.0, "n_cells must be an int, got 3.0"),
    ("3", "n_cells must be an int, got '3'"),
    (None, "n_cells must be an int, got None"),
    (0, "n_cells must be >= 1"),
    (-3, "n_cells must be >= 1"),
])
def test_grow_random_region_size_is_strict(n_cells, message):
    # the former grower gave 1 cell for 0, -3 or True, and 3 for 2.5
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        grow_random_region(random.Random(1), n_cells)


def test_grow_random_region_large():
    # the former grower retried whole regions until one had no hole, and
    # gave up at 150 cells
    for n in (150, 200, 500):
        cells = grow_random_region(random.Random(1), n).cells
        assert len(cells) == n
        assert is_edge_connected(cells)
        assert flood_is_simply_connected(cells)


BOX = [(q, r) for q in range(5) for r in range(5)]


@settings(max_examples=200, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=len(BOX), max_size=len(BOX)),
       at=st.integers(0, len(BOX) - 1))
def test_ring_arcs_is_the_euler_characteristic_step(mask, at):
    # 1 - arcs is the change in cells - pairs + triples when a cell joins
    cells = {c for c, keep in zip(BOX, mask) if keep}
    cell = BOX[at]
    cells.discard(cell)
    assert 1 - ring_arcs(cell, cells) == \
        euler_characteristic(cells | {cell}) - euler_characteristic(cells)


def test_euler_characteristic_counts_pieces_less_holes():
    rng = random.Random(31)
    for _ in range(30):
        region = grow_random_region(rng, rng.randrange(1, 30))
        assert euler_characteristic(region.cells) == 1
    assert euler_characteristic(RING6_CELLS) == 0  # one hole
    assert euler_characteristic(BARBELL_CELLS) == 2  # two single cells
