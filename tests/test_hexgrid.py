import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsbs.fixtures import (BARBELL_CELLS, BARBELL_WORD, HEX7_CELLS,
                             HEX7_WORD, RING6_CELLS, TILE_WORDS)
from hexsbs.hexgrid import (STEP_DISPLACEMENTS, STEP_EDGE_DELTAS, Region,
                            RegionError, _walk_from, cell_center_plane,
                            grow_random_region, is_closed, is_edge_connected,
                            lattice_to_plane, neighbors, path_endpoint,
                            plane_to_lattice, region_boundary_word,
                            region_from_ascii, region_from_json,
                            region_validate, ring_arcs)
from hexsbs.words import (STEP_TO_EDGES, WordError, closure, eval_word,
                          invert_word, step_to_edge, step_word)

from oracles import (euler_characteristic, flood_is_simply_connected,
                     scanning_region_validate, winding_cells)


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
    region = region_validate(staircase)
    bw = region_boundary_word(region)
    assert bw == region_boundary_word(Region(region.cells))
    assert len(bw.word) == (6 * 300 - 2 * 299) // 2


def test_empty_region_has_no_boundary_word():
    with pytest.raises(RegionError, match="empty region"):
        region_boundary_word(Region(frozenset()))


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
            walk = _walk_from(region.cells, cell, k)
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
