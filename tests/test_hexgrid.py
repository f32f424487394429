import random

import pytest

from hexsbs.fixtures import (BARBELL_CELLS, BARBELL_WORD, HEX7_CELLS,
                             HEX7_WORD, RING6_CELLS, TILE_WORDS)
from hexsbs.hexgrid import (RegionError, cell_center_plane,
                            grow_random_region, is_closed, is_edge_connected,
                            is_simply_connected, lattice_to_plane, neighbors,
                            path_endpoint, plane_to_lattice,
                            region_boundary_word, region_from_ascii,
                            region_from_json, region_validate, winding_cells)
from hexsbs.words import (WordError, closure, eval_word, invert_word,
                          step_to_edge, step_word)

from oracles import flood_is_simply_connected


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


def test_hole_test_matches_flood_oracle():
    # connected blobs grown at random, some with cells cut back out
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(600):
        cells = {(0, 0)}
        for _ in range(rng.randrange(40)):
            frontier = sorted({n for c in cells for n in neighbors(c)}
                              - cells)
            cells.add(rng.choice(frontier))
        cut = min(rng.randrange(4), len(cells) - 1)
        cells -= set(rng.sample(sorted(cells), cut))
        if not is_edge_connected(cells):
            continue
        want = flood_is_simply_connected(cells)
        assert is_simply_connected(cells) is want, sorted(cells)
        seen[want] += 1
    assert min(seen.values()) >= 50, seen


def test_hole_test_on_rings_and_paths():
    assert not is_simply_connected(RING6_CELLS)
    assert is_simply_connected([])
    staircase = [(q, -(q // 2)) for q in range(300)]
    assert is_edge_connected(staircase)
    assert is_simply_connected(staircase)


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


def test_boundary_word_start_choice():
    region = region_validate(HEX7_CELLS)
    default = region_boundary_word(region)
    other = region_boundary_word(region, start_choice=((0, 0), 0))
    cls = closure(default.word).members
    assert other.word.letters in cls
    doubled = default.word.letters * 2
    assert other.word.letters in doubled  # cyclic permutation
    with pytest.raises(RegionError):
        region_boundary_word(region, start_choice=((-1, 0), 0))  # interior


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


def test_plane_round_trip():
    for u in range(-3, 4):
        for v in range(-3, 4):
            assert plane_to_lattice(lattice_to_plane((u, v))) == (u, v)
    with pytest.raises(ValueError):
        plane_to_lattice(cell_center_plane((0, 0)))


def test_region_json_round_trip():
    import json
    region = region_validate(HEX7_CELLS)
    again = region_from_json(json.dumps(region.to_json()))
    assert again == region
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
