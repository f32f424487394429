"""Shared fixture data: tile words, relation tables, benchmark regions.

Pure data, importable from anywhere in the package.  Words are written in
the composition-order convention of :mod:`hexsbs.words`; cells use axial
coordinates (q, r) with north = (0, 1), northeast = (1, 0).
"""

from __future__ import annotations

# The 11 tile boundary words in the step alphabet, keyed by
# "<kind>_<orientation>" in catalog order: three bones, two stones, six
# snakes.  Bones and snakes evaluate to I, stones to -I.
TILE_WORDS = {
    "bone_left": "ZZZYzzX",
    "bone_vertical": "ZxxYXXX",
    "bone_right": "ZYYYXyy",
    "stone_left": "ZZYYXX",
    "stone_right": "yZxYzX",
    "snake_flat_left": "ZyZZYzYzX",
    "snake_vertical_left": "ZxZxYXzXX",
    "snake_flat_right": "yZyZYYzYX",
    "snake_left": "ZZxZYzXzX",
    "snake_vertical_right": "ZxYxYXXyX",
    "snake_right": "yZYxYYXyX",
}

# The same boundaries written in the edge alphabet (A/B/G = the three edge
# generators, lowercase = inverses).  Some start mid-step, so converting to
# step letters may need the one-edge phase shift of words.edge_to_step.
TILE_EDGE_WORDS = {
    "bone_left": "gb" * 3 + "a" + "GB" * 3 + "A",
    "bone_vertical": "g" + "ba" * 3 + "G" + "BA" * 3,
    "bone_right": "b" + "aG" * 3 + "B" + "Ag" * 3,
    "stone_left": "gb" * 2 + "aG" * 2 + "BA" * 2,
    "stone_right": "ba" * 2 + "GB" * 2 + "Ag" * 2,
    "snake_flat_left": "Agbg" * 2 + "b" + "aGBG" * 2 + "B",
    "snake_vertical_left": "gbab" * 2 + "a" + "GBAB" * 2 + "A",
    "snake_flat_right": "gAgb" * 2 + "a" + "GaGB" * 2 + "A",
    "snake_left": "g" + "bgba" * 2 + "G" + "BGBA" * 2,
    "snake_vertical_right": "b" + "abaG" * 2 + "B" + "ABAg" * 2,
    "snake_right": "g" + "baGa" * 2 + "G" + "BAgA" * 2,
}

# The 13-row candidate relation table, with the annotated rows labeled.
TABLE_WORDS = (
    ("YZX", None),
    ("ZyzX", None),
    ("XZZyX", None),
    ("yZxYzX", "stone"),
    ("yZZyyX", None),
    ("zzYYzX", None),
    ("ZyZYzYX", "barbell"),
    ("ZxxYXXX", "bone"),
    ("yXXyXXyXX", None),
    ("XzXXzXXzX", None),
    ("XyZZxYYzX", "2x2x2"),
    ("yZyZYYzYX", "snake"),
    ("ZZxZYzXzX", "snake"),
)

# Reduction identities: eval(lhs) == -eval(rhs), exactly.
REDUCTION_IDENTITIES = (
    ("YZX", "YYY"),
    ("ZyzX", "xZxZ"),
    ("XZZyX", "XXX"),
    ("yZZyyX", "yXyX"),
    ("zzYYzX", "zXzX"),
    ("yXXyXXyXX", "yyy"),
    ("XzXXzXXzX", "YYY"),
)

# The conjectured finite-presentation relations and their values.  The
# conjecture states yzYX = -I, but the other seven relations force
# yzYX = +I: with the sign as a central involution they present a group of
# order 24 in which yzYX = 1, and adjoining yzYX = -1 collapses the sign.
# tests/test_acceptance.py::test_criterion_2_conjectured_relation_values
# proves this by coset enumeration, so yzYX is listed under +I.
CONJECTURE_MINUS = ("XXX", "yXyX", "YzzX", "yZxYzX")
CONJECTURE_PLUS = ("ZxxYXXX", "yZyZYYzYX", "ZZxZYzXzX", "yzYX")

BARBELL_WORD = "ZyZYzYX"
HEX7_WORD = "XyZZxYYzX"

# Side-2 hexagon (7 cells) as enclosed by HEX7_WORD anchored at the origin.
HEX7_CELLS = ((-2, 0), (-2, 1), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0))

# Crescent-moon region: a 4-cell arc, boundary class MinusIdentity.
# Fixed here up to grid symmetry (rotating it by 120 degrees stays in the
# same closure class and preserves every invariant).
CRESCENT_CELLS = ((-2, 2), (-1, 2), (0, 0), (0, 1))

# Two hexagons pinched at a single vertex; the boundary path is a valid
# closed word but the cell pair is NOT an edge-connected region.
BARBELL_CELLS = ((-2, 1), (0, 0))

# 6-cell ring around a missing center: fails simple-connectivity.
RING6_CELLS = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))

# Boundary-constructible tiling sequences for the side-2 hexagon.
# Placements are (kind, orientation, anchor); anchors translate the
# catalog cells of tiling.tile_catalog.
#
# The valid sequence builds a 13-cell cover from three bones and a snake,
# then removes two stones, ending exactly on the hexagon translated by
# (0, 4).  Ledger signs: +1 through the adds, -1 after the first stone,
# +1 after the second.
SEQUENCE_2X2X2_LEFT = (
    ("add", "bone", "vertical", (0, 1)),
    ("add", "bone", "vertical", (-1, 2)),
    ("add", "snake", "vertical_right", (-2, 4)),
    ("add", "bone", "vertical", (0, 4)),
    ("remove", "stone", "left", (0, 5)),
    ("remove", "stone", "left", (0, 1)),
)
SEQUENCE_2X2X2_LEFT_TARGET = tuple(sorted(
    (q, r + 4) for q, r in HEX7_CELLS))

# The one-stone net tiling of the same hexagon (translated by (0, 2)).
# Its net coverage is a genuine signed tiling, but no ordering keeps the
# support edge-connected: removing the stone splits off two 2-cell
# columns, so the sequence checker rejects it at step 2.
SEQUENCE_2X2X2_MIDDLE = (
    ("add", "snake", "vertical_right", (-2, 2)),
    ("add", "bone", "vertical", (0, 1)),
    ("remove", "stone", "right", (0, 3)),
    ("add", "bone", "vertical", (-1, 1)),
)
SEQUENCE_2X2X2_MIDDLE_TARGET = tuple(sorted(
    (q, r + 2) for q, r in HEX7_CELLS))

# One of the six (stone +1, snake +1, bone -1) certificates of the
# crescent, chosen so the positive tiles are disjoint; cross-checked
# against a brute-force search in tests/test_tiling.py.
CRESCENT_CERTIFICATE = (
    ("stone", "left", (-2, 2), 1),
    ("snake", "vertical_left", (0, 0), 1),
    ("bone", "right", (-3, 3), -1),
)

# The same three tiles as a boundary-constructible sequence: placing the
# stone first pins the ledger at -1, and the final support is the
# crescent with boundary class MinusIdentity.
CRESCENT_SEQUENCE = (
    ("add", "stone", "left", (-2, 2)),
    ("add", "snake", "vertical_left", (0, 0)),
    ("remove", "bone", "right", (-3, 3)),
)
