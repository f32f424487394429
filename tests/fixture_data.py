"""Fixture tables that only the tests read: the conjectured relations,
named words, regions and tiling sequences.

Words are written in the composition-order convention of
:mod:`hexsbs.words`; cells use axial coordinates (q, r) with north =
(0, 1), northeast = (1, 0).  The tile words and relation tables that the
package itself reads stay in :mod:`hexsbs.fixtures`.
"""

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
