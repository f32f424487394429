"""Shared fixture data: tile words and relation tables.

Pure data, importable from anywhere in the package.  Words are written in
the composition-order convention of :mod:`hexsbs.words`.  The regions,
sequences and relation lists that only the tests read are in
``tests/fixture_data.py``.
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
