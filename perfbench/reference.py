"""Reference computations the benchmark checks hexsbs outputs against.

Nothing here imports hexsbs.  Each fact is stated from its definition:

* Cells carry axial coordinates (q, r) with N = (0, 1) and NE = (1, 0).
  Hexagons are flat-topped; edge k of a cell runs counterclockwise from
  corner k to corner k + 1 and has direction 120 + 60k degrees, and the
  neighbour across it is NEIGHBOURS[k].
* The paper's edge matrices sit on edge directions: alpha on 60 degrees,
  beta on 120, gamma on 180, their inverses on the opposite directions.
  They are evaluated through the complex embedding w = e^{i pi / 6}.
* A boundary word is the counterclockwise walk read backwards, and words
  multiply left to right, so the walk multiplies on the left.  The class
  (+I, -I or Other) does not depend on where the walk starts, because a
  cyclic shift conjugates the product and +-I is central.
* The step letters X = beta alpha, Y = alpha^-1 gamma, Z = gamma^-1 beta^-1
  (lowercase: inverses) generate a group of 24 matrices, tabulated here.

Run as a script, it regenerates classes.json: the number of closure
classes of identity words per length, by an enumeration of its own.
"""

from __future__ import annotations

import cmath
import json
import sys
from pathlib import Path

NEIGHBOURS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
STEP_LETTERS = "XYZxyz"
INVERSE = dict(zip("XYZxyz", "xyzXYZ"))
ROTATE = str.maketrans("XYZxyz", "YZXyzx")
SWAP = str.maketrans("XYZxyz", "xyzXYZ")
# lattice displacement of each step between shaded vertices
DISPLACEMENT = {"X": (0, 1), "Y": (-1, 0), "Z": (1, -1),
                "x": (0, -1), "y": (1, 0), "z": (-1, 1)}
CLASS_NAMES = {1: "PlusIdentity", -1: "MinusIdentity", 0: "Other"}

# --- tiles -----------------------------------------------------------------

# The 11 tiles by name, as the cells they cover when anchored at (0, 0).
# Names and anchor cells follow the hexsbs JSON format; which cells they
# are is checked against the definitions by tile_table_problems().
TILES = {
    # bones: 3 collinear cells, one per axis
    "bone_left": ((0, 0), (-1, 1), (-2, 2)),
    "bone_vertical": ((0, 0), (0, 1), (0, 2)),
    "bone_right": ((0, 0), (1, 0), (2, 0)),
    # stones: the 3 cells around one corner, in both corner types
    "stone_left": ((0, 0), (0, 1), (-1, 1)),
    "stone_right": ((0, 0), (-1, 0), (-1, 1)),
    # snakes: 4 cells in an S, a path stepping a, b, a with a and b
    # 60 degrees apart
    "snake_flat_left": ((-3, 2), (-2, 1), (-1, 1), (0, 0)),
    "snake_vertical_left": ((-1, 3), (-1, 2), (0, 1), (0, 0)),
    "snake_flat_right": ((-3, 1), (-2, 1), (-1, 0), (0, 0)),
    "snake_left": ((-2, 3), (-1, 2), (-1, 1), (0, 0)),
    "snake_vertical_right": ((0, 0), (0, 1), (1, 1), (1, 2)),
    "snake_right": ((-1, 0), (0, 0), (0, 1), (1, 1)),
}


def kind_of(name: str) -> str:
    return name.split("_", 1)[0]


def tile_cells(name: str, anchor) -> list:
    aq, ar = anchor
    return [(q + aq, r + ar) for q, r in TILES[name]]


def _normalised(cells) -> tuple:
    lo = min(cells)
    return tuple(sorted((q - lo[0], r - lo[1]) for q, r in cells))


def tile_table_problems() -> list:
    """Why TILES does not match the definitions of the three tiles; an
    empty list when it does."""
    problems = []
    dirs = set(NEIGHBOURS)
    for name, cells in TILES.items():
        steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(cells, cells[1:])]
        kind = kind_of(name)
        if kind == "bone":
            ok = len(cells) == 3 and steps[0] == steps[1] in dirs
        elif kind == "stone":
            ok = len(cells) == 3 and all(
                (b[0] - a[0], b[1] - a[1]) in dirs
                for a in cells for b in cells if a != b)
        else:
            i = NEIGHBOURS.index(steps[0]) if steps[0] in dirs else None
            ok = (len(cells) == 4 and i is not None and steps[2] == steps[0]
                  and steps[1] in (NEIGHBOURS[(i + 1) % 6],
                                   NEIGHBOURS[(i - 1) % 6]))
        if not ok:
            problems.append(f"{name} is not a {kind}")
    shapes = {_normalised(c) for c in TILES.values()}
    if len(shapes) != 11:
        problems.append("two tiles share a shape")
    # every orientation of each tile must be present: rotating by 60
    # degrees maps the set of shapes of one kind onto itself
    rot60 = lambda c: (-c[1], c[0] + c[1])  # noqa: E731
    for name, cells in TILES.items():
        turned = _normalised([rot60(c) for c in cells])
        if turned not in shapes:
            problems.append(f"{name} turned by 60 degrees is missing")
    return problems


# --- the complex embedding and the 24-element group -------------------------

W = cmath.exp(1j * cmath.pi / 6)


def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _inv(m):  # det 1
    return (m[3], -m[1], -m[2], m[0])


ALPHA = (W ** 7, 0j, 0j, W ** 5)
BETA = (W ** 7, W ** 3, 0j, W ** 5)
GAMMA = (W ** 5, 0j, W ** 3, W ** 7)
# edge k of a cell has direction 120 + 60k degrees
EDGE_MATRIX = (BETA, GAMMA, _inv(ALPHA), _inv(BETA), _inv(GAMMA), ALPHA)
STEP_MATRIX = {"X": _mul(BETA, ALPHA), "Y": _mul(_inv(ALPHA), GAMMA),
               "Z": _mul(_inv(GAMMA), _inv(BETA))}
for _ch in "XYZ":
    STEP_MATRIX[_ch.lower()] = _inv(STEP_MATRIX[_ch])

TOL = 1e-6


def pm_class(m) -> int:
    """+1 for +I, -1 for -I, 0 for anything else."""
    for sign in (1, -1):
        if (abs(m[0] - sign) < TOL and abs(m[3] - sign) < TOL
                and abs(m[1]) < TOL and abs(m[2]) < TOL):
            return sign
    return 0


def _key(m) -> tuple:
    return tuple((round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0) for z in m)


class Group:
    """The 24 values of step words, with right multiplication by letters."""

    def __init__(self):
        ident = (1 + 0j, 0j, 0j, 1 + 0j)
        mats = [ident]
        index = {_key(ident): 0}
        self.step = []  # step[g][letter] -> g * M(letter)
        g = 0
        while g < len(mats):
            row = {}
            for ch in STEP_LETTERS:
                m = _mul(mats[g], STEP_MATRIX[ch])
                k = _key(m)
                if k not in index:
                    index[k] = len(mats)
                    mats.append(m)
                row[ch] = index[k]
            self.step.append(row)
            g += 1
        self.size = len(mats)
        self.sign = [pm_class(m) for m in mats]

    def value(self, letters: str) -> int:
        g = 0
        for ch in letters:
            g = self.step[g][ch]
        return g

    def word_class(self, letters: str) -> int:
        return self.sign[self.value(letters)]

    def distances(self) -> list:
        """Length of a shortest word for each element."""
        dist = [None] * self.size
        dist[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for g in frontier:
                for t in self.step[g].values():
                    if dist[t] is None:
                        dist[t] = dist[g] + 1
                        nxt.append(t)
            frontier = nxt
        return dist


# --- boundaries --------------------------------------------------------------

def boundary_walk(cells) -> list:
    """The counterclockwise boundary of a simply connected region as a
    list of (cell, edge index), each edge followed by its successor around
    the shared corner."""
    cells = set(cells)
    start = None
    for c in cells:
        for k, (dq, dr) in enumerate(NEIGHBOURS):
            if (c[0] + dq, c[1] + dr) not in cells:
                start = (c, k)
                break
        if start:
            break
    walk = [start]
    c, k = start
    while True:
        # corner k + 1 of c is also corner k - 1 of the cell across edge
        # k + 1; the region turns there when that cell is inside
        dq, dr = NEIGHBOURS[(k + 1) % 6]
        n = (c[0] + dq, c[1] + dr)
        c, k = (n, (k - 1) % 6) if n in cells else (c, (k + 1) % 6)
        if (c, k) == start:
            return walk
        walk.append((c, k))


def boundary_class(cells) -> int:
    """+1, -1 or 0 (Other) for the boundary word of a region."""
    m = (1 + 0j, 0j, 0j, 1 + 0j)
    for _, k in boundary_walk(cells):
        e = EDGE_MATRIX[k]
        m = (e[0] * m[0] + e[1] * m[2], e[0] * m[1] + e[1] * m[3],
             e[2] * m[0] + e[3] * m[2], e[2] * m[1] + e[3] * m[3])
    return pm_class(m)


def holes(cells) -> set:
    """Empty cells that the region encloses."""
    qs = [q for q, _ in cells]
    rs = [r for _, r in cells]
    lo_q, hi_q, lo_r, hi_r = min(qs) - 1, max(qs) + 1, min(rs) - 1, max(rs) + 1
    outside = {(lo_q, lo_r)}
    stack = [(lo_q, lo_r)]
    while stack:
        q, r = stack.pop()
        for dq, dr in NEIGHBOURS:
            n = (q + dq, r + dr)
            if (lo_q <= n[0] <= hi_q and lo_r <= n[1] <= hi_r
                    and n not in cells and n not in outside):
                outside.add(n)
                stack.append(n)
    return {(q, r) for q in range(lo_q, hi_q + 1)
            for r in range(lo_r, hi_r + 1)} - outside - cells


def is_simply_connected(cells) -> bool:
    """Edge-connected and without holes."""
    cells = set(cells)
    if not cells:
        return False
    start = next(iter(cells))
    seen, stack = {start}, [start]
    while stack:
        q, r = stack.pop()
        for dq, dr in NEIGHBOURS:
            n = (q + dq, r + dr)
            if n in cells and n not in seen:
                seen.add(n)
                stack.append(n)
    return len(seen) == len(cells) and not holes(cells)


def pad(cells, padding: int) -> set:
    window = set(cells)
    for _ in range(padding):
        window |= {(q + dq, r + dr)
                   for q, r in window for dq, dr in NEIGHBOURS}
    return window


def count_tilings(cells, kinds, cap: int) -> int:
    """Exact covers of a small region by tiles of the given kinds, counted
    up to cap + 1."""
    shapes = [TILES[n] for n in TILES if kind_of(n) in kinds]
    free = set(cells)
    total = 0

    def descend():
        nonlocal total
        if not free:
            total += 1
            return
        c = min(free)
        for shape in shapes:
            for oq, orr in shape:
                placed = [(q + c[0] - oq, r + c[1] - orr) for q, r in shape]
                if all(p in free for p in placed):
                    free.difference_update(placed)
                    descend()
                    free.update(placed)
                    if total > cap:
                        return

    descend()
    return total


# --- words -------------------------------------------------------------------

def closure_least(letters: str) -> str:
    """Least member of the closure class: cyclic shifts, 120-degree
    rotations and inverses, under plain string order."""
    best = letters
    base = letters
    for _ in range(3):
        for var in (base, base[::-1].translate(SWAP)):
            for i in range(len(var)):
                cand = var[i:] + var[:i]
                if cand < best:
                    best = cand
        base = base.translate(ROTATE)
    return best


def is_cyclically_reduced(letters: str) -> bool:
    pairs = zip(letters, letters[1:] + letters[:1])
    return all(INVERSE[a] != b for a, b in pairs)


def is_closed(letters: str) -> bool:
    u = v = 0
    for ch in letters:
        du, dv = DISPLACEMENT[ch]
        u += du
        v += dv
    return u == v == 0


def census(group: Group, max_length: int) -> dict:
    """Cyclically reduced words of each length, ending in X, whose value is
    +I or -I: {length: (plus, minus)}, by a transfer count over the group
    with the last letter as state."""
    xg = [group.step[g]["X"] for g in range(group.size)]
    # words w of length n with w[0] != x; state (value, last letter)
    cur = {}
    for ch in "XYZyz":
        key = (group.step[0][ch], ch)
        cur[key] = cur.get(key, 0) + 1
    out = {}
    for n in range(1, max_length):
        plus = minus = 0
        for (g, last), count in cur.items():
            if last != "x":
                s = group.sign[xg[g]]
                plus += count if s == 1 else 0
                minus += count if s == -1 else 0
        out[n + 1] = (plus, minus)
        nxt = {}
        for (g, last), count in cur.items():
            for ch in STEP_LETTERS:
                if ch != INVERSE[last]:
                    key = (group.step[g][ch], ch)
                    nxt[key] = nxt.get(key, 0) + count
        cur = nxt
    return out


def identity_endpoints(group: Group, max_length: int) -> set:
    """Endpoints of the freely reduced words of length at most max_length
    whose value is +I or -I."""
    level = {(0, None, 0, 0)}
    out = set()
    for depth in range(max_length + 1):
        for g, _, u, v in level:
            if group.sign[g]:
                out.add((u, v))
        if depth == max_length:
            break
        nxt = set()
        for g, last, u, v in level:
            for ch in STEP_LETTERS:
                if last is None or ch != INVERSE[last]:
                    du, dv = DISPLACEMENT[ch]
                    nxt.add((group.step[g][ch], ch, u + du, v + dv))
        level = nxt
    return out


def enumerate_classes(group: Group, max_length: int) -> dict:
    """{length: [plus, minus]} closure classes of cyclically reduced words
    with value +-I.  The least member of a class starts with X (shift any
    letter to the front, invert if lowercase, rotate to X), so it is enough
    to walk the words that start with X and keep the least ones."""
    counts = {n: [0, 0] for n in range(1, max_length + 1)}
    word = ["X"]

    def visit(g):
        n = len(word)
        s = group.sign[g]
        if s and INVERSE[word[-1]] != "X":
            letters = "".join(word)
            if closure_least(letters) == letters:
                counts[n][0 if s == 1 else 1] += 1
        if n < max_length:
            for ch in STEP_LETTERS:
                if ch != INVERSE[word[-1]]:
                    word.append(ch)
                    visit(group.step[g][ch])
                    word.pop()

    visit(group.step[0]["X"])
    return counts


CLASSES_FILE = Path(__file__).with_name("classes.json")
CLASSES_MAX_LENGTH = 10


def load_class_counts() -> dict:
    """{length: (plus, minus)} from classes.json."""
    data = json.loads(CLASSES_FILE.read_text())
    return {int(n): tuple(pm) for n, pm in data["classes"].items()}


def main() -> int:
    problems = tile_table_problems()
    group = Group()
    if problems or group.size != 24:
        print("; ".join(problems) or f"group of order {group.size}",
              file=sys.stderr)
        return 1
    counts = enumerate_classes(group, CLASSES_MAX_LENGTH)
    rows = ",\n".join(f'  "{n}": {json.dumps(pm)}' for n, pm in counts.items())
    CLASSES_FILE.write_text(f'{{"max_length": {CLASSES_MAX_LENGTH}, '
                            f'"classes": {{\n{rows}\n}}}}\n')
    print(f"wrote {CLASSES_FILE.name}: {sum(map(sum, counts.values()))} "
          f"classes up to length {CLASSES_MAX_LENGTH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
