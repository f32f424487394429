"""Seeded input generators and the operation list of each workload.

Sizes are fixed per workload and only the shapes come from the seed, so
two seeds give the same amount of work in different regions.  hexsbs
receives only the files written here.
"""

from __future__ import annotations

from random import Random

from reference import (NEIGHBOURS, TILES, holes, is_simply_connected,
                       kind_of, tile_cells)


def blob(rng: Random, n: int) -> set:
    """Random accretion (each step adds a uniformly chosen empty neighbour)
    to n cells, then with its holes filled."""
    cells = {(0, 0)}
    frontier = list(NEIGHBOURS)
    in_frontier = set(frontier)
    while len(cells) < n:
        i = rng.randrange(len(frontier))
        c = frontier[i]
        frontier[i] = frontier[-1]
        frontier.pop()
        cells.add(c)
        for dq, dr in NEIGHBOURS:
            nb = (c[0] + dq, c[1] + dr)
            if nb not in cells and nb not in in_frontier:
                frontier.append(nb)
                in_frontier.add(nb)
    return cells | holes(cells)


# Thin paths: no cell touches any but its path neighbours, so the boundary
# word of an n-cell path has exactly 2n + 1 letters.


def serpentine(rng: Random, n: int) -> list:
    """Columns of random height, every second column left empty, joined
    at alternate ends; its bounding box stays about 3n cells."""
    cells = [(0, 0)]
    q, r, up = 0, 0, True
    while len(cells) < n:
        for _ in range(rng.randint(20, 60)):
            r += 1 if up else -1
            cells.append((q, r))
        for dq, dr in ((1, 0), (1, -1)) if up else ((1, -1), (1, 0)):
            q, r = q + dq, r + dr
            cells.append((q, r))
        up = not up
    return cells[:n]


def staircase(n: int) -> list:
    """Alternate runs of 5 cells north and 5 north-east: a diagonal path
    whose bounding box grows with n^2."""
    cells = [(0, 0)]
    while len(cells) < n:
        d = (0, 1) if len(cells) // 5 % 2 == 0 else (1, 0)
        q, r = cells[-1]
        cells.append((q + d[0], r + d[1]))
    return cells


def hexagon(side: int) -> list:
    s = side - 1
    return [(q, r) for q in range(-s, s + 1) for r in range(-s, s + 1)
            if abs(q + r) <= s]


def bar(bones: int) -> list:
    return [(0, r) for r in range(3 * bones)]


def tile_names(rng: Random, bones: int, stones: int, snakes: int) -> list:
    """Shuffled tile names with a fixed count of each kind."""
    by_kind = {k: [n for n in TILES if kind_of(n) == k]
               for k in ("bone", "stone", "snake")}
    names = ([rng.choice(by_kind["bone"]) for _ in range(bones)]
             + [rng.choice(by_kind["stone"]) for _ in range(stones)]
             + [rng.choice(by_kind["snake"]) for _ in range(snakes)])
    rng.shuffle(names)
    return names


def hex_distance(c) -> int:
    q, r = c
    return (abs(q) + abs(r) + abs(q + r)) // 2


def tile_sequence(rng: Random, names, choices: int = 1) -> list:
    """Add-only placements [(name, anchor)]: each tile is disjoint from the
    support, touches it and keeps it simply connected.  With choices > 1,
    the nearest to the origin of that many candidate placements is taken,
    which grows rounder regions."""
    support = set(tile_cells(names[0], (0, 0)))
    cells = sorted(support)
    placed = [(names[0], (0, 0))]
    for name in names[1:]:
        candidates = []
        while len(candidates) < choices:
            c = rng.choice(cells)
            dq, dr = rng.choice(NEIGHBOURS)
            e = (c[0] + dq, c[1] + dr)
            if e in support:
                continue
            oq, orr = rng.choice(TILES[name])
            anchor = (e[0] - oq, e[1] - orr)
            new = tile_cells(name, anchor)
            if any(x in support for x in new):
                continue
            if is_simply_connected(support.union(new)):
                candidates.append((max(map(hex_distance, new)), anchor, new))
        _, anchor, new = min(candidates)
        support.update(new)
        cells.extend(new)
        placed.append((name, anchor))
    return placed


def sequence_json(placed) -> list:
    return [{"action": "add", "kind": kind_of(name),
             "orientation": name.split("_", 1)[1], "anchor": list(anchor)}
            for name, anchor in placed]


def region_json(cells) -> dict:
    return {"cells": [list(c) for c in sorted(cells)]}


def spread(lo: int, hi: int, count: int) -> list:
    """count sizes evenly spaced from lo to hi."""
    return [lo + (hi - lo) * i // max(count - 1, 1) for i in range(count)]


# --- workloads ---------------------------------------------------------------
#
# Each op is {"argv": [...], "check": {...}}.  "check" carries what the
# checker needs to know about the input, never an expected output of
# hexsbs.  A "{name}" in argv is replaced by the path of that input file.

class Plan:
    def __init__(self):
        self.files = {}  # name -> JSON-able content
        self.warmup = []  # argv lists, run once before timing, unchecked
        self.ops = []

    def add_file(self, name: str, content) -> str:
        self.files[name] = content
        return "{" + name + "}"

    def add(self, argv, **check):
        self.ops.append({"argv": list(argv), "check": check})


def _built(rng, counts, choices=1):
    names = tile_names(rng, *counts)
    placed = tile_sequence(rng, names, choices)
    return placed, {c for name, a in placed for c in tile_cells(name, a)}


def _stones(placed) -> int:
    return sum(kind_of(name) == "stone" for name, _ in placed)


def boundary_plan(rng: Random) -> Plan:
    """check-region on random blobs, thin paths and tile-built regions, and
    check-sequence on add-only sequences."""
    p = Plan()
    f = p.add_file("warm.json", region_json(hexagon(2)))
    p.warmup.append(["check-region", "--in", f])
    for i, n in enumerate(spread(200, 5000, 48)):
        f = p.add_file(f"blob{i}.json", region_json(blob(rng, n)))
        p.add(["check-region", "--in", f])
    for i, n in enumerate(spread(1500, 4500, 6)):
        f = p.add_file(f"thin{i}.json", region_json(serpentine(rng, n)))
        p.add(["check-region", "--in", f])
    f = p.add_file("staircase.json", region_json(staircase(800)))
    p.add(["check-region", "--in", f])
    for i in range(16):
        placed, cells = _built(rng, (10 + i % 3, 2 + i % 5, 12))
        f = p.add_file(f"built{i}.json", region_json(cells))
        p.add(["check-region", "--in", f], stones=_stones(placed))
    for i, tiles in enumerate((50, 100)):
        placed, _ = _built(rng, (tiles // 3, tiles // 6,
                                 tiles - tiles // 3 - tiles // 6))
        f = p.add_file(f"seq{i}.json", sequence_json(placed))
        p.add(["check-sequence", "--in", f])
    return p


def signed_plan(rng: Random) -> Plan:
    """solve-signed and probe-stones: fixed hexagons, small tile-built
    regions and random blobs."""
    p = Plan()
    f = p.add_file("warm.json", region_json(hexagon(2)))
    p.warmup += [["solve-signed", "--in", f], ["probe-stones", "--in", f]]
    for side in (3, 4, 5):
        f = p.add_file(f"hex{side}.json", region_json(hexagon(side)))
        p.add(["solve-signed", "--in", f])
    for i in range(14):
        _, cells = _built(rng, (2, 1, 2), 4)
        f = p.add_file(f"built{i}.json", region_json(cells))
        p.add(["solve-signed", "--in", f], tileable=True)
        if i == 0:
            p.add(["probe-stones", "--in", f])
    for i in range(2):
        _, cells = _built(rng, ((3, 0, 2), (2, 0, 3))[i], 4)
        f = p.add_file(f"quiet{i}.json", region_json(cells))
        p.add(["solve-signed", "--in", f, "--kinds", "bone,snake"],
              tileable=True)
        p.add(["probe-stones", "--in", f], quiet_tileable=True)
    for i in range(2):
        f = p.add_file(f"blob{i}.json", region_json(blob(rng, 16)))
        p.add(["solve-signed", "--in", f])
    return p


def exact_plan(rng: Random) -> Plan:
    """solve-exact on bone bars and tile-built regions, and --count with a
    cap on small tile-built regions."""
    p = Plan()
    _, cells = _built(rng, (2, 1, 2))
    f = p.add_file("warm.json", region_json(cells))
    p.warmup += [["solve-exact", "--in", f],
                 ["solve-exact", "--in", f, "--count", "--cap", "100"]]
    for bones in (100, 200, 300, 400):
        f = p.add_file(f"bar{bones}.json", region_json(bar(bones)))
        p.add(["solve-exact", "--in", f, "--kinds", "bone"])
    for i in range(72):
        _, cells = _built(rng, ((5, 2, 8), (6, 2, 9), (7, 2, 10))[i % 3])
        f = p.add_file(f"built{i}.json", region_json(cells))
        p.add(["solve-exact", "--in", f])
    for i in range(12):
        _, cells = _built(rng, ((2, 1, 3), (3, 1, 3))[i % 2], 4)
        f = p.add_file(f"small{i}.json", region_json(cells))
        p.add(["solve-exact", "--in", f, "--count", "--cap", "100"],
              reference_count=True)
    return p


def relations_plan(rng: Random) -> Plan:
    """The word searches; they read no input, so every seed runs the same
    commands."""
    p = Plan()
    p.warmup += [["enumerate", "--max-length", "6"],
                 ["enumerate", "--max-length", "6", "--partitions", "2"],
                 ["reduce", "--max-length", "6"],
                 ["enumerate", "--census", "--max-length", "8"],
                 ["endpoints", "--max-length", "3"]]
    p.add(["enumerate", "--max-length", "8"])
    p.add(["enumerate", "--max-length", "8", "--partitions", "2"],
          same_as=0)
    p.add(["reduce", "--max-length", "8"], records_from=0)
    p.add(["enumerate", "--census", "--max-length", "30"])
    p.add(["endpoints", "--max-length", "7"])
    return p


PLANS = {"boundary": boundary_plan, "signed": signed_plan,
         "exact": exact_plan, "relations": relations_plan}
