"""Checks of hexsbs outputs against reference.py, never against an earlier
output of hexsbs.

check(op, code, stdout, ctx) returns a list of problems, empty when the
output is right.  op["check"] says what the checker knows about the input:
the region or sequence file, how a region was built, or which other
operation's output it must repeat.
"""

from __future__ import annotations

import json

import reference as ref

ALL_KINDS = ("bone", "stone", "snake")


class Context:
    """What the checks share: the input files, the outputs seen so far in
    the round, the group table and the reference class counts."""

    def __init__(self, files):
        self.files = files
        self.outputs = []
        self.group = ref.Group()
        self.class_counts = ref.load_class_counts()
        problems = ref.tile_table_problems()
        if problems or self.group.size != 24:
            raise ValueError("reference tables are wrong: " + "; ".join(
                problems or [f"group of order {self.group.size}"]))

    def cells(self, name) -> set:
        return {tuple(c) for c in self.files[name]["cells"]}


def _kinds(argv) -> tuple:
    if "--kinds" in argv:
        return tuple(argv[argv.index("--kinds") + 1].split(","))
    return ALL_KINDS


def _int_arg(argv, flag, default):
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _file(argv) -> str:
    return argv[argv.index("--in") + 1][1:-1]


def _placement_cells(entry, kinds, problems) -> list:
    name = f"{entry['kind']}_{entry['orientation']}"
    if name not in ref.TILES or entry["kind"] not in kinds:
        problems.append(f"placement {name} not allowed")
        return []
    return ref.tile_cells(name, entry["anchor"])


def check_region(op, code, out, ctx):
    cells = ctx.cells(_file(op["argv"]))
    want = ref.boundary_class(cells)
    problems = []
    if out != {"class": ref.CLASS_NAMES[want], "cells": len(cells)}:
        problems.append(f"got {out}, reference class "
                        f"{ref.CLASS_NAMES[want]} on {len(cells)} cells")
    stones = op["check"].get("stones")
    if stones is not None and want != (-1) ** stones:
        problems.append(f"tile-built with {stones} stones but class {want}")
    if code != (0 if want else 1):
        problems.append(f"exit {code}")
    return problems


def check_sequence(op, code, out, ctx):
    seq = ctx.files[_file(op["argv"])]
    problems = [] if code == 0 and out.get("valid") is True else [
        f"exit {code}, valid {out.get('valid')}"]
    steps = out.get("steps", [])
    if len(steps) != len(seq):
        return problems + [f"{len(steps)} step records for {len(seq)} steps"]
    support, stones = set(), 0
    for i, (step, rec) in enumerate(zip(seq, steps)):
        support.update(ref.tile_cells(
            f"{step['kind']}_{step['orientation']}", step["anchor"]))
        stones += step["kind"] == "stone"
        sign = (-1) ** stones
        want = {"index": i, "action": "add", "kind": step["kind"],
                "support_size": len(support), "ledger_sign": sign,
                "class": ref.CLASS_NAMES[sign], "agrees": True}
        if rec != want:
            problems.append(f"step {i}: got {rec}, want {want}")
            break
    if ref.boundary_class(support) != (-1) ** stones:
        problems.append("reference class of the final support disagrees")
    return problems


def check_signed(op, code, out, ctx):
    argv = op["argv"]
    cells = ctx.cells(_file(argv))
    kinds = _kinds(argv)
    padding = _int_arg(argv, "--padding", 2)
    if ref.boundary_class(cells) == 0 or out.get("result") != "Solvable":
        # a signed tiling forces +-I, so Other can have none; a region
        # built from allowed tiles has one inside the window
        none = {"result": "NoSolutionInWindow", "padding": padding}
        problems = [] if out == none and code == 1 else [f"exit {code}"]
        if op["check"].get("tileable"):
            problems.append("tile-built region reported unsolvable")
        return problems
    problems = [] if code == 0 else [f"exit {code}"]
    window = ref.pad(cells, padding)
    net = {}
    for entry in out["certificate"]:
        if entry["coeff"] not in (1, -1):
            problems.append(f"coefficient {entry['coeff']}")
        for c in _placement_cells(entry, kinds, problems):
            if c not in window:
                problems.append(f"tile cell {c} outside the window")
            net[c] = net.get(c, 0) + entry["coeff"]
    if {c for c, v in net.items() if v} != cells or any(
            net[c] != 1 for c in cells):
        problems.append("certificate does not net-cover the region")
    return problems


def check_probe(op, code, out, ctx):
    want = ref.boundary_class(ctx.cells(_file(op["argv"])))
    stones = out.get("stones")
    problems = [] if code == 0 else [f"exit {code}"]
    if out.get("boundary_class") != ref.CLASS_NAMES[want]:
        problems.append(f"boundary class {out.get('boundary_class')}")
    if stones in (0, 1) and want:
        consistent = want == (-1) ** stones
    elif stones in (0, 1, "AtLeast2OrUnknown"):
        consistent = None
    else:
        problems.append(f"stones {stones!r}")
        consistent = None
    if out.get("parity_consistent") is not consistent:
        problems.append(f"parity_consistent {out.get('parity_consistent')}")
    if op["check"].get("quiet_tileable") and stones != 0:
        problems.append("region built from bones and snakes needs stones")
    return problems


def check_exact(op, code, out, ctx):
    argv = op["argv"]
    cells = ctx.cells(_file(argv))
    kinds = _kinds(argv)
    if "--count" in argv:
        cap = _int_arg(argv, "--cap", 10 ** 6)
        problems = [] if code == 0 else [f"exit {code}"]
        count = out.get("count", 0)
        if not 1 <= count <= cap or (out.get("cap_exceeded")
                                      and count != cap):
            problems.append(f"count {out}")
        if op["check"].get("reference_count"):
            total = ref.count_tilings(cells, kinds, cap)
            want = {"count": min(total, cap), "cap_exceeded": total > cap}
            if out != want:
                problems.append(f"got {out}, reference {want}")
        return problems
    if out.get("result") != "Tiling" or code != 0:
        return [f"exit {code}, {out.get('result')} on a tile-built region"]
    problems, covered = [], []
    for entry in out["placements"]:
        covered += _placement_cells(entry, kinds, problems)
    if len(covered) != len(set(covered)) or set(covered) != cells:
        problems.append("placements are not a disjoint cover of the region")
    return problems


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def check_enumerate(op, code, text, ctx):
    argv = op["argv"]
    if "same_as" in op["check"]:
        other = ctx.outputs[op["check"]["same_as"]]
        return [] if code == 0 and text == other else [
            "partitioned output differs from the single run"]
    if "--census" in argv:
        return check_census(_int_arg(argv, "--max-length", 10), code,
                            json.loads(text), ctx)
    max_length = _int_arg(argv, "--max-length", 10)
    recs = _records(text)
    problems = [] if code == 0 else [f"exit {code}"]
    g = ctx.group
    for r in recs:
        w = r["representative"]
        want = {"length": len(w), "representative": w,
                "value": ref.CLASS_NAMES.get(g.word_class(w)),
                "closed": ref.is_closed(w)}
        if (r != want or not g.word_class(w)
                or not ref.is_cyclically_reduced(w)
                or ref.closure_least(w) != w):
            problems.append(f"record {r}")
            break
    keys = [(r["length"], r["representative"]) for r in recs]
    if keys != sorted(set(keys)):
        problems.append("records are not sorted and distinct")
    counts = {n: [0, 0] for n in range(1, max_length + 1)}
    for r in recs:
        counts[r["length"]][r["value"] == "MinusIdentity"] += 1
    reference = ctx.class_counts
    for n in counts:
        if tuple(counts[n]) != reference[n]:
            problems.append(f"length {n}: {counts[n]} classes, reference "
                            f"{list(reference[n])}")
    return problems


def check_census(max_length, code, out, ctx):
    g = ctx.group
    problems = [] if code == 0 else [f"exit {code}"]
    want = ref.census(g, max_length)
    got = {c["length"]: (c["plus"], c["minus"]) for c in out["counts"]}
    if got != want or out["max_length"] != max_length:
        problems.append("census counts differ from the transfer count")
    dist = g.distances()
    words = out["shortest_words"]
    values = [g.value(w["word"]) for w in words]
    if out["group_size"] != g.size or sorted(values) != list(range(g.size)):
        problems.append("shortest words do not cover the group once")
    for w, v in zip(words, values):
        if len(w["word"]) != dist[v] or w["class"] != ref.CLASS_NAMES[
                g.sign[v]]:
            problems.append(f"shortest word {w}")
    return problems


def _windows(word, h):
    """Factors of length h of all members of the closure class: the cyclic
    windows of the word's three rotations and their inverses."""
    out = set()
    base = word
    for _ in range(3):
        for var in (base, base[::-1].translate(ref.SWAP)):
            doubled = var + var
            out.update(doubled[i:i + h] for i in range(len(var)))
        base = base.translate(ref.ROTATE)
    return out


def check_reduce(op, code, out, ctx):
    """The reduction drops a relation when a member of its class shares a
    factor longer than half of an earlier survivor with a member of that
    survivor's class.  A common factor that long contains one of exactly
    that length, so the casualties and survivors are recomputed here from
    fixed-length factor sets."""
    max_length = _int_arg(op["argv"], "--max-length", 9)
    source = _records(ctx.outputs[op["check"]["records_from"]])
    records = [r for r in source if r["length"] <= max_length]
    factors = {}  # h -> set of factors of that length of survivors
    survivors = []
    for r in records:
        w = r["representative"]
        if not any(_windows(w, h) & fs for h, fs in factors.items()):
            survivors.append(r)
            h = len(w) // 2 + 1
            factors.setdefault(h, set()).update(_windows(w, h))
    problems = [] if code == 0 else [f"exit {code}"]
    want = {"raw_count": len(records), "survivor_count": len(survivors),
            "casualty_count": len(records) - len(survivors)}
    if {k: out.get(k) for k in want} != want:
        problems.append(f"counts {({k: out.get(k) for k in want})}, "
                        f"reference {want}")
    if out.get("survivors") != survivors:
        problems.append("survivors differ from the reference reduction")
    raw = {r["representative"] for r in records}
    kept = {r["representative"] for r in survivors}
    for row in out.get("table_comparison", []):
        rep = ref.closure_least(row["word"])
        if (row["in_raw"], row["survived"]) != (rep in raw, rep in kept):
            problems.append(f"table row {row}")
    return problems


def check_endpoints(op, code, out, ctx):
    max_length = _int_arg(op["argv"], "--max-length", 8)
    want = sorted(ref.identity_endpoints(ctx.group, max_length))
    got = [tuple(p) for p in out.get("points", [])]
    return [] if code == 0 and got == want else ["endpoints differ"]


CHECKS = {"check-region": check_region, "check-sequence": check_sequence,
          "solve-signed": check_signed, "probe-stones": check_probe,
          "solve-exact": check_exact, "reduce": check_reduce,
          "endpoints": check_endpoints}


def check(op, code, stdout, ctx) -> list:
    verb = op["argv"][0]
    try:
        if verb == "enumerate":
            return check_enumerate(op, code, stdout, ctx)
        return CHECKS[verb](op, code, json.loads(stdout), ctx)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]
