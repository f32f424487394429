"""Command-line interface.

Machine-readable results go to stdout as JSON (JSONL for enumeration);
human diagnostics go to stderr.  Exit codes: 0 success, 1 for computed
negative answers (obstructed region, no tiling, rejected sequence), 2 for
usage or input errors and for any unexpected failure, which prints one
line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures, svg
from .cyclo import PMClass
from .hexgrid import Region, region_from_ascii, region_from_json
from .search import (SearchConfig, enumerate_identity_words,
                     group_closure_probe, identity_endpoint_lattice,
                     identity_word_census, reduce_relation_list,
                     verify_reduction_table)
from .tiling import (KINDS, SignedTiling, boundary_obstruction_check,
                     constructible_sequence_check,
                     construction_step_from_json, min_stone_probe,
                     signed_tiling_solve, signed_tiling_verify,
                     standard_tiling_solve)
from .words import TILE_CLASSES, SizeError, Word, WordError, parse_word


class InputError(Exception):
    pass


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is input that names it.
    An OSError is left to the caller."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: {e}") from e


def load_region(path: str, allow_empty: bool = False) -> Region:
    try:
        text = _read_text(path)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    try:
        if path.endswith((".txt", ".ascii")):
            return region_from_ascii(text, allow_empty)
        return region_from_json(text, allow_empty)
    except ValueError as e:  # RegionError and JSONDecodeError are ones
        raise InputError(f"{path}: {e}") from e


def load_word(path_or_literal: str) -> Word:
    text = path_or_literal
    # isfile is False, not an OSError, for a literal too long to be a name
    if os.path.isfile(path_or_literal):
        text = _read_text(path_or_literal).strip()
    try:
        return parse_word(text)
    except WordError as e:
        raise InputError(f"bad word {text!r}: {e}") from e


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except (OSError, ValueError) as e:
        raise InputError(f"{path}: {e}") from e
    except RecursionError as e:  # arrays nested past the parser's stack
        raise InputError(f"{path}: JSON nested too deep to read: {e}") from e


def _emit(obj) -> None:
    # json.dumps runs the C encoder; json.dump to a stream would run the
    # pure-Python one, for the same bytes
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _kinds(arg: str):
    kinds = tuple(k.strip() for k in arg.split(",") if k.strip())
    if not kinds:
        raise InputError(f"--kinds names no tile kind: {arg!r}")
    for k in kinds:
        if k not in KINDS:
            raise InputError(f"unknown tile kind {k!r}")
    return kinds


def cmd_verify_tiles(args) -> int:
    # every tile word was evaluated, in both alphabets, when words was
    # imported, which fails on a wrong class; so every row is ok
    rows = [{"tile": name, "kind": name.split("_", 1)[0],
             "step_class": step_class.value, "edge_class": edge_class.value,
             "ok": True} for name, step_class, edge_class in TILE_CLASSES]
    _emit({"tiles": rows, "count": len(rows), "all_ok": True})
    return 0


def cmd_check_region(args) -> int:
    region = load_region(args.infile)
    klass = boundary_obstruction_check(region)
    _emit({"class": klass.value, "cells": len(region)})
    return 0 if klass is not PMClass.OTHER else 1


def cmd_solve_signed(args) -> int:
    region = load_region(args.infile, allow_empty=True)
    tiling = signed_tiling_solve(region, _kinds(args.kinds), args.padding)
    if tiling is None:
        _emit({"result": "NoSolutionInWindow", "padding": args.padding})
        return 1
    _emit({"result": "Solvable", "certificate": tiling.to_json()})
    return 0


def cmd_solve_exact(args) -> int:
    region = load_region(args.infile)
    kinds = _kinds(args.kinds)
    if args.count:
        result = standard_tiling_solve(region, kinds, "count", cap=args.cap)
        _emit({"count": result.count, "cap_exceeded": result.cap_exceeded})
        return 0
    placements = standard_tiling_solve(region, kinds, "first", cap=args.cap)
    if placements is None:
        _emit({"result": "NoTiling"})
        return 1
    _emit({"result": "Tiling",
           "placements": [p.to_json() for p in placements]})
    return 0


def cmd_check_sequence(args) -> int:
    data = _read_json(args.infile)
    if not isinstance(data, list):
        raise InputError(f"{args.infile}: a sequence must be a list of steps")
    steps = []
    for i, obj in enumerate(data):
        try:
            steps.append(construction_step_from_json(obj))
        except ValueError as e:
            raise InputError(f"{args.infile}: step {i}: {e}") from e
    report = constructible_sequence_check(steps)
    _emit(report.to_json())
    return 0 if report.valid else 1


def cmd_probe_stones(args) -> int:
    region = load_region(args.infile)
    probe = min_stone_probe(region, args.padding)
    _emit(probe.to_json())
    return 0


def cmd_enumerate(args) -> int:
    # built first, so that --census checks both options too
    cfg = SearchConfig(args.max_length, args.partitions)
    if args.census:
        report = identity_word_census(cfg.max_word_length).to_json()
        try:
            _emit(report)
        except ValueError as e:  # json.dumps met a count too long to print
            raise InputError(
                f"--max-length {cfg.max_word_length}: a census count has "
                "more digits than Python's limit on converting an int to "
                f"text ({sys.get_int_max_str_digits()} digits)") from e
        return 0
    records = enumerate_identity_words(cfg)
    for record in records:
        sys.stdout.write(record.jsonl() + "\n")
    print(f"{len(records)} closure classes at max length {cfg.max_word_length}",
          file=sys.stderr)
    return 0


def cmd_reduce(args) -> int:
    cfg = SearchConfig(args.max_length, args.partitions)
    records = enumerate_identity_words(cfg)
    reduction = reduce_relation_list(records)
    from .words import canonical_representative
    survivor_reps = {r.representative for r in reduction.survivors}
    raw_reps = {r.representative for r in records}
    comparison = []
    for letters, label in fixtures.TABLE_WORDS:
        rep = canonical_representative(letters)
        comparison.append({"word": letters, "label": label,
                           "in_raw": rep in raw_reps,
                           "survived": rep in survivor_reps})
    _emit({"raw_count": len(records),
           "survivor_count": len(reduction.survivors),
           "survivors": [r.to_json() for r in reduction.survivors],
           "casualty_count": len(reduction.casualties),
           "table_comparison": comparison})
    return 0


def cmd_verify_reductions(args) -> int:
    rows = verify_reduction_table()
    ok = all(r["holds"] for r in rows)
    _emit({"identities": rows, "all_hold": ok})
    return 0 if ok else 1


def cmd_group_probe(args) -> int:
    try:
        result = group_closure_probe(args.generators, args.bound)
    except WordError as e:
        raise InputError("unknown generator letter "
                         f"{args.generators[e.position]!r}") from e
    _emit({"generators": args.generators, **result.to_json()})
    return 0


def cmd_endpoints(args) -> int:
    points = identity_endpoint_lattice(args.max_length, args.sign)
    _emit({"max_length": args.max_length, "sign": args.sign,
           "points": [list(p) for p in points]})
    return 0


def cmd_render(args) -> int:
    if not 0 < args.scale < float("inf"):
        raise InputError(f"--scale must be finite and > 0, got {args.scale}")
    try:
        doc = _render_doc(args)
    except OverflowError as e:  # a finite scale can still overflow
        raise InputError(f"--scale {args.scale} is too large: {e}") from e
    try:
        with open(args.out, "w") as f:
            f.write(doc)
    except OSError as e:
        raise InputError(f"cannot write {args.out}: {e}") from e
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _render_doc(args) -> str:
    """The SVG text of the subject read from args.infile."""
    if args.subject == "region":
        return svg.render_region(load_region(args.infile), args.scale)
    if args.subject == "tiling":
        data = _read_json(args.infile)
        region = None
        entries = data
        try:
            if isinstance(data, dict):
                entries = data.get("certificate")
                if "region" in data:
                    region = region_from_json(json.dumps(data["region"]))
            tiling = SignedTiling.from_json(entries)
        except ValueError as e:  # RegionError is one
            raise InputError(f"{args.infile}: {e}") from e
        bad = None if region is None else signed_tiling_verify(region, tiling)
        if bad is not None:
            raise InputError(f"{args.infile}: the certificate does not tile "
                             f"the region at cell {list(bad[0])}")
        return svg.render_tiling(tiling, args.scale, region)
    return svg.render_path(load_word(args.infile), scale=args.scale)


_PARTITIONS_HELP = ("split the search by first letter into this many parts, "
                    "run in turn; the output is identical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexsbs",
        description="Boundary-word invariants and stone/bone/snake tilings "
                    "of hexagonal-grid regions, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-tiles",
                       help="evaluate all 11 tile boundary words")
    p.set_defaults(func=cmd_verify_tiles)

    p = sub.add_parser("check-region", help="boundary obstruction class")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check_region)

    p = sub.add_parser("solve-signed", help="signed tiling in padded window")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kinds", default="bone,stone,snake")
    p.add_argument("--padding", type=int, default=2)
    p.set_defaults(func=cmd_solve_signed)

    p = sub.add_parser("solve-exact", help="standard (exact cover) tiling")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kinds", default="bone,stone,snake")
    p.add_argument("--count", action="store_true")
    p.add_argument("--cap", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_solve_exact)

    p = sub.add_parser("check-sequence",
                       help="validate a boundary-constructible sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check_sequence)

    p = sub.add_parser("probe-stones", help="minimum-stone probe (0/1/?)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--padding", type=int, default=2)
    p.set_defaults(func=cmd_probe_stones)

    p = sub.add_parser("enumerate", help="identity-word search (JSONL)")
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--partitions", type=int, default=1, help=_PARTITIONS_HELP)
    p.add_argument("--census", action="store_true",
                   help="per-length identity-word counts from one "
                   "transfer pass over the step group, instead of JSONL")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reduce", help="enumerate then reduce relations")
    p.add_argument("--max-length", type=int, default=9)
    p.add_argument("--partitions", type=int, default=1, help=_PARTITIONS_HELP)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify-reductions",
                       help="check the seven reduction identities")
    p.set_defaults(func=cmd_verify_reductions)

    p = sub.add_parser("group-probe", help="BFS group closure order")
    p.add_argument("--generators", default="XYZ")
    p.add_argument("--bound", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_group_probe)

    p = sub.add_parser("endpoints", help="endpoint lattice of identity words")
    p.add_argument("--max-length", type=int, default=8)
    p.add_argument("--sign", choices=["+I", "-I", "both"], default="both",
                   help="the values to keep; write -I as --sign=-I, since "
                        "argparse reads a separate -I as an option")
    p.set_defaults(func=cmd_endpoints)

    p = sub.add_parser("render", help="render region/tiling/path as SVG")
    p.add_argument("--subject", choices=["region", "tiling", "path"],
                   required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=24.0)
    p.set_defaults(func=cmd_render)

    return parser


_parser = None  # built by the first run, not at import


def run(argv) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused by every later one in
    the process: parsing keeps no state in it, and each call gets a fresh
    namespace.  An argparse error raises SystemExit(2), as before."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SizeError) as e:  # a size below its floor is input
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a crash must not read as a negative answer
        message = " ".join(str(e).split())
        print(f"error: {type(e).__name__}: {message}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
