"""The workload process: a closed loop over one plan's operations.

    python3 -I -S perfbench/worker.py <run dir> <seconds> <trace 0|1>

It imports hexsbs from the checkout's src/, reads <run dir>/plan.json and
sends one operation at a time through hexsbs.cli.run with stdout
captured.  After a warm-up it repeats whole rounds of the operation list
while another round still fits in <seconds>.  It keeps the outputs of the
first round, and for later rounds whether each output was byte-identical
to the first.  A speed.sample() runs before each operation and after the
last, outside the timed calls.  With tracing on, untraced and traced
rounds alternate and the spans of the traced rounds are written to
<run dir>/spans.jsonl.  The result goes to <run dir>/result.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import speed  # noqa: E402


class Tracer:
    """Spans around the public layer calls, kept in memory.

    A span is [id, parent id, op index, name, start, end, counts]; spans of
    one operation share the op index.  Calls from forked worker processes
    of hexsbs are passed through untraced.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = False
        self.pid = os.getpid()

    def wrap(self, fn, name, counts=None):
        def traced(*args, **kwargs):
            if not self.enabled or os.getpid() != self.pid:
                return fn(*args, **kwargs)
            span_name = name(*args, **kwargs) if callable(name) else name
            parent = self.stack[-1][0] if self.stack else None
            span = [len(self.spans), parent, self.op, span_name,
                    time.perf_counter(), None, None]
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                span[6] = counts(result, *args, **kwargs)
            return result
        return traced

    def patch(self, owner, attr, name, counts=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, counts))


def instrument(tracer: Tracer) -> None:
    """Wrap each public layer function where its callers look it up."""
    from hexsbs import cli, search, tiling, words

    def exact_name(region, kinds=None, mode="first", cap=None):
        return "tiling.exact_" + mode

    def enumerate_name(cfg=None):
        many = cfg is not None and cfg.partitions > 1
        return "search.enumerate" + ("_partitioned" if many else "")

    t = tracer.patch
    t(cli, "run", "cli")
    t(cli, "region_from_json", "hexgrid.load")
    t(tiling, "region_boundary_word", "hexgrid.boundary",
      lambda bw, *a, **k: {"boundary_letters": len(bw.word)})
    t(tiling, "eval_word", "words.eval",
      lambda m, w, *a, **k: {"eval_letters": len(w)})
    t(cli, "constructible_sequence_check", "tiling.sequence",
      lambda rep, *a, **k: {"sequence_steps": len(rep.records)})
    t(cli, "signed_tiling_solve", "tiling.signed",
      lambda st, *a, **k: {"certificate_tiles":
                           len(st.entries) if st is not None else 0})
    t(tiling, "pad_window", "tiling.placements")
    t(tiling, "enumerate_placements", "tiling.placements",
      lambda ps, window, *a, **k: {"placements": len(ps),
                                   "window_cells": len(window)})
    t(tiling.IntegerLattice, "solve", "tiling.lattice_solve")
    t(tiling, "IntegerLattice", "tiling.lattice_build")
    t(cli, "min_stone_probe", "tiling.probe")
    t(cli, "standard_tiling_solve", exact_name)
    t(cli, "enumerate_identity_words", enumerate_name,
      lambda recs, *a, **k: {"classes": len(recs)})
    t(search, "canonical_representative", "words.canonical")
    t(words, "canonical_representative", "words.canonical")
    t(cli, "reduce_relation_list", "search.reduce",
      lambda red, *a, **k: {"survivors": len(red.survivors)})
    t(cli, "identity_word_census", "search.census")
    t(cli, "identity_endpoint_lattice", "search.endpoints")


def call(cli, argv):
    """(exit code or None, stdout, error text or None) of one operation."""
    out = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a raising operation is recorded as failed
            error = traceback.format_exc(limit=3)
    return code, out.getvalue(), error


def mat2_product_ns() -> float:
    """Time of one Mat2 product of a group element by a step matrix."""
    from hexsbs.cyclo import IDENTITY
    from hexsbs.words import STEP_MATRICES
    steps = list(STEP_MATRICES.values())
    elements, frontier = {IDENTITY}, [IDENTITY]
    while frontier:
        new = {m * s for m in frontier for s in steps} - elements
        elements |= new
        frontier = list(new)
    pairs = [(m, s) for m in elements for s in steps]
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(40):
            for m, s in pairs:
                m * s
        best = min(best, time.perf_counter() - t0)
    return best / (40 * len(pairs)) * 1e9


def main(run_dir: str, seconds: str, trace: str) -> int:
    run_dir = Path(run_dir)
    import hexsbs.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"hexsbs imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    plan = json.loads((run_dir / "plan.json").read_text())

    def files(argv):
        return [str(run_dir / a[1:-1]) if a.startswith("{") else a
                for a in argv]

    warmup = [files(argv) for argv in plan["warmup"]]
    ops = [files(op["argv"]) for op in plan["ops"]]
    tracer = Tracer()
    if trace == "1":
        instrument(tracer)
    for a in warmup:
        call(cli, a)

    first, same, times, speeds, kinds = [], [0] * len(ops), [], [], []
    budget, start = float(seconds), time.perf_counter()
    while True:
        traced = trace == "1" and len(times) % 2 == 1
        row, loop_s = [], [speed.sample()]
        for i, a in enumerate(ops):
            tracer.op = i
            tracer.enabled = traced
            t0 = time.perf_counter()
            out = call(cli, a)
            row.append(time.perf_counter() - t0)
            tracer.enabled = False
            loop_s.append(speed.sample())
            if len(first) < len(ops):
                first.append(out)
            elif out == first[i]:
                same[i] += 1
        times.append(row)
        speeds.append(loop_s)
        kinds.append("traced" if traced else "plain")
        elapsed = time.perf_counter() - start
        pairs_done = trace != "1" or len(times) % 2 == 0
        if pairs_done and elapsed + elapsed / len(times) * (
                2 if trace == "1" else 1) > budget:
            break

    result = {
        "first": [{"code": c, "stdout": o, "error": e} for c, o, e in first],
        "same_as_first": same,
        "rounds": times,
        "loop_s": speeds,  # speed.sample() before each op and at the end
        "round_kinds": kinds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace == "1":
        result["mat2_product_ns"] = mat2_product_ns()
        with open(run_dir / "spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start", "end", "counts"),
                    s))) + "\n")
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
