"""hexsbs benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 25

Workloads: boundary, signed, exact, relations (see README.md).  The run
generates the workload's inputs from the seed, times `import hexsbs.cli`
in fresh interpreters, runs the operations in a separate workload process
(worker.py), checks every output against reference.py and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
the end-to-end metrics; --trace 1 the per-layer ones from a traced run.
Details of the run go to .perfbench_out/BENCH_<workload>[_trace].json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random

import checks
import inputs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 21
IMPORT_SAMPLES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}
# span name -> metric; self times are summed per name
SPAN_METRICS = {
    "cli": "cli.self_s", "hexgrid.load": "hexgrid.load_s",
    "hexgrid.boundary": "hexgrid.boundary_s", "words.eval": "words.eval_s",
    "words.canonical": "words.canonical_s",
    "tiling.sequence": "tiling.sequence_s", "tiling.signed": "tiling.signed_s",
    "tiling.placements": "tiling.placements_s",
    "tiling.lattice_build": "tiling.lattice_build_s",
    "tiling.lattice_solve": "tiling.lattice_solve_s",
    "tiling.probe": "tiling.probe_s",
    "tiling.exact_first": "tiling.exact_first_s",
    "tiling.exact_count": "tiling.exact_count_s",
    "search.enumerate": "search.enumerate_s",
    "search.enumerate_partitioned": "search.enumerate_partitioned_s",
    "search.reduce": "search.reduce_s", "search.census": "search.census_s",
    "search.endpoints": "search.endpoints_s",
}
COUNT_METRICS = {
    "boundary_letters": "hexgrid.boundary_letters",
    "sequence_steps": "tiling.sequence_steps",
    "placements": "tiling.placements", "window_cells": "tiling.window_cells",
    "certificate_tiles": "tiling.certificate_tiles",
    "classes": "search.classes", "survivors": "search.survivors",
}
IMPORT_METRICS = {"hexsbs.words": "words.import_s",
                  "hexsbs.tiling": "tiling.import_s",
                  "hexsbs.search": "search.import_s"}

IMPORT_PROBE = f"""
import sys, time
sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
import speed
before = speed.sample()
t = time.perf_counter()
import hexsbs.cli
t = time.perf_counter() - t
assert hexsbs.cli.__file__.startswith({str(SRC)!r}), hexsbs.cli.__file__
print(t, (before + speed.sample()) / 2)
"""


def fresh_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that sees neither site-packages nor PYTHON*
    variables, so hexsbs can only come from the checkout."""
    return subprocess.run([sys.executable, "-I", "-S", *args],
                          capture_output=True, text=True, timeout=60,
                          check=True)


def setup_samples(n: int) -> list:
    """Times of `import hexsbs.cli` in n fresh interpreters, at the
    reference speed."""
    out = []
    for _ in range(n):
        t, loop_s = map(float, fresh_python("-c", IMPORT_PROBE).stdout.split())
        out.append(t * speed.REFERENCE_S / loop_s)
    return out


def at_reference_speed(result) -> list:
    """Each round's operation times at the reference speed, each scaled by
    the mean of the speed samples taken just before and just after it."""
    return [[t * speed.REFERENCE_S * 2 / (loop[i] + loop[i + 1])
             for i, t in enumerate(row)]
            for row, loop in zip(result["rounds"], result["loop_s"])]


def import_self_seconds() -> dict:
    """Median self import time of each module, from -X importtime."""
    samples = {m: [] for m in IMPORT_METRICS}
    for _ in range(IMPORT_SAMPLES):
        err = fresh_python("-X", "importtime", "-c", IMPORT_PROBE).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                us = int(parts[0].rsplit(":", 1)[1])
                samples[parts[2].strip()].append(us / 1e6)
    return {IMPORT_METRICS[m]: statistics.median(v)
            for m, v in samples.items()}


def run_worker(run_dir: Path, seconds: int, trace: int) -> dict:
    """Run worker.py in its own session; on timeout the whole session,
    with any pool processes of hexsbs, is killed and waited for."""
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", str(HERE / "worker.py"), str(run_dir),
         str(seconds), str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload process exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{err}")
    return json.loads((run_dir / "result.json").read_text())


def check_outputs(plan, result) -> tuple:
    """(attempted, failed, problems).  An operation fails when it raises,
    exits 2 or gives a wrong output; in a later round, also when its
    output differs from the first round's."""
    rounds = len(result["rounds"])
    ctx = checks.Context(plan.files)
    failed, problems = 0, []
    for i, (op, first) in enumerate(zip(plan.ops, result["first"])):
        ctx.outputs.append(first["stdout"])
        changed = rounds - 1 - result["same_as_first"][i]
        if first["error"] is not None:
            found = ["raised " + first["error"].strip().splitlines()[-1]]
        elif first["code"] not in (0, 1):
            found = [f"exit {first['code']}"]
        else:
            found = checks.check(op, first["code"], first["stdout"], ctx)
        failed += rounds if found else changed
        if changed:
            found.append(f"output changed in {changed} later rounds")
        problems += [f"op {i} {' '.join(op['argv'])}: {p}" for p in found]
    return len(plan.ops) * rounds, failed, problems


def layer_metrics(result, spans) -> dict:
    """Self times and counts per traced round, from the spans."""
    traced = [k == "traced" for k in result["round_kinds"]]
    n = sum(traced)
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (
                s["end"] - s["start"])
    totals = {m: 0 for m in [*SPAN_METRICS.values(), *COUNT_METRICS.values(),
                             "eval_letters"]}
    for s in spans:
        totals[SPAN_METRICS[s["name"]]] += (
            s["end"] - s["start"] - child.get(s["id"], 0.0))
        for key, value in (s["counts"] or {}).items():
            totals[COUNT_METRICS.get(key, key)] += value
    letters = totals.pop("eval_letters")
    out = {m: v / n if m in SPAN_METRICS.values() else v // n
           for m, v in totals.items()}
    out["words.eval_ns_per_letter"] = (
        totals["words.eval_s"] / letters * 1e9 if letters else 0.0)
    out["cyclo.mul_ns"] = result["mat2_product_ns"]
    walls = [sum(r) for r in at_reference_speed(result)]
    out["trace.overhead_s"] = (
        statistics.median(w for w, t in zip(walls, traced) if t)
        - statistics.median(w for w, t in zip(walls, traced) if not t))
    return out


def input_size(plan, argv) -> dict:
    if "--in" not in argv:
        return {"max_length": int(argv[argv.index("--max-length") + 1])}
    content = plan.files[argv[argv.index("--in") + 1][1:-1]]
    if isinstance(content, list):
        return {"tiles": len(content)}
    return {"cells": len(content["cells"])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.PLANS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hexsbs" / "cli.py").is_file():
        print(f"no hexsbs sources under {SRC}", file=sys.stderr)
        return 2

    plan = inputs.PLANS[args.workload](Random(args.seed))
    run_dir = OUT / f"run-{args.workload}-{os.getpid()}"
    try:
        run_dir.mkdir(parents=True)
        for name, content in plan.files.items():
            (run_dir / name).write_text(json.dumps(content))
        (run_dir / "plan.json").write_text(json.dumps(
            {"warmup": plan.warmup, "ops": plan.ops}))
        fresh_python("-c", IMPORT_PROBE)  # writes the bytecode cache
        # set-up is sampled before and after the workload, so that a slow
        # drift of the machine's speed shows in both halves
        setup = [] if args.trace else setup_samples(SETUP_SAMPLES // 2)
        metrics = import_self_seconds() if args.trace else {}
        result = run_worker(run_dir, args.seconds, args.trace)
        if args.trace:
            spans = [json.loads(line) for line in
                     (run_dir / "spans.jsonl").read_text().splitlines()]
            shutil.copy(run_dir / "spans.jsonl",
                        OUT / f"spans_{args.workload}.jsonl")
        else:
            setup += setup_samples(SETUP_SAMPLES - len(setup))
            metrics["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems = check_outputs(plan, result)
    plain = [r for r, k in zip(at_reference_speed(result),
                               result["round_kinds"]) if k == "plain"]
    if args.trace:
        metrics.update(layer_metrics(result, spans))
        units = {m: "count" for m in COUNT_METRICS.values()}
        units.update({"words.eval_ns_per_letter": "ns", "cyclo.mul_ns": "ns"})
    else:
        metrics["wall_s"] = statistics.median(sum(r) for r in plain)
        metrics["op_p50_ms"] = 1e3 * statistics.median(
            t for r in plain for t in r)
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
        units = END_TO_END_UNITS
    report = {
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units.get(m, "s")}
                    for m, v in metrics.items()},
    }
    bench = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "rounds": len(plain),
             "rounds_s": [sum(r) for r, k in zip(result["rounds"],
                                                 result["round_kinds"])
                          if k == "plain"],
             **report, "problems": problems,
             "ops": [{"argv": op["argv"],
                      "input": input_size(plan, op["argv"]),
                      "median_s": statistics.median(r[i] for r in plain)}
                     for i, op in enumerate(plan.ops)]}
    name = f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(bench, indent=1) + "\n")
    for p in problems[:20]:
        print(p, file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
