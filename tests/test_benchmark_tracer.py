"""The benchmark's layer tracer (perfbench/worker.py) wraps hexsbs
functions by name.  Running it here makes a rename fail the suite rather
than a later traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, worker
from hexsbs import cli
tracer = worker.Tracer()
worker.instrument(tracer)
tracer.enabled = True
tracer.op = 0
codes = [worker.call(cli, argv.split())[0] for argv in (
    "solve-signed --in fixtures/hex7.json",
    "check-region --in fixtures/hex7.json",
    "check-sequence --in fixtures/seq_2x2x2_left.json",
    "enumerate --max-length 5",
    "reduce --max-length 5",
    "enumerate --census --max-length 6",
    "endpoints --max-length 3")]
print(json.dumps([codes, sorted({s[3] for s in tracer.spans})]))
"""


def test_instrument_wraps_every_traced_layer():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD], capture_output=True, text=True,
        cwd=str(ROOT), env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, spans = json.loads(proc.stdout)
    assert codes == [0] * 7
    assert {"cli", "hexgrid.load", "tiling.signed", "tiling.placements",
            "tiling.lattice_build", "tiling.lattice_solve",
            "hexgrid.boundary", "words.eval", "tiling.sequence",
            "search.enumerate", "search.reduce", "search.census",
            "search.endpoints"} <= set(spans)
