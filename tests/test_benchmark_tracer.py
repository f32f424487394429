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
code = worker.call(cli, ["solve-signed", "--in", "fixtures/hex7.json"])[0]
print(json.dumps([code, sorted({s[3] for s in tracer.spans})]))
"""


def test_instrument_wraps_every_traced_layer():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD], capture_output=True, text=True,
        cwd=str(ROOT), env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, spans = json.loads(proc.stdout)
    assert code == 0
    assert {"cli", "hexgrid.load", "tiling.signed", "tiling.placements",
            "tiling.lattice_build", "tiling.lattice_solve"} <= set(spans)
