"""Single-run timings of the scaling curves named in ROADMAP.md.

    python3 perfbench/curves.py

Prints one JSON line per point: identity-word enumeration at lengths
9/10/11, signed_tiling_solve on hexagons of side 5/8/11, and boundary
extraction and eval_word on a 4500-cell straight bar (9001 letters).
Takes about two minutes on 2 cores; the figures go in README.md.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hexsbs.hexgrid import region_boundary_word, region_validate  # noqa: E402
from hexsbs.search import SearchConfig, enumerate_identity_words  # noqa: E402
from hexsbs.tiling import signed_tiling_solve  # noqa: E402
from hexsbs.words import eval_word  # noqa: E402

from inputs import bar, hexagon  # noqa: E402


def timed(label, size, fn, *args):
    t = time.perf_counter()
    result = fn(*args)
    print(json.dumps({"curve": label, **size,
                      "seconds": round(time.perf_counter() - t, 3)}),
          flush=True)
    return result


def main() -> None:
    for n in (9, 10, 11):
        timed("enumerate", {"max_length": n}, enumerate_identity_words,
              SearchConfig(n))
    for side in (5, 8, 11):
        region = region_validate(hexagon(side))
        timed("signed_tiling_solve", {"side": side, "cells": len(region)},
              signed_tiling_solve, region)
    region = region_validate(bar(1500))
    word = timed("region_boundary_word", {"cells": len(region)},
                 region_boundary_word, region).word
    timed("eval_word", {"letters": len(word)}, eval_word, word)


if __name__ == "__main__":
    main()
