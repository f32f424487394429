import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hexsbs import cli, hexgrid
from hexsbs.cli import run
from hexsbs.tiling import SignedTiling, signed_tiling_verify
from hexsbs.hexgrid import region_validate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_tiles(capsys):
    code, out, _ = invoke(capsys, "verify-tiles")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] and data["count"] == 11
    stones = [t for t in data["tiles"] if t["kind"] == "stone"]
    assert all(t["step_class"] == "MinusIdentity" for t in stones)


def test_check_region_hex7(capsys):
    code, out, _ = invoke(capsys, "check-region", "--in",
                          str(FIXTURES / "hex7.json"))
    assert code == 0
    assert json.loads(out)["class"] == "PlusIdentity"


def test_check_region_walks_the_boundary_once(capsys, monkeypatch):
    # validation keeps its walk for the boundary word, and the flood that
    # names a fault runs only on a rejected region
    walks = []
    walk_from = hexgrid._walk_from

    def counted(cells, cell, k):
        walks.append((cell, k))
        return walk_from(cells, cell, k)

    def flood(cells):
        raise AssertionError("flood on a valid region")

    monkeypatch.setattr(hexgrid, "_walk_from", counted)
    monkeypatch.setattr(hexgrid, "is_edge_connected", flood)
    code, out, _ = invoke(capsys, "check-region", "--in",
                          str(FIXTURES / "hex7.json"))
    assert (code, json.loads(out)["class"]) == (0, "PlusIdentity")
    assert len(walks) == 1


def test_check_region_single_cell(capsys):
    code, out, _ = invoke(capsys, "check-region", "--in",
                          str(FIXTURES / "single_cell.json"))
    assert code == 1
    assert json.loads(out)["class"] == "Other"


def test_check_region_ascii(capsys):
    code, out, _ = invoke(capsys, "check-region", "--in",
                          str(FIXTURES / "hex7.txt"))
    assert code == 0
    assert json.loads(out)["class"] == "PlusIdentity"


def test_check_region_ring_is_input_error(capsys):
    code, out, err = invoke(capsys, "check-region", "--in",
                            str(FIXTURES / "ring6.json"))
    assert code == 2
    assert "simply connected" in err


@pytest.mark.parametrize("cells, index", [
    ([[0.9, 0], [1.5, False]], "cell 0"),
    ([[0, 0], [1, False]], "cell 1"),
    ([[0, 0], [0]], "cell 1"),
    ([[0, 0], [0, 1], [0, 0]], "cell 2"),
])
def test_check_region_rejects_malformed_cells(capsys, tmp_path, cells,
                                              index):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cells": cells}))
    code, out, err = invoke(capsys, "check-region", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and index in err


def test_check_region_rejects_non_list_cells(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cells": 5}')
    code, out, err = invoke(capsys, "check-region", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("exc, line", [
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError: maximum recursion depth exceeded\n"),
    (KeyError("two\nlines"), "error: KeyError: 'two\\nlines'\n"),
    (RuntimeError("two\nlines"), "error: RuntimeError: two lines\n"),
])
def test_unexpected_failure_exits_2_without_traceback(capsys, monkeypatch,
                                                      exc, line):
    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "standard_tiling_solve", crash)
    code, out, err = invoke(capsys, "solve-exact", "--in",
                            str(FIXTURES / "bone.json"))
    assert (code, out, err) == (2, "", line)


def test_missing_file(capsys):
    code, _, err = invoke(capsys, "check-region", "--in", "no_such.json")
    assert code == 2
    assert "error" in err


def test_solve_signed_hex7(capsys):
    code, out, _ = invoke(capsys, "solve-signed", "--in",
                          str(FIXTURES / "hex7.json"),
                          "--kinds", "bone,snake")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "Solvable"
    tiling = SignedTiling.from_json(data["certificate"])
    region = region_validate(json.loads(
        (FIXTURES / "hex7.json").read_text())["cells"])
    assert signed_tiling_verify(region, tiling) is None


def test_solve_signed_unknown_kind(capsys):
    code, _, err = invoke(capsys, "solve-signed", "--in",
                          str(FIXTURES / "hex7.json"), "--kinds", "brick")
    assert code == 2
    assert "brick" in err


def test_solve_exact_bone(capsys):
    code, out, _ = invoke(capsys, "solve-exact", "--in",
                          str(FIXTURES / "bone.json"), "--count")
    assert code == 0
    assert json.loads(out) == {"count": 1, "cap_exceeded": False}


def test_solve_exact_single_cell_negative(capsys):
    code, out, _ = invoke(capsys, "solve-exact", "--in",
                          str(FIXTURES / "single_cell.json"))
    assert code == 1
    assert json.loads(out)["result"] == "NoTiling"


def test_check_sequence_left(capsys):
    code, out, _ = invoke(capsys, "check-sequence", "--in",
                          str(FIXTURES / "seq_2x2x2_left.json"))
    assert code == 0
    data = json.loads(out)
    assert data["valid"]
    assert [s["class"] for s in data["steps"]][-3:] == \
        ["PlusIdentity", "MinusIdentity", "PlusIdentity"]


def test_check_sequence_middle(capsys):
    code, out, _ = invoke(capsys, "check-sequence", "--in",
                          str(FIXTURES / "seq_2x2x2_middle.json"))
    assert code == 1
    data = json.loads(out)
    assert not data["valid"]
    assert data["violation_reason"] == "disconnected"


def test_probe_stones_crescent(capsys):
    code, out, _ = invoke(capsys, "probe-stones", "--in",
                          str(FIXTURES / "crescent.json"))
    assert code == 0
    data = json.loads(out)
    assert data["stones"] == 0
    assert data["boundary_class"] == "MinusIdentity"
    assert data["parity_consistent"] is False


def test_enumerate_jsonl(capsys):
    code, out, err = invoke(capsys, "enumerate", "--max-length", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 15
    assert lines[0]["length"] == 3
    assert "closure classes" in err


def test_enumerate_partitions_byte_identical(capsys):
    _, single, _ = invoke(capsys, "enumerate", "--max-length", "6")
    _, multi, _ = invoke(capsys, "enumerate", "--max-length", "6",
                         "--partitions", "2")
    assert single == multi


def test_enumerate_census(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--census",
                          "--max-length", "8")
    assert code == 0
    data = json.loads(out)
    assert data["group_size"] == 24
    assert data["counts"][1] == {"length": 3, "plus": 1, "minus": 1}


def test_reduce_reports_table_comparison(capsys):
    code, out, _ = invoke(capsys, "reduce", "--max-length", "6")
    assert code == 0
    data = json.loads(out)
    assert data["raw_count"] == data["survivor_count"] + \
        data["casualty_count"]
    comparison = {row["word"]: row for row in data["table_comparison"]}
    assert comparison["YZX"]["in_raw"] is True
    assert comparison["yZxYzX"]["in_raw"] is True  # stone, length 6
    assert comparison["ZxxYXXX"]["in_raw"] is False  # too long for max 6


def test_verify_reductions(capsys):
    code, out, _ = invoke(capsys, "verify-reductions")
    assert code == 0
    data = json.loads(out)
    assert data["all_hold"] and len(data["identities"]) == 7


def test_group_probe(capsys):
    code, out, _ = invoke(capsys, "group-probe", "--generators", "X",
                          "--bound", "100")
    assert code == 0
    data = json.loads(out)
    assert data["result"] == "FiniteOrder" and data["order"] == 6


def test_group_probe_full(capsys):
    code, out, _ = invoke(capsys, "group-probe")
    assert json.loads(out)["order"] == 24 and code == 0


def test_endpoints(capsys):
    code, out, _ = invoke(capsys, "endpoints", "--max-length", "6",
                          "--sign=-I")
    assert code == 0
    assert [0, 3] in json.loads(out)["points"]


@pytest.mark.parametrize("argv, option", [
    (["solve-exact", "--in", "bone.json", "--count", "--cap", "-1"], "cap"),
    (["solve-exact", "--in", "bone.json", "--cap", "-1"], "cap"),
    (["solve-signed", "--in", "hex7.json", "--padding", "-2"], "padding"),
    (["probe-stones", "--in", "crescent.json", "--padding", "-2"],
     "padding"),
    (["endpoints", "--max-length", "-3"], "max_length"),
])
def test_negative_numeric_option_exits_2(capsys, argv, option):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert option in err


BONE_STEP = {"action": "add", "kind": "bone", "orientation": "left",
             "anchor": [0, 0]}


@pytest.mark.parametrize("data, where", [
    ([{**BONE_STEP, "anchor": [1.0, True]}], "step 0"),
    ([BONE_STEP, {**BONE_STEP, "anchor": [3, True]}], "step 1"),
    ([BONE_STEP, {**BONE_STEP, "anchor": [3]}], "step 1"),
    ([BONE_STEP, 5], "step 1"),
    ({}, "list"),
    (BONE_STEP, "list"),
])
def test_check_sequence_rejects_malformed_steps(capsys, tmp_path, data,
                                                where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "check-sequence", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize("edit, where", [
    ({"coeff": 1.7}, "entry 1"),
    ({"coeff": True}, "entry 1"),
    ({"anchor": [0, 0.0]}, "entry 1"),
    ({"anchor": [False, 0]}, "entry 1"),
    (None, "list"),
    ({"coeff": 0}, "entry 1: coeff 0 is not 1 or -1"),
    ({"coeff": 5}, "entry 1: coeff 5 is not 1 or -1"),
    ({"coeff": -1}, "does not tile the region at cell [-1, 2]"),
])
def test_render_tiling_rejects_malformed_entries(capsys, tmp_path, edit,
                                                 where):
    data = json.loads((FIXTURES / "crescent_tiling.json").read_text())
    if edit is None:
        del data["certificate"]
    else:
        data["certificate"][1].update(edit)
    path, out_file = tmp_path / "bad.json", tmp_path / "bad.svg"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "render", "--subject", "tiling", "--in",
                            str(path), "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err and not out_file.exists()


@pytest.mark.parametrize("region, where", [
    (5, "region JSON must be"),
    ({"cells": [[0, 0], [0, 0]]}, "duplicate"),
    ({"cells": [[0, 0], [5, 5]]}, "not edge-connected"),
])
def test_render_tiling_rejects_malformed_region(capsys, tmp_path, region,
                                                where):
    data = json.loads((FIXTURES / "crescent_tiling.json").read_text())
    data["region"] = region
    path, out_file = tmp_path / "bad.json", tmp_path / "bad.svg"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "render", "--subject", "tiling", "--in",
                            str(path), "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert where in err and not out_file.exists()


def test_render_region(capsys, tmp_path):
    out_file = tmp_path / "hex7.svg"
    code, _, _ = invoke(capsys, "render", "--subject", "region", "--in",
                        str(FIXTURES / "hex7.json"), "--out", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    polygons = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    assert len(polygons) == 7


@pytest.mark.parametrize("scale", ["0", "-5", "nan", "inf"])
def test_render_rejects_bad_scale(capsys, tmp_path, scale):
    out_file = tmp_path / "hex7.svg"
    code, out, err = invoke(capsys, "render", "--subject", "region", "--in",
                            str(FIXTURES / "hex7.json"), "--out",
                            str(out_file), f"--scale={scale}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--scale" in err and not out_file.exists()


def test_render_tiling(capsys, tmp_path):
    out_file = tmp_path / "crescent.svg"
    code, _, _ = invoke(capsys, "render", "--subject", "tiling", "--in",
                        str(FIXTURES / "crescent_tiling.json"),
                        "--out", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    groups = [g for g in root.findall(".//{http://www.w3.org/2000/svg}g")
              if g.get("data-sign")]
    assert len(groups) == 3
    assert sum(1 for g in groups if g.get("data-sign") == "negative") == 1


def test_render_path_literal_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out_file in (a, b):
        code, _, _ = invoke(capsys, "render", "--subject", "path", "--in",
                            "ZyZYzYX", "--out", str(out_file))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    root = ET.fromstring(a.read_text())
    polyline = root.find(".//{http://www.w3.org/2000/svg}polyline")
    points = polyline.get("points").split()
    assert points[0] == points[-1]  # closed loop


def test_render_determinism_region(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out_file in (a, b):
        invoke(capsys, "render", "--subject", "region", "--in",
               str(FIXTURES / "crescent.json"), "--out", str(out_file))
    assert a.read_bytes() == b.read_bytes()


def test_stdout_determinism(capsys):
    _, first, _ = invoke(capsys, "solve-signed", "--in",
                         str(FIXTURES / "hex7.json"), "--kinds", "bone,snake")
    _, second, _ = invoke(capsys, "solve-signed", "--in",
                          str(FIXTURES / "hex7.json"), "--kinds",
                          "bone,snake")
    assert first == second


def test_all_shipped_fixtures_load(capsys):
    for path in sorted(FIXTURES.iterdir()):
        if path.name.startswith("seq_"):
            code, _, _ = invoke(capsys, "check-sequence", "--in", str(path))
            assert code in (0, 1), path.name
        elif path.name == "crescent_tiling.json":
            data = json.loads(path.read_text())
            tiling = SignedTiling.from_json(data["certificate"])
            region = region_validate(
                [tuple(c) for c in data["region"]["cells"]])
            assert signed_tiling_verify(region, tiling) is None
        elif path.name == "barbell_word.txt":
            code, _, _ = invoke(capsys, "render", "--subject", "path",
                                "--in", str(path), "--out", "/dev/null")
            assert code == 0
        elif path.name == "ring6.json":
            code, _, _ = invoke(capsys, "check-region", "--in", str(path))
            assert code == 2  # shipped as a validation-failure example
        else:
            code, _, _ = invoke(capsys, "check-region", "--in", str(path))
            assert code in (0, 1), path.name


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 2


def test_console_script_entry_point():
    # the child imports the same hexsbs, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hexsbs.cli", "verify-tiles"],
        capture_output=True, text=True,
        cwd=str(FIXTURES.parent), env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_ok"]
