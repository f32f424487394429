import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexsbs import cli, cyclo, fixtures, hexgrid, svg
from hexsbs.cli import run
from hexsbs.search import identity_word_census
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


def test_verify_tiles_prints_the_import_calibration(capsys, monkeypatch):
    # the words were evaluated once, at import; the command multiplies
    # no matrix
    def product(self, other):
        raise AssertionError("verify-tiles evaluated a word")

    monkeypatch.setattr(cyclo.Mat2, "__mul__", product)
    code, out, _ = invoke(capsys, "verify-tiles")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d9bb0809eedcf5593a6a847cca5f22ec5840332c38f6abbc4fcaac60d1e4db4a"


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
    (ValueError("bound must be >= 1"),
     "error: ValueError: bound must be >= 1\n"),  # not a size error
])
def test_unexpected_failure_exits_2_without_traceback(capsys, monkeypatch,
                                                      exc, line):
    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "standard_tiling_solve", crash)
    code, out, err = invoke(capsys, "solve-exact", "--in",
                            str(FIXTURES / "bone.json"))
    assert (code, out, err) == (2, "", line)


def fresh(capsys, monkeypatch, *argv):
    """invoke with a parser built for this call alone."""
    monkeypatch.setattr(cli, "_parser", None)
    return invoke(capsys, *argv)


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch,
                                                    tmp_path):
    path = tmp_path / "para.json"
    path.write_text(json.dumps(
        {"cells": [[q, r] for q in range(4) for r in range(6)]}))
    calls = [["solve-exact", "--in", str(path), "--count", "--cap", "5"],
             ["solve-exact", "--in", str(path)],
             ["solve-exact", "--in", str(path), "--kinds", "bone", "--count"],
             ["solve-exact", "--in", str(path), "--count"],
             ["check-region", "--in", str(path)]]
    expected = [fresh(capsys, monkeypatch, *argv) for argv in calls]
    assert expected[0][1] == '{"cap_exceeded": true, "count": 5}\n'
    assert expected[1][1].startswith('{"placements": ')
    monkeypatch.setattr(cli, "_parser", None)
    assert [invoke(capsys, *argv) for argv in calls] == expected
    assert [invoke(capsys, *argv) for argv in calls[::-1]] == expected[::-1]


def test_shared_parser_recovers_from_a_usage_error(capsys, monkeypatch):
    valid = ["solve-exact", "--in", str(FIXTURES / "bone.json")]
    expected = fresh(capsys, monkeypatch, *valid)
    for bad in (valid + ["--no-such-flag"], ["frobnicate"],
                ["solve-exact", "--cap", "many", "--in", valid[2]]):
        with pytest.raises(SystemExit) as err:
            run(bad)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        assert invoke(capsys, *valid) == expected


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["verify-tiles"], ["group-probe"], ["verify-tiles"],
                 ["check-region", "--in", str(FIXTURES / "hex7.json")]):
        invoke(capsys, *argv)
    assert len(built) == 1


@contextlib.contextmanager
def collector(enabled):
    """The cyclic garbage collector enabled or disabled, as asked, and
    set back as it was afterwards."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, exc, outcome", [
    (["check-region", "--in", str(FIXTURES / "hex7.json")], None, 0),
    (["solve-exact", "--in", str(FIXTURES / "hex7.json")], None, 1),
    (["check-region", "--in", str(FIXTURES / "ring6.json")], None, 2),
    (["solve-exact", "--in", str(FIXTURES / "bone.json")],
     RuntimeError("crash"), 2),
    (["solve-exact", "--no-such-flag"], None, SystemExit),
    (["solve-exact", "--in", str(FIXTURES / "bone.json")],
     KeyboardInterrupt(), KeyboardInterrupt),
], ids=["exit-0", "exit-1", "input-error", "crash", "usage-error",
        "interrupt"])
def test_run_restores_the_callers_collector_state(capsys, monkeypatch,
                                                  enabled, argv, exc,
                                                  outcome):
    seen = []

    def solve(*args, **kwargs):
        seen.append(gc.isenabled())
        if exc is not None:
            raise exc

    monkeypatch.setattr(cli, "standard_tiling_solve", solve)
    with collector(enabled):
        if isinstance(outcome, int):
            assert run(argv) == outcome
        else:
            with pytest.raises(outcome):
                run(argv)
        assert gc.isenabled() is enabled
    # the command itself ran with the collector paused
    assert seen == ([False] if argv[:2] == ["solve-exact", "--in"] else [])


def test_no_command_leaves_cyclic_garbage(capsys, tmp_path):
    # the collector is paused while a command runs, so a reference cycle
    # a command left would stay in memory until some later collection.
    # The collector is disabled here too, so no threshold can trip inside
    # a command, and the collection after it finds what the command left
    out = str(tmp_path / "out.svg")
    commands = [
        ["check-region", "--in", str(FIXTURES / "hex7.json")],
        ["solve-signed", "--in", str(FIXTURES / "crescent.json")],
        ["solve-exact", "--in", str(FIXTURES / "crescent.json")],
        ["solve-exact", "--in", str(FIXTURES / "hex7.json"), "--count"],
        ["probe-stones", "--in", str(FIXTURES / "crescent.json")],
        ["check-sequence", "--in", str(FIXTURES / "seq_2x2x2_left.json")],
        ["render", "--subject", "region", "--in",
         str(FIXTURES / "hex7.json"), "--out", out],
        ["render", "--subject", "tiling", "--in",
         str(FIXTURES / "crescent_tiling.json"), "--out", out],
        ["render", "--subject", "path", "--in", "ZyZYzYX", "--out", out],
        ["enumerate", "--max-length", "9"],
        ["enumerate", "--max-length", "9", "--partitions", "3"],
        ["enumerate", "--census", "--max-length", "30"],
        ["reduce", "--max-length", "9"],
        ["endpoints", "--max-length", "7"],
        ["group-probe"],
        ["verify-tiles"],
        ["verify-reductions"],
        ["check-region", "--in", str(FIXTURES / "ring6.json")],
    ]
    for argv in commands:  # first calls fill caches that last the process
        run(argv)
    left = {}
    with collector(True):
        for argv in commands:
            gc.collect()
            gc.disable()
            run(argv)
            gc.enable()
            left[" ".join(argv)] = gc.collect()
    capsys.readouterr()
    assert left == dict.fromkeys(left, 0)


def test_cli_import_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    child = ("import sys; sys.path.insert(0, sys.argv[1]); import hexsbs.cli; "
             "print(hexsbs.cli._parser)")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", child, src],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "None\n"), proc.stderr


def test_certificate_check_holds_under_optimize():
    # python -O strips assert statements; a signed tiling that fails its
    # own check must still exit 2 with one line, not print the tiling
    src = str(Path(cli.__file__).resolve().parents[1])
    child = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from hexsbs import cli, tiling; "
             "tiling.signed_tiling_verify = lambda region, t: ((0, 0), 2); "
             "sys.exit(cli.run(['solve-signed', '--in', sys.argv[2]]) "
             "if sys.flags.optimize else 99)")
    proc = subprocess.run([sys.executable, "-O", "-I", "-S", "-c", child,
                           src, str(FIXTURES / "hex7.json")],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: AssertionError: the signed tiling found does not tile the "
        "region: cell [0, 0] has net coverage 2\n")


def test_missing_file(capsys):
    code, _, err = invoke(capsys, "check-region", "--in", "no_such.json")
    assert code == 2
    assert "error" in err


UNREADABLE = {
    "not_utf8": (b'\xff\xfe{"cells": [[0, 0]]}', "not UTF-8 text: "),
    # past the parser's stack on 3.10-3.13; 3.13 reads 5000 deep
    "nested": (b"[" * 100000 + b"]" * 100000,
               "JSON nested too deep to read: "),
}


@pytest.mark.parametrize("command", [
    ["check-region"], ["solve-exact"], ["check-sequence"],
    ["render", "--subject", "tiling", "--out", "out.svg"]],
    ids=lambda c: c[0])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_is_an_input_error_naming_it(capsys, tmp_path,
                                                      monkeypatch, command,
                                                      case):
    monkeypatch.chdir(tmp_path)
    data, reason = UNREADABLE[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = invoke(capsys, *command, "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: {reason}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.svg").exists()


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


@pytest.mark.parametrize("command", ["solve-signed", "solve-exact"])
@pytest.mark.parametrize("kinds", ["", ",", " , "])
def test_empty_kinds_is_input_error(capsys, command, kinds):
    # no kinds is a usage error, not a computed "no tiling"
    code, out, err = invoke(capsys, command, "--in",
                            str(FIXTURES / "hex7.json"), "--kinds", kinds)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_empty_region_same_answer_in_both_formats(capsys, tmp_path):
    as_json, as_ascii = tmp_path / "empty.json", tmp_path / "empty.txt"
    as_json.write_text('{"cells": []}')
    as_ascii.write_text("...\n. .\n")
    signed = [invoke(capsys, "solve-signed", "--in", str(path))
              for path in (as_json, as_ascii)]
    assert signed[0] == signed[1]
    assert signed[0] == (0, '{"certificate": [], "result": "Solvable"}\n',
                         "")
    for path in (as_json, as_ascii):
        code, out, err = invoke(capsys, "check-region", "--in", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "empty region" in err


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


def test_endpoints_sign_help_names_the_equals_form(capsys):
    # argparse takes the -I of "--sign -I" for an option; the help says so
    with pytest.raises(SystemExit) as err:
        run(["endpoints", "--sign", "-I"])
    assert err.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        run(["endpoints", "--help"])
    assert err.value.code == 0
    assert "--sign=-I" in " ".join(capsys.readouterr().out.split())


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


def test_census_past_the_int_to_text_limit_is_an_input_error(capsys):
    code, out, err = invoke(capsys, "enumerate", "--census",
                            "--max-length", "6300")
    assert (code, out) == (2, "")
    assert err == ("error: --max-length 6300: a census count has more "
                   "digits than Python's limit on converting an int to text "
                   f"({sys.get_int_max_str_digits()} digits)\n")


def test_census_prints_to_length_6154_at_the_default_digit_limit():
    # the README's figure, for Python's default limit of 4300 digits
    counts = identity_word_census(6155).counts
    assert counts[-1][0] == 6155
    assert max(max(p, m) for _, p, m in counts[:-1]) < 10 ** 4300 \
        <= max(counts[-1][1:])


@pytest.mark.parametrize("partitions", ["0", "-1"])
def test_census_rejects_bad_partitions(capsys, partitions):
    code, out, err = invoke(capsys, "enumerate", "--census",
                            "--max-length", "8", "--partitions", partitions)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "partitions" in err


# every size flag of the command line, just below its floor
SIZE_FLOORS = [
    (["solve-signed", "--in", "hex7.json", "--padding", "-1"], "padding", 0),
    (["solve-exact", "--in", "bone.json", "--cap", "-1"], "cap", 0),
    (["solve-exact", "--in", "bone.json", "--count", "--cap", "-1"], "cap",
     0),
    (["probe-stones", "--in", "crescent.json", "--padding", "-1"], "padding",
     0),
    (["enumerate", "--max-length", "1"], "max_word_length", 2),
    (["enumerate", "--census", "--max-length", "1"], "max_word_length", 2),
    (["enumerate", "--partitions", "0"], "partitions", 1),
    (["reduce", "--max-length", "1"], "max_word_length", 2),
    (["reduce", "--partitions", "0"], "partitions", 1),
    (["group-probe", "--bound", "0"], "bound", 1),
    (["endpoints", "--max-length", "-1"], "max_length", 0),
]


@pytest.mark.parametrize("argv, name, floor", SIZE_FLOORS,
                         ids=[" ".join(w for w in a if w != "--in"
                                       and not w.endswith(".json"))
                              for a, _, _ in SIZE_FLOORS])
def test_size_below_its_floor_is_an_input_error(capsys, argv, name, floor):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    assert invoke(capsys, *argv) == \
        (2, "", f"error: {name} must be >= {floor}\n")


BONE_STEP = {"action": "add", "kind": "bone", "orientation": "left",
             "anchor": [0, 0]}


@pytest.mark.parametrize("data, where", [
    ([{**BONE_STEP, "anchor": [1.0, True]}], "step 0"),
    ([BONE_STEP, {**BONE_STEP, "anchor": [3, True]}], "step 1"),
    ([BONE_STEP, {**BONE_STEP, "anchor": [3]}], "step 1"),
    ([BONE_STEP, 5], "step 1"),
    ({}, "list"),
    (BONE_STEP, "list"),
    ([{**BONE_STEP, "action": "move"}], "step 0: bad action 'move'"),
    ([{**BONE_STEP, "orientation": "sideways"}],
     "step 0: unknown tile bone_sideways"),
    *(([BONE_STEP, {k: v for k, v in BONE_STEP.items() if k != field}],
       f"step 1: missing field '{field}'")
      for field in ("kind", "orientation", "anchor", "action")),
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
    ({"kind": "bone", "orientation": "sideways"},
     "entry 1: unknown tile bone_sideways"),
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


@pytest.mark.parametrize("field", ["kind", "orientation", "anchor", "coeff"])
def test_render_tiling_names_a_missing_field(capsys, tmp_path, field):
    data = json.loads((FIXTURES / "crescent_tiling.json").read_text())
    del data["certificate"][1][field]
    path, out_file = tmp_path / "bad.json", tmp_path / "bad.svg"
    path.write_text(json.dumps(data))
    code, out, err = invoke(capsys, "render", "--subject", "tiling", "--in",
                            str(path), "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: entry 1: missing field '{field}'\n"
    assert not out_file.exists()


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


@pytest.mark.parametrize("argv, message", [
    (["render", "--subject", "path", "--in", "XQ", "--out", "{tmp}/out.svg"],
     "error: bad word 'XQ': invalid step letter 'Q' at index 1"),
    (["check-sequence", "--in", "{tmp}/missing.json"],
     "error: {tmp}/missing.json: "),
    (["check-sequence", "--in", "{tmp}/bad.json"], "error: {tmp}/bad.json: "),
    (["group-probe", "--generators", "XQ"],
     "error: unknown generator letter 'Q'"),
    (["render", "--subject", "tiling", "--in", "{tmp}/bad.json",
      "--out", "{tmp}/out.svg"], "error: {tmp}/bad.json: "),
    (["render", "--subject", "region", "--in", str(FIXTURES / "hex7.json"),
      "--out", "{tmp}/missing/out.svg"],
     "error: cannot write {tmp}/missing/out.svg: "),
], ids=["bad path word", "missing sequence", "malformed sequence",
        "bad generator", "malformed tiling", "missing out directory"])
def test_input_error_paths_exit_2(capsys, tmp_path, argv, message):
    (tmp_path / "bad.json").write_text('[{"action": "add",')
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message.format(tmp=tmp_path))
    assert err.count("\n") == 1
    assert not (tmp_path / "out.svg").exists()


def test_render_region(capsys, tmp_path):
    out_file = tmp_path / "hex7.svg"
    code, _, _ = invoke(capsys, "render", "--subject", "region", "--in",
                        str(FIXTURES / "hex7.json"), "--out", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    polygons = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    assert len(polygons) == 7


def test_render_empty_region_is_an_empty_document():
    # a document with no points frames the origin
    assert svg.render_region(hexgrid.Region(frozenset())) == (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-8.00 -8.00 16.00 16.00" width="16.00" height="16.00">'
        "\n\n</svg>\n")


@pytest.mark.parametrize("scale", ["0", "-5", "nan", "inf"])
def test_render_rejects_bad_scale(capsys, tmp_path, scale):
    out_file = tmp_path / "hex7.svg"
    code, out, err = invoke(capsys, "render", "--subject", "region", "--in",
                            str(FIXTURES / "hex7.json"), "--out",
                            str(out_file), f"--scale={scale}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--scale" in err and not out_file.exists()


@pytest.mark.parametrize("subject, infile, scale", [
    (subject, infile, scale) for scale in ("1e308", "1e305")
    for subject, infile in (("region", str(FIXTURES / "hex7.json")),
                            ("tiling", str(FIXTURES / "crescent_tiling.json")),
                            ("path", "ZyZYzYX"))],
    ids=["region", "tiling", "path",
         "region-1e305", "tiling-1e305", "path-1e305"])
def test_render_rejects_a_scale_whose_drawing_overflows(capsys, tmp_path,
                                                        subject, infile,
                                                        scale):
    # a finite scale whose products overflow to inf (1e308), or pass
    # single precision (1e305), is refused, not drawn with an infinite or
    # 300-digit viewBox
    out_file = tmp_path / "out.svg"
    code, out, err = invoke(capsys, "render", "--subject", subject, "--in",
                            infile, "--out", str(out_file), f"--scale={scale}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --scale ") and err.count("\n") == 1
    assert not out_file.exists()


@pytest.mark.parametrize("subject", ["region", "tiling"])
@pytest.mark.parametrize("q", [10 ** 17, 10 ** 40, 10 ** 320],
                         ids=["1e17", "1e40", "1e320"])
def test_render_blames_coordinates_too_far_to_draw(capsys, tmp_path,
                                                   subject, q):
    # a small drawing past 2**53 (1e17), where floats would write the
    # corners of neighbouring cells as one point, far from the origin
    # (1e40), or past the float range (1e320), is the input's fault, not
    # the default scale's
    data = {"cells": [[q, 0], [q + 1, 0]]}
    if subject == "tiling":  # a bone and the region it covers
        data = {"region": {"cells": [[q - 2, 2], [q - 1, 1], [q, 0]]},
                "certificate": [{"kind": "bone", "orientation": "left",
                                 "anchor": [q, 0], "coeff": 1}]}
    path, out_file = tmp_path / "far.json", tmp_path / "out.svg"
    path.write_text(json.dumps(data))
    argv = ["render", "--subject", subject, "--in", str(path),
            "--out", str(out_file)]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: the input's coordinates are too "
                          "large to draw: ") and err.count("\n") == 1
    assert "--scale" not in err and not out_file.exists()


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


def test_render_path_long_literal(capsys, tmp_path):
    # 300 letters are too long for a file name; the file probe must not
    # turn that into an error
    out_file = tmp_path / "long.svg"
    code, out, err = invoke(capsys, "render", "--subject", "path", "--in",
                            "XYZ" * 100, "--out", str(out_file))
    assert (code, out, err) == (0, "", f"wrote {out_file}\n")
    root = ET.fromstring(out_file.read_text())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_render_determinism_region(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out_file in (a, b):
        invoke(capsys, "render", "--subject", "region", "--in",
               str(FIXTURES / "crescent.json"), "--out", str(out_file))
    assert a.read_bytes() == b.read_bytes()


# sha256 of the written SVG, so the drawing code can change but not its
# bytes
GOLDEN_SVG = {
    ("region", str(FIXTURES / "hex7.json")):
        "2c7d4d440ffc147c2098ba27259b3120cb5d9d4c4efdc5424d5776ea7eebca1a",
    ("tiling", str(FIXTURES / "crescent_tiling.json")):
        "24161520ac7e03aa40394a6c77ac1c27164f1e1ca9cec307004acab39d87db9e",
    ("path", "ZyZYzYX"):
        "9367f2699a891fd5dcd6ce6b8e8437ebb3e44e1399b83517c881b001417b5175",
}


# ids name the fixture file, not its path, so they are the same in every
# checkout
@pytest.mark.parametrize("subject, infile", sorted(GOLDEN_SVG), ids=[
    f"{subject}-{Path(infile).name}"
    for subject, infile in sorted(GOLDEN_SVG)])
def test_render_matches_golden_hash(capsys, tmp_path, subject, infile):
    out_file = tmp_path / "out.svg"
    code, out, _ = invoke(capsys, "render", "--subject", subject, "--in",
                          infile, "--out", str(out_file))
    assert (code, out) == (0, "")
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == GOLDEN_SVG[subject, infile]


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


def test_package_runs_as_a_module(capsys):
    # python -m hexsbs runs the same command line as cli.run
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hexsbs", "verify-tiles"],
        capture_output=True, text=True,
        cwd=str(FIXTURES.parent), env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == invoke(capsys, "verify-tiles")[1]


def test_cli_import_loads_no_process_pool():
    # the search runs in one process, so no command pays at start-up for
    # importing a process pool
    src = str(Path(cli.__file__).resolve().parents[1])
    child = ("import sys; sys.path.insert(0, sys.argv[1]); import hexsbs.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", child, src],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_cli_import_loads_no_costly_stdlib_module():
    # records are namedtuples or slotted classes, not dataclasses (which
    # bring inspect and ast), and files are opened without pathlib, so
    # start-up pays for none of these modules
    src = str(Path(cli.__file__).resolve().parents[1])
    child = ("import sys; sys.path.insert(0, sys.argv[1]); import hexsbs.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', "
             "'pathlib', 'random', 'typing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", child, src],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# sha256 over "<exit code>\n<stdout>" of each run, for every region
# fixture: solve-signed at paddings 0-2 with all kinds and with
# bone,snake, probe-stones at paddings 0-2.  The probes, and every
# solve-signed answer in or out of the window, were pinned from the
# lattice that carried each placement's transform in its rows; the
# solve-signed certificates are those of the row-insertion basis.
GOLDEN_SIGNED_STDOUT = {
    ("solve-signed", "bone.json"): "6dddbb01360aedcf37c8a4d045d12538fcc96957dd09a467aa8416f61563bf69",
    ("probe-stones", "bone.json"): "b1e2f1450bb80d91a0221c09c131d19006044450fa2c1b41d1393d047f2efbcb",
    ("solve-signed", "crescent.json"): "6cd2a47f86eaea0f01aac834e63288d29f0f7d32ede6a888296091d79c5ca666",
    ("probe-stones", "crescent.json"): "6fd54d328b381446f9b27fbcca68bcf9851ba63ad2af69e63cabd5e75cc2bd2f",
    ("solve-signed", "hex7.json"): "6cacdf623a6ab3b12b4edf2c832579ea9f8a65b76828dba499f728269daf902b",
    ("probe-stones", "hex7.json"): "8c74c4a27b21545618d2f0b527cf55dc7f99ad56d85ed24a70bd2e0a75bef9b6",
    ("solve-signed", "hex7.txt"): "584f2bd71ddb68025c13bf75f64d63aa24105588b315ac012b68942093d38c96",
    ("probe-stones", "hex7.txt"): "8c74c4a27b21545618d2f0b527cf55dc7f99ad56d85ed24a70bd2e0a75bef9b6",
    ("solve-signed", "single_cell.json"): "f4606b1dbb3133d16cf62a0ff96c17eacd31753b247e7fa07ef432903dedfdef",
    ("probe-stones", "single_cell.json"): "dc1bf32fc71cab79cf058cdff73b06fe284173a8f9011b6ae3942e7cde2921d9",
}
SIGNED_VARIANTS = {
    "solve-signed": [["--padding", str(p), "--kinds", k] for p in (0, 1, 2)
                     for k in ("bone,stone,snake", "bone,snake")],
    "probe-stones": [["--padding", str(p)] for p in (0, 1, 2)],
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN_SIGNED_STDOUT))
def test_signed_stdout_matches_golden_hash(capsys, command, name):
    digest = hashlib.sha256()
    for variant in SIGNED_VARIANTS[command]:
        code, out, _ = invoke(capsys, command, "--in", str(FIXTURES / name),
                              *variant)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_SIGNED_STDOUT[command, name]


# sha256 over "<exit code>\n<stdout>" of the runs of every other command,
# pinned while `_emit` still wrote through `json.dump`, so the bytes stay
# the same whichever encoder writes them.  The two parallelograms add
# regions with many tilings, and a count that reaches the cap.  The
# length-8 enumerate and reduce, the benchmark's sizes, were pinned from
# the search before its last level skipped states that no letter closes
# and before RelationRecord.jsonl wrote its line out by hand.  The
# group-probe runs were pinned from the former Mat2 closure, before the
# probe walked STEP_GROUP.
REGION_FIXTURES = ("bone.json", "crescent.json", "hex7.json", "hex7.txt",
                   "ring6.json", "single_cell.json")
PARALLELOGRAMS = {"para3x4": (3, 4), "para4x6": (4, 6)}
SEQUENCE_FIXTURES = ("seq_2x2x2_left.json", "seq_2x2x2_middle.json",
                     "seq_crescent.json")
EXACT_KINDS = ("bone,stone,snake", "bone", "bone,snake")


def golden_runs(command, name, tmp_path):
    path = str(FIXTURES / name) if name else None
    if name in PARALLELOGRAMS:
        width, height = PARALLELOGRAMS[name]
        path = str(tmp_path / f"{name}.json")
        Path(path).write_text(json.dumps({"cells": [
            [q, r] for q in range(width) for r in range(height)]}))
    if command == "solve-exact":
        return [["solve-exact", "--in", path, "--kinds", k]
                for k in EXACT_KINDS]
    if command == "solve-exact --count":
        return [["solve-exact", "--in", path, "--kinds", k, "--count",
                 "--cap", "100"] for k in EXACT_KINDS]
    if path is not None:
        return [[command, "--in", path]]
    return [command.split()]


GOLDEN_STDOUT = {
    ("check-region", "bone.json"):
        "365ef23936ea0a71e4a86e61b76b6459fb7ecf436ee603eb2ca1721402e8176f",
    ("check-region", "crescent.json"):
        "1fad4f075069e1e4f656374c5ae328e2a30e2e3f3adbb8e2dfe9745f38ac61e8",
    ("check-region", "hex7.json"):
        "890afffff57aa093e906816c9b7a725316ec0abe064fbb7133245bb9cf10428b",
    ("check-region", "hex7.txt"):
        "890afffff57aa093e906816c9b7a725316ec0abe064fbb7133245bb9cf10428b",
    ("check-region", "para3x4"):
        "8cd5ef9cc0edfbb24618ad9926dd49a61874d2933f7a1dfdaf842e7f6f46c2e9",
    ("check-region", "para4x6"):
        "0368f7dc91df5f8bb237b16fc0772e207b700f609f8fca1502863863f24f4795",
    ("check-region", "ring6.json"):
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ("check-region", "single_cell.json"):
        "4a09cd4c41619ffcf52e19f3a17619d317e5f28a8d448988dcdda7a6ed9f800f",
    ("check-sequence", "seq_2x2x2_left.json"):
        "71bef79c50027cefa10aa0c8ed2c925060ac7444ed9671729470f704308f9db6",
    ("check-sequence", "seq_2x2x2_middle.json"):
        "743ae6e42ba4b1eb8691dfe84c8cce45053881e8bed6f6134f4e03da3091b78b",
    ("check-sequence", "seq_crescent.json"):
        "11913c901d51f3c05c7dda63360f70f5293d2b6d2f5cd4a7f72cd3cc6106c75e",
    ("endpoints --max-length 5", ""):
        "bceb85ffc99428a7f59f69e7d8996df4bd7f519bfd7badb8b413efcec1f68df6",
    ("enumerate --census --max-length 12", ""):
        "cfebd2c6e7c71af75d17d45d0e734c8d59ece993c1352f5fcd849633d9995edb",
    ("enumerate --census --max-length 16", ""):
        "96278a8c427a2fdc2dc0a1c7a090cc9d892ef8f97c479d83475ba106016c8279",
    ("enumerate --census --max-length 2", ""):
        "b74ad5617352718df643af2932ae4f12d975eb87a6ac9aecb0ccd547a0e89410",
    ("enumerate --census --max-length 3", ""):
        "d6a708e172d4edc5d80bab4b276de79a7b9b5f25a5e0c8cd910f48253d8dbaf8",
    ("enumerate --census --max-length 30", ""):
        "4e3d5900a8d0f843714b2c06fd6eaa3c00ebcd4d45af44620138997789a612b2",
    ("enumerate --census --max-length 45", ""):
        "c25e707a3e2f6741011bcf59e6e1e947a58bc7aa45a67056b2ec037163a88be5",
    ("enumerate --max-length 6", ""):
        "72f641e890e77bebd210ff80d0787ab518dc026ecf783de27896a220f8efdff3",
    ("enumerate --max-length 8", ""):
        "1531fb68dd2677f898d9492c29f635d3b6e7e6257f8c39595dfd2844c2dad848",
    ("group-probe", ""):
        "90b534a2d516fd116dceaea0a5a42923540bb90bb269c4eea19a85911a358da8",
    ("group-probe --generators X --bound 100", ""):
        "be239de10154338ae0e87abdf302b36e949a02dfad9a7172b78d5a96c4fcebae",
    ("group-probe --generators XY --bound 5", ""):
        "712cdc5f01cbf55410dff564766f20d302d3dcf1e79f34451f2460ded56d2fa6",
    ("group-probe --generators xz", ""):
        "9af35b5cb5acc246efff5cd1024209d7016b8c8fc291f6e3a098fff089cad73d",
    ("group-probe --generators=", ""):
        "8a8a6196d120c2e66bfde131aefcb98deb0f8689e9ba92fa874d6c0f6d4f0042",
    ("reduce --max-length 6", ""):
        "e79936baabf8cd32c95c85a320e079ee256be24576f9316cf4e7c16909d3e8eb",
    ("reduce --max-length 8", ""):
        "2c5123c0525e96250c20e203b39318b2c0edaf45ac1948e44d39773df1a496be",
    ("solve-exact", "bone.json"):
        "2b0662db26bb5a21a5e5e7caf65ee62d9c3ca840da3df685acaa8e0738a3783d",
    ("solve-exact", "crescent.json"):
        "55ef1828d8b32b3f29ff7c9117158f415b0894aa14ca3654ea109e638b31ca75",
    ("solve-exact", "hex7.json"):
        "55ef1828d8b32b3f29ff7c9117158f415b0894aa14ca3654ea109e638b31ca75",
    ("solve-exact", "hex7.txt"):
        "55ef1828d8b32b3f29ff7c9117158f415b0894aa14ca3654ea109e638b31ca75",
    ("solve-exact", "para3x4"):
        "6d3c4d940938761cec34e49b360ac885f492ab848f3c9c687c8211df078e4434",
    ("solve-exact", "para4x6"):
        "3cd26663766aaa7af2b43718d1b7edb7b052034316a6db4d9657d1c2343183ad",
    ("solve-exact", "ring6.json"):
        "579df6754926501d51d60a23a65d15dacc5cfa485e604a2a5252243f8e8d1022",
    ("solve-exact", "single_cell.json"):
        "55ef1828d8b32b3f29ff7c9117158f415b0894aa14ca3654ea109e638b31ca75",
    ("solve-exact --count", "bone.json"):
        "d02586921cf487f3a389255ff0ba126f9c1243f70c275cd158c27082e0065fc0",
    ("solve-exact --count", "crescent.json"):
        "e9b8639f7768bc3fb38b43d38d68df557cca6b832ff7c9410e4981d5211a97db",
    ("solve-exact --count", "hex7.json"):
        "e9b8639f7768bc3fb38b43d38d68df557cca6b832ff7c9410e4981d5211a97db",
    ("solve-exact --count", "hex7.txt"):
        "e9b8639f7768bc3fb38b43d38d68df557cca6b832ff7c9410e4981d5211a97db",
    ("solve-exact --count", "para3x4"):
        "a8d052143b4b0bc81e1b6234bfa4c17584181437265b4eb0c6dc21b1c37f17c1",
    ("solve-exact --count", "para4x6"):
        "3729f85842175d5122d94b7b9e4fd75cf22b59d83df0868fccc129e21c21126f",
    ("solve-exact --count", "ring6.json"):
        "579df6754926501d51d60a23a65d15dacc5cfa485e604a2a5252243f8e8d1022",
    ("solve-exact --count", "single_cell.json"):
        "e9b8639f7768bc3fb38b43d38d68df557cca6b832ff7c9410e4981d5211a97db",
    ("verify-reductions", ""):
        "33eeb44b3f83ee49416bc74a3b62c4cb091419f1a6af61dd634d3fb5fb81f220",
    ("verify-tiles", ""):
        "0cce6e888b1d35038ff6aeb0b420f0d31c6f127bb88e902f7814568fc4c319d9",
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN_STDOUT))
def test_stdout_matches_golden_hash(capsys, tmp_path, command, name):
    digest = hashlib.sha256()
    for argv in golden_runs(command, name, tmp_path):
        code, out, _ = invoke(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_STDOUT[command, name]


# --- random command lines ------------------------------------------------
# Each strategy draws (argv, files): argv names the files as "{dir}/<name>"
# and files maps a name to the bytes written there.  Sizes stay small:
# regions of at most 30 cells, --max-length <= 8, --padding <= 2 and
# --cap <= 50, or a bound that ends the search first.

_HUGE = st.sampled_from([10 ** 40, -10 ** 40, 10 ** 320, -10 ** 320, 2 ** 63])
_COORD = st.one_of(st.integers(-4, 4), st.integers(-4, 4), _HUGE)
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_TILES = [name.split("_", 1) for name in fixtures.TILE_WORDS]


@st.composite
def _region(draw):
    how = draw(st.sampled_from(["blob", "blob", "cells", "junk"]))
    if how == "blob":
        cells = hexgrid.grow_random_region(
            random.Random(draw(st.integers(0, 10 ** 6))),
            draw(st.integers(1, 30))).cells
        dq = draw(st.one_of(st.just(0), st.just(0), _HUGE))
        return {"cells": [[q + dq, r] for q, r in sorted(cells)]}
    if how == "cells":
        return {"cells": draw(st.lists(st.lists(_COORD, max_size=3),
                                       max_size=30))}
    return draw(_JUNK)


def _placement(draw):
    kind, orientation = draw(st.sampled_from(_TILES + [["frob", "left"]]))
    entry = {"kind": kind, "orientation": orientation,
             "anchor": draw(st.lists(_COORD, min_size=2, max_size=2)
                            | _JUNK)}
    return {k: v for k, v in entry.items() if draw(st.integers(0, 9))}


@st.composite
def _step(draw):
    return {"action": draw(st.sampled_from(["add", "add", "remove", "x"])),
            **_placement(draw)}


@st.composite
def _entry(draw):
    return {"coeff": draw(st.sampled_from([1, 1, -1, 0, 2, 1.5, True])),
            **_placement(draw)}


def _tiling():
    entries = st.lists(_entry(), max_size=6)
    return st.one_of(entries, st.fixed_dictionaries(
        {"certificate": entries}, optional={"region": _region()}), _JUNK)


@st.composite
def _infile(draw, value):
    """The --in argument and its file: JSON of a drawn value, an ASCII
    picture, arbitrary bytes, or no file at all."""
    how = draw(st.sampled_from(["json", "json", "json", "ascii", "bytes",
                                "missing"]))
    if how == "ascii":
        text = draw(st.text(alphabet=" .#X*\n", max_size=60))
        return "{dir}/in.txt", {"in.txt": text.encode()}
    if how == "bytes":
        return "{dir}/in.json", {"in.json": draw(st.binary(max_size=24))}
    if how == "missing":
        return "{dir}/none.json", {}
    return "{dir}/in.json", {"in.json": json.dumps(draw(value)).encode()}


def _number(low, high, *extra):
    return st.one_of(st.integers(low, high).map(str),
                     st.sampled_from(["x", "1.5", "", *extra]))


_FLAGS = {
    "--kinds": st.sampled_from(["bone,stone,snake", "bone", "stone,snake",
                                "", ",", "frob", "bone,frob"]),
    "--padding": _number(-3, 2),
    "--cap": _number(-3, 50, str(10 ** 30)),
    "--max-length": _number(-3, 8),
    "--partitions": _number(-2, 4),
    "--generators": st.text(alphabet="XYZxyzQ ", max_size=5),
    "--bound": _number(-3, 30, str(10 ** 30)),
    "--sign": st.sampled_from(["+I", "-I", "both", "x"]),
    "--scale": st.sampled_from(["24", "0.5", "0", "-1", "nan", "inf",
                                "1e305", "1e308", "x"]),
}

# command -> (fixed argv, the --in value's strategy or None, flags,
# switches); render's three subjects count as commands
_COMMANDS = {
    "verify-tiles": ([], None, [], []),
    "check-region": ([], _region(), [], []),
    "solve-signed": ([], _region(), ["--kinds", "--padding"], []),
    "solve-exact": ([], _region(), ["--kinds", "--cap"], ["--count"]),
    "check-sequence": ([], st.lists(_step(), max_size=6) | _JUNK, [], []),
    "probe-stones": ([], _region(), ["--padding"], []),
    "enumerate": ([], None, ["--max-length", "--partitions"],
                  ["--census"]),
    "reduce": ([], None, ["--max-length", "--partitions"], []),
    "verify-reductions": ([], None, [], []),
    "group-probe": ([], None, ["--generators", "--bound"], []),
    "endpoints": ([], None, ["--max-length", "--sign"], []),
    "render region": (["--subject", "region"], _region(), ["--scale"], []),
    "render tiling": (["--subject", "tiling"], _tiling(), ["--scale"], []),
    "render path": (["--subject", "path"], None, ["--scale"], []),
}


@st.composite
def _command_line(draw, command):
    fixed, value, flags, switches = _COMMANDS[command]
    argv, files = command.split()[:1] + fixed, {}
    if value is not None:
        infile, files = draw(_infile(value))
        argv += ["--in", infile]
    if command == "render path":  # a literal word, or a file holding one
        word = draw(st.text(alphabet="XYZxyzAQ \n", max_size=12))
        if draw(st.booleans()):
            argv += ["--in", word]
        else:
            argv += ["--in", "{dir}/word.txt"]
            files = {"word.txt": word.encode()}
    if command.startswith("render"):
        argv += ["--out", draw(st.sampled_from(["{dir}/out.svg",
                                                "{dir}/no/out.svg"]))]
    for flag in flags:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_FLAGS[flag])}")
    argv += [s for s in switches if draw(st.booleans())]
    if draw(st.integers(0, 9)) == 0:  # a flag no command has, or a stray
        argv.append(draw(st.sampled_from(["--frob", "-x", "extra",
                                          "--padding"])))
    if draw(st.integers(0, 9)) == 0 and "--in" in argv:  # required, left out
        i = argv.index("--in")
        del argv[i:i + 2]
    return argv, files


# the catch-all's line, error: <ExceptionName>: ...; every message of an
# expected input error starts with a path, an option or words
_CATCH_ALL = re.compile(r"^error: \w+: ", re.M)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_command_lines_exit_cleanly(fuzz_dir, command, data):
    # every exit is 0, 1 or 2 (argparse's SystemExit(2) included), and no
    # input reaches the catch-all for unexpected failures
    argv, files = data.draw(_command_line(command))
    for name in ("in.json", "in.txt", "word.txt", "out.svg"):
        (fuzz_dir / name).unlink(missing_ok=True)
    for name, content in files.items():
        (fuzz_dir / name).write_bytes(content)
    argv = [arg.replace("{dir}", str(fuzz_dir)) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert not _CATCH_ALL.search(err.getvalue()), (argv, err.getvalue())
