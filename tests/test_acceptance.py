"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them inline).

All matrix equalities are exact integer comparisons with zero tolerance.
"""

import random
import time

from hexsbs.cyclo import IDENTITY, MINUS_IDENTITY, ONE, PMClass
from hexsbs.fixtures import (REDUCTION_IDENTITIES, TABLE_WORDS,
                             TILE_EDGE_WORDS, TILE_WORDS)
from hexsbs.hexgrid import (grow_random_region, region_boundary_word,
                            region_validate)
from hexsbs.search import (SearchConfig, enumerate_identity_words,
                           group_closure_probe, identity_word_census,
                           verify_reduction_table)
from hexsbs.tiling import (ConstructionStep, Placement, SignedTiling,
                           boundary_obstruction_check,
                           constructible_sequence_check, enumerate_placements,
                           min_stone_probe, pad_window, signed_tiling_solve,
                           signed_tiling_verify, solve_cell_target,
                           standard_tiling_solve, tile_shape)
from hexsbs.words import (canonical_representative, closure, classify_pm,
                          eval_letters, eval_word, free_reduce, invert_word,
                          step_word)

from fixture_data import (CONJECTURE_MINUS, CONJECTURE_PLUS, CRESCENT_CELLS,
                          CRESCENT_CERTIFICATE, HEX7_CELLS,
                          SEQUENCE_2X2X2_LEFT, SEQUENCE_2X2X2_MIDDLE)
from oracles import (brute_force_tiling_count, coset_trace,
                     naive_identity_classes, sign_presentation, todd_coxeter,
                     winding_cells)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_tile_calibration():
    t0 = time.monotonic()
    bad = []
    for name, letters in TILE_WORDS.items():
        expect = (PMClass.MINUS_IDENTITY if name.startswith("stone")
                  else PMClass.PLUS_IDENTITY)
        if classify_pm(eval_letters(letters)) is not expect:
            bad.append((name, "step"))
        if classify_pm(eval_letters(TILE_EDGE_WORDS[name],
                                    "edge")) is not expect:
            bad.append((name, "edge"))
    elapsed = time.monotonic() - t0
    report(1, not bad and elapsed < 1.0,
           f"11 tiles, both alphabets, {elapsed:.3f}s"
           + (f", mismatches: {bad}" if bad else ""))


def test_criterion_2_conjectured_relation_values():
    t0 = time.monotonic()
    mismatches = []
    for letters in CONJECTURE_MINUS:
        got = eval_letters(letters)
        if got != MINUS_IDENTITY:
            mismatches.append(
                (letters, "expected -I", classify_pm(got).value))
    for letters in CONJECTURE_PLUS:
        got = eval_letters(letters)
        if got != IDENTITY:
            mismatches.append(
                (letters, "expected I", classify_pm(got).value))

    # The conjecture states yzYX = -I.  Coset enumeration on the words
    # alone (no matrices) refutes that: the other seven relations, with the
    # sign as a central involution C, present a group of order 24 in which
    # yzYX = 1 and C != 1, while adjoining yzYX = C leaves 12 cosets and
    # C = 1.  So no representation with C -> -I sends yzYX to -I.
    others = tuple(w for w in CONJECTURE_PLUS if w != "yzYX")
    group = todd_coxeter("XYZC", sign_presentation(CONJECTURE_MINUS, others))
    stated = todd_coxeter(
        "XYZC", sign_presentation(CONJECTURE_MINUS + ("yzYX",), others))
    refuted = (len(group) == 24 and coset_trace(group, "yzYX") == 0
               and coset_trace(group, "C") != 0
               and len(stated) == 12 and coset_trace(stated, "C") == 0)
    elapsed = time.monotonic() - t0
    report(2, not mismatches and refuted and elapsed < 1.0,
           f"8 relations, {elapsed:.3f}s, stated yzYX = -I refuted: "
           f"{refuted} ({len(group)} cosets, {len(stated)} with yzYX = C)"
           + (f", mismatches: {mismatches}" if mismatches else ""))


def test_criterion_3_candidate_table():
    t0 = time.monotonic()
    problems = []
    for letters, label in TABLE_WORDS:
        k = classify_pm(eval_letters(letters))
        if k is PMClass.OTHER:
            problems.append((letters, "not +-I"))
        if label == "stone" and k is not PMClass.MINUS_IDENTITY:
            problems.append((letters, "stone row must be -I"))
    for letters in ("ZyZYzYX", "XyZZxYYzX"):
        if eval_letters(letters) != IDENTITY:
            problems.append((letters, "must be +I"))
    elapsed = time.monotonic() - t0
    report(3, not problems and elapsed < 1.0,
           f"13 table words, {elapsed:.3f}s"
           + (f", problems: {problems}" if problems else ""))


def test_criterion_4_reduction_table():
    t0 = time.monotonic()
    failed = [f"{lhs} = -{rhs}" for lhs, rhs in REDUCTION_IDENTITIES
              if eval_letters(lhs) != -eval_letters(rhs)]
    ok = not failed and all(r["holds"] for r in verify_reduction_table())
    elapsed = time.monotonic() - t0
    report(4, ok and elapsed < 1.0,
           f"7 identities, {elapsed:.3f}s"
           + (f", failed: {failed}" if failed else ""))


def test_criterion_5_search_reproduction():
    t0 = time.monotonic()
    records = enumerate_identity_words(SearchConfig(9, partitions=1))
    single_time = time.monotonic() - t0
    found = {r.representative for r in records}
    missing = [w for w, _ in TABLE_WORDS
               if canonical_representative(w) not in found]
    naive_ok = True
    for max_len in (5, 6):
        pruned = enumerate_identity_words(SearchConfig(max_len))
        naive = naive_identity_classes(max_len)
        naive_ok &= {r.representative: (r.value, r.length)
                     for r in pruned} == naive
    single_lines = [r.jsonl() for r in records]
    merged_lines = [r.jsonl() for r in enumerate_identity_words(
        SearchConfig(9, 3))]
    ok = (not missing and single_time < 60.0 and naive_ok
          and single_lines == merged_lines)
    report(5, ok,
           f"{len(records)} classes at length 9 in {single_time:.2f}s, "
           f"naive oracle match: {naive_ok}, "
           f"partition merge identical: {single_lines == merged_lines}"
           + (f", missing: {missing}" if missing else ""))


def test_criterion_6_oracle_cross_check():
    t0 = time.monotonic()
    hex7 = region_validate(HEX7_CELLS)
    tiling = signed_tiling_solve(hex7, ("bone", "snake"), padding=2)
    solvable = tiling is not None
    verified = solvable and signed_tiling_verify(hex7, tiling) is None
    klass_ok = boundary_obstruction_check(hex7) is PMClass.PLUS_IDENTITY
    crescent = region_validate(CRESCENT_CELLS)
    cert = SignedTiling(tuple(
        (Placement(tile_shape(k, o), a), c)
        for k, o, a, c in CRESCENT_CERTIFICATE))
    cert_ok = signed_tiling_verify(crescent, cert) is None
    elapsed = time.monotonic() - t0
    ok = solvable and verified and klass_ok and cert_ok and elapsed < 10.0
    report(6, ok,
           f"hex7 bones+snakes solvable={solvable} verified={verified} "
           f"class=+I:{klass_ok}, crescent certificate={cert_ok}, "
           f"{elapsed:.2f}s")


def _steps(items):
    return [ConstructionStep(a, Placement(tile_shape(k, o), anchor))
            for a, k, o, anchor in items]


def test_criterion_7_constructible_sequences():
    left = constructible_sequence_check(_steps(SEQUENCE_2X2X2_LEFT))
    left_ok = (left.valid
               and left.records[-1].ledger_sign == 1
               and left.records[-1].boundary_class is PMClass.PLUS_IDENTITY
               and all(r.agrees for r in left.records))
    middle = constructible_sequence_check(_steps(SEQUENCE_2X2X2_MIDDLE))
    middle_ok = not middle.valid
    agree_ok = all(r.agrees for r in left.records + middle.records)
    report(7, left_ok and middle_ok and agree_ok,
           f"left valid={left.valid} final=({left.records[-1].ledger_sign}, "
           f"{left.records[-1].boundary_class.value}), middle "
           f"rejected={middle_ok} ({middle.violation_reason}), "
           f"ledger agreement at every accepted step={agree_ok}")


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(20260811)
    problems = []

    # det = 1 on 10^4 random freely generated edge words, length <= 32
    for _ in range(10 ** 4):
        n = rng.randrange(33)
        letters = "".join(rng.choice("ABGabg") for _ in range(n))
        if eval_letters(letters, "edge").det() != ONE:
            problems.append(("det", letters))
            break

    # free-reduction and inversion evaluation invariants, 10^4 samples of
    # length <= 24
    for _ in range(10 ** 4):
        w = step_word("".join(rng.choice("XYZxyz")
                              for _ in range(rng.randrange(25))))
        value = eval_word(w)
        if eval_word(free_reduce(w)) != value:
            problems.append(("free_reduce", w.letters))
            break
        if eval_word(invert_word(w)) * value != IDENTITY:
            problems.append(("invert", w.letters))
            break

    # closure-class sign consistency on all fixtures
    fixture_words = set(TILE_WORDS.values())
    fixture_words.update(w for w, _ in TABLE_WORDS)
    fixture_words.update(CONJECTURE_MINUS)
    fixture_words.update(CONJECTURE_PLUS)
    for letters in fixture_words:
        k = classify_pm(eval_letters(letters))
        if k is PMClass.OTHER:
            continue
        for member in closure(step_word(letters)).members:
            if classify_pm(eval_letters(member)) is not k:
                problems.append(("closure sign", letters, member))

    # winding of 200 random simply connected regions (<= 12 cells)
    for _ in range(200):
        region = grow_random_region(rng, rng.randrange(1, 13))
        bw = region_boundary_word(region)
        if winding_cells(bw.word, bw.start) != {c: 1 for c in region.cells}:
            problems.append(("winding", sorted(region.cells)))
            break

    # solver soundness and window completeness
    for _ in range(12):
        region = grow_random_region(rng, rng.randrange(2, 9))
        tiling = signed_tiling_solve(region, padding=2)
        if tiling is not None and \
                signed_tiling_verify(region, tiling) is not None:
            problems.append(("soundness", sorted(region.cells)))
    for _ in range(12):
        region = grow_random_region(rng, rng.randrange(2, 8))
        window = pad_window(region.cells, 2)
        placements = enumerate_placements(window)
        target = {}
        for i in rng.sample(range(len(placements)),
                            min(5, len(placements))):
            sign = rng.choice([-1, 1])
            for cell in placements[i].cells():
                target[cell] = target.get(cell, 0) + sign
        target = {c: v for c, v in target.items() if v}
        if solve_cell_target(target, window=window) is None:
            problems.append(("completeness", sorted(target.items())))

    # exact-cover counts match a subset brute force on regions <= 9 cells
    regions = [region_validate(HEX7_CELLS), region_validate(CRESCENT_CELLS)]
    regions += [region_validate(s.cells)
                for s in (tile_shape("bone", "vertical"),
                          tile_shape("stone", "left"),
                          tile_shape("snake", "left"))]
    regions += [grow_random_region(rng, rng.randrange(3, 10))
                for _ in range(40)]
    for region in regions:
        placements = enumerate_placements(region.cells)
        want = brute_force_tiling_count(region.cells, placements)
        got = standard_tiling_solve(region, mode="count")
        if got.cap_exceeded or got.count != want:
            problems.append(("exact-cover", sorted(region.cells),
                             got.count, want))

    elapsed = time.monotonic() - t0
    report(8, not problems and elapsed < 300.0,
           f"property suites in {elapsed:.1f}s"
           + (f", problems: {problems[:3]}" if problems else ""))


def test_criterion_9_recorded_findings():
    t0 = time.monotonic()
    notes = []

    # full-length census from one transfer pass, deterministic across
    # runs (its counts are checked against the per-length Mat2 recount
    # and a brute force in test_search.py)
    census_a = identity_word_census(16)
    census_b = identity_word_census(16)
    census_ok = census_a == census_b
    total16 = sum(p + m for _, p, m in census_a.counts)
    notes.append(f"census(16): {total16} identity words, "
                 f"deterministic={census_ok}")

    # stone-parity probe comparisons are reports, not assertions
    probes = {}
    for name, cells in (("hex7", HEX7_CELLS), ("crescent", CRESCENT_CELLS),
                        ("bone", tile_shape("bone", "vertical").cells)):
        probe = min_stone_probe(region_validate(cells))
        probes[name] = (probe.stones, probe.boundary_class.value,
                        probe.parity_consistent)
    probes_ok = all(stones in (0, 1, None) for stones, _, _ in
                    probes.values())
    notes.append(f"stone-parity findings: {probes}")

    # group probe respects its bound and records the outcome
    full = group_closure_probe("XYZ", bound=10 ** 6)
    small = group_closure_probe("XYZ", bound=10)
    probe_ok = (not full.bound_exceeded and small.bound_exceeded)
    notes.append(f"group order recorded: {full.order}, "
                 f"bound 10 exceeded: {small.bound_exceeded}")

    elapsed = time.monotonic() - t0
    report(9, census_ok and probes_ok and probe_ok,
           "; ".join(notes) + f"; {elapsed:.1f}s")
