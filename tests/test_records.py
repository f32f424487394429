"""The contract every immutable record keeps, whether it is a namedtuple
subclass or a slotted cyclo.Frozen class: no assignment, equality and
hash over the same fields as a frozen dataclass of those fields, and the
same repr text."""

import copy
import pickle

import pytest

from hexsbs.cyclo import IDENTITY, CycInt, Mat2
from hexsbs.hexgrid import Region, region_boundary_word, region_validate
from hexsbs.search import (SearchConfig, enumerate_identity_words,
                           group_closure_probe, identity_word_census,
                           reduce_relation_list)
from hexsbs.tiling import (_build_catalog, constructible_sequence_check,
                           construction_step_from_json, min_stone_probe,
                           placement_from_json, signed_tiling_solve,
                           standard_tiling_solve)
from hexsbs.words import (STEP_MATRICES, SizeError, Word, WordError,
                          _build_step_group, closure, step_word)

from fixture_data import CRESCENT_SEQUENCE, HEX7_CELLS


def _step(action, kind, orientation, anchor):
    return construction_step_from_json({"action": action, "kind": kind,
                                        "orientation": orientation,
                                        "anchor": list(anchor)})


def _sequence():
    return constructible_sequence_check(map(_step, *zip(*CRESCENT_SEQUENCE)))


# each record: a function that builds a new instance, and the fields that
# its equality and hash read
RECORDS = {
    "CycInt": (lambda: CycInt(1, -2, 0, 3), "c0 c1 c2 c3"),
    "Mat2": (lambda: STEP_MATRICES["X"] * STEP_MATRICES["y"], "a b c d"),
    "Word": (lambda: step_word("XYz"), "letters"),
    "ClosureClass": (lambda: closure(step_word("XYZ")),
                     "representative members"),
    "StepGroup": (_build_step_group, "elements step pm shortest orders"),
    "Region": (lambda: region_validate(HEX7_CELLS), "cells"),
    "BoundaryWord": (lambda: region_boundary_word(region_validate(HEX7_CELLS)),
                     "start word"),
    "RelationRecord": (lambda: enumerate_identity_words(SearchConfig(6))[-1],
                       "representative value length closed"),
    "SearchConfig": (lambda: SearchConfig(6, 2),
                     "max_word_length partitions"),
    "Reduction": (lambda: reduce_relation_list(
        enumerate_identity_words(SearchConfig(8))), "survivors casualties"),
    "GroupProbeResult": (lambda: group_closure_probe("XY"),
                         "order bound element_orders"),
    "CensusReport": (lambda: identity_word_census(6),
                     "max_length counts group_size shortest_words"),
    "TileShape": (lambda: _build_catalog()[3],
                  "kind orientation index cells offsets boundary_word"),
    "Placement": (lambda: placement_from_json(
        {"kind": "bone", "orientation": "left", "anchor": [1, 2]}),
        "shape anchor"),
    "SignedTiling": (lambda: signed_tiling_solve(
        region_validate(HEX7_CELLS)), "entries"),
    "TilingCount": (lambda: standard_tiling_solve(
        region_validate(HEX7_CELLS), mode="count"), "count cap_exceeded"),
    "ConstructionStep": (lambda: _step("add", "bone", "left", (0, 1)),
                         "action placement"),
    "StepRecord": (lambda: _sequence().records[-1],
                   "index action kind support_size boundary_class "
                   "ledger_sign agrees"),
    "SequenceReport": (_sequence,
                       "valid violation_index violation_reason records"),
    "StoneProbe": (lambda: min_stone_probe(region_validate(HEX7_CELLS)),
                   "stones boundary_class parity_consistent"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    first = fields.split()[0]
    for attr in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_and_hash_read_its_fields(name):
    make, fields = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b and a is not b
    assert repr(a) == repr(b)
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    key = tuple(getattr(a, f) for f in fields.split())
    try:
        expected = hash(key)
    except TypeError:  # StepGroup holds a dict, as the dataclass did
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b) == expected


def test_region_walk_is_left_out_of_equality_hash_and_repr():
    walked = region_validate(HEX7_CELLS)
    plain = Region(walked.cells)
    assert walked.walk is not None and plain.walk is None
    assert walked == plain and hash(walked) == hash(plain)
    assert repr(walked) == repr(plain) == f"Region(cells={walked.cells!r})"
    assert len(walked) == len(HEX7_CELLS)
    assert walked != Region(walked.cells - {(0, 0)})


def test_word_length_is_its_letter_count():
    assert len(step_word("XYZxyz")) == 6 and str(step_word("XY")) == "XY"
    assert step_word("XY") != "XY" and step_word("XY") != step_word("XYx")


@pytest.mark.parametrize("value", [CycInt(1), IDENTITY])
def test_ring_values_are_not_tuples(value):
    with pytest.raises(TypeError):
        2 * value
    with pytest.raises(TypeError):
        len(value)


def test_ring_arithmetic_is_exact():
    assert CycInt(1, 2) + CycInt(3, 0, 1) == CycInt(4, 2, 1)
    assert CycInt(0, 1) * CycInt(0, 0, 0, 1) == CycInt(-1, 0, 1)
    assert IDENTITY * STEP_MATRICES["X"] == STEP_MATRICES["X"]
    assert CycInt(1) != (1, 0, 0, 0)
    assert IDENTITY != (IDENTITY.a, IDENTITY.b, IDENTITY.c, IDENTITY.d)


def test_constructors_still_validate():
    with pytest.raises(WordError, match="letters must be a str"):
        Word(["X"])
    with pytest.raises(TypeError):
        Word("step", "X")  # a Word has no alphabet field
    with pytest.raises(WordError, match="invalid step letter 'Q' at index 1"):
        Word("XQ")
    with pytest.raises(SizeError, match="partitions must be >= 1"):
        SearchConfig(partitions=0)
    with pytest.raises(SizeError, match="max_word_length must be an int"):
        SearchConfig(max_word_length=True)
    with pytest.raises(SizeError, match="partitions must be >= 1"):
        SearchConfig()._replace(partitions=0)
    assert SearchConfig() == SearchConfig(10, 1)
    assert SearchConfig()._replace(partitions=3) == SearchConfig(10, 3)


def test_reprs_read_as_a_dataclass_wrote_them():
    zero = "CycInt(c0=0, c1=0, c2=0, c3=0)"
    one = "CycInt(c0=1, c1=0, c2=0, c3=0)"
    assert repr(IDENTITY) == f"Mat2(a={one}, b={zero}, c={zero}, d={one})"
    assert repr(CycInt(1, -2)) == "CycInt(c0=1, c1=-2, c2=0, c3=0)"
    placement = placement_from_json(
        {"kind": "bone", "orientation": "left", "anchor": [1, 2]})
    assert repr(placement) == (
        "Placement(shape=TileShape(kind='bone', orientation='left', "
        "index=0, cells=frozenset({(-1, 1), (-2, 2), (0, 0)}), "
        "offsets=((-2, 2), (-1, 1), (0, 0)), "
        "boundary_word=Word(letters='ZZZYzzX')), "
        "anchor=(1, 2))")
    assert Mat2(CycInt(1), CycInt(), CycInt(), CycInt(1)) == IDENTITY
