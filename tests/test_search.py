import itertools
import json
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexsbs import search
from hexsbs.cyclo import IDENTITY, PMClass
from hexsbs.fixtures import TABLE_WORDS
from hexsbs.hexgrid import is_closed
from hexsbs.search import (CensusReport, GroupProbeResult, RelationRecord,
                           SearchConfig, enumerate_identity_words,
                           group_closure_probe, identity_endpoint_lattice,
                           identity_word_census, reduce_relation_list,
                           verify_reduction_table)
from hexsbs.words import (STEP_GROUP, STEP_MATRICES, canonical_representative,
                          closure_variants, eval_letters, is_least_member,
                          step_word)

from fixture_data import CONJECTURE_MINUS, CONJECTURE_PLUS
from oracles import (INVERSE, census_counts_by_length, closure_set,
                     closure_set_identity_words, coset_trace,
                     count_identity_words, endpoints_by_length,
                     mat2_group_closure, mat2_order,
                     naive_identity_classes, prenecklace_identity_words,
                     reduced_endpoint_lattice, sign_presentation,
                     substring_dict_reduce, todd_coxeter)


def reps(records):
    return {r.representative for r in records}


def test_enumerate_small_lengths():
    found3 = enumerate_identity_words(SearchConfig(3))
    assert canonical_representative("YZX") in reps(found3)
    assert canonical_representative("XXX") in reps(found3)
    by_rep = {r.representative: r for r in found3}
    assert by_rep[canonical_representative("YZX")].value is \
        PMClass.PLUS_IDENTITY
    assert by_rep[canonical_representative("XXX")].value is \
        PMClass.MINUS_IDENTITY

    found4 = enumerate_identity_words(SearchConfig(4))
    assert canonical_representative("ZyzX") in reps(found4)
    assert canonical_representative("yXyX") in reps(found4)
    by_rep = {r.representative: r for r in found4}
    assert by_rep[canonical_representative("ZyzX")].value is \
        PMClass.PLUS_IDENTITY
    assert by_rep[canonical_representative("yXyX")].value is \
        PMClass.MINUS_IDENTITY


def test_enumerate_finds_all_table_classes_at_9():
    found = reps(enumerate_identity_words(SearchConfig(9)))
    for letters, label in TABLE_WORDS:
        assert canonical_representative(letters) in found, letters


def test_enumeration_matches_naive_oracle():
    for max_len in (4, 5, 6):
        pruned = enumerate_identity_words(SearchConfig(max_len))
        naive = naive_identity_classes(max_len)
        assert {r.representative: (r.value, r.length)
                for r in pruned} == naive


def test_appended_x_is_lossless():
    # dropping the final-X restriction finds the same classes
    for max_len in (4, 6):
        restricted = reps(enumerate_identity_words(SearchConfig(max_len)))
        free = set(naive_identity_classes(max_len, require_final_x=False))
        assert restricted == free


def test_records_round_trip_and_order():
    records = enumerate_identity_words(SearchConfig(7))
    assert records == sorted(
        records, key=lambda r: (r.length, r.representative))
    for r in records:
        m = eval_letters(r.representative)
        want = (IDENTITY if r.value is PMClass.PLUS_IDENTITY else -IDENTITY)
        assert m == want
        assert r.length == len(r.representative)
        line = json.loads(r.jsonl())
        assert line["representative"] == r.representative


def test_partitioned_runs_merge_identically():
    single = enumerate_identity_words(SearchConfig(10, partitions=1))
    for parts in (2, 3, 6):
        multi = enumerate_identity_words(SearchConfig(10, partitions=parts))
        assert [r.jsonl() for r in multi] == [r.jsonl() for r in single]


@pytest.fixture(scope="module")
def oracle_records():
    """The former closure-set enumeration at length 9."""
    return closure_set_identity_words(9)


@pytest.mark.parametrize("max_len", range(2, 10))
def test_enumeration_matches_closure_set_oracle(oracle_records, max_len):
    want = [r for r in oracle_records if r.length <= max_len]
    for parts in (1, 2):
        assert enumerate_identity_words(SearchConfig(max_len, parts)) == \
            want, parts


@pytest.fixture(scope="module")
def unpruned_records():
    """The former prenecklace enumeration at length 10, by partitions."""
    return {parts: prenecklace_identity_words(10, parts) for parts in (1, 2)}


@pytest.mark.parametrize("max_len", range(2, 11))
def test_enumeration_matches_unpruned_prenecklace_oracle(unpruned_records,
                                                         max_len):
    for parts, records in unpruned_records.items():
        want = [r for r in records if r.length <= max_len]
        assert enumerate_identity_words(SearchConfig(max_len, parts)) == \
            want, parts


def test_run_rule_and_necklace_skip_spare_least_member_calls(monkeypatch):
    # regression pin: the unpruned search calls is_least_member 4,725 times
    # at length 8 to keep the same 882 classes, and 1,735 times without
    # the rule for lead-long runs
    calls = []

    def counted(letters):
        calls.append(letters)
        return is_least_member(letters)

    monkeypatch.setattr(search, "is_least_member", counted)
    assert len(enumerate_identity_words(SearchConfig(8))) == 882
    assert len(calls) == 1157


class _CountedLookups(dict):
    def __init__(self, items):
        super().__init__(items)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


# the ids keep the visit counts from before the rule for lead-long runs
@pytest.mark.parametrize("max_len, visits", [(8, 2717), (10, 49749)],
                         ids=["8-4317", "10-76445"])
def test_last_level_skips_states_no_letter_closes(monkeypatch, max_len,
                                                  visits):
    # regression pin: every visit but the root's looks up the followers of
    # its last letter.  Without the skip the search makes 7,641 visits at
    # length 8 and 138,321 at length 10, for the same classes, and without
    # the rule for lead-long runs 4,317 and 76,445
    followers = _CountedLookups(search._FOLLOWERS)
    monkeypatch.setattr(search, "_FOLLOWERS", followers)
    records = enumerate_identity_words(SearchConfig(max_len))
    assert len(records) == {8: 882, 10: 17548}[max_len]
    assert followers.lookups + 1 == visits


@pytest.fixture(scope="module")
def records9():
    return enumerate_identity_words(SearchConfig(9))


def test_jsonl_is_the_sorted_json_dump(records9):
    for r in records9:
        assert r.jsonl() == json.dumps(r.to_json(), sort_keys=True)


def test_closed_by_letter_counts_matches_the_path_walk(records9):
    assert {r.closed for r in records9} == {True, False}
    for r in records9:
        assert r.closed == is_closed(step_word(r.representative)), r


@st.composite
def x_led_reduced_words(draw):
    """Cyclically reduced step words of 2-16 letters that start with X."""
    n = draw(st.integers(2, 16))
    letters = "X"
    while len(letters) < n:
        last = len(letters) == n - 1
        letters += draw(st.sampled_from(
            [ch for ch in "XYZxyz" if ch != INVERSE[letters[-1]]
             and not (last and ch == "x")]))
    return letters


@settings(max_examples=300, deadline=None)
@given(x_led_reduced_words())
def test_a_run_longer_than_the_lead_is_never_least(letters):
    lead, *rest = [len(list(run)) for _, run in itertools.groupby(letters)]
    assume(rest and max(rest) > lead)
    assert min(closure_set(letters)) < letters
    assert not is_least_member(letters)


def lead_long_run_loses(letters):
    """Whether a run of exactly lead letters a, not X, stands next to a
    letter that the variant mapping a to X takes below letters[lead]: the
    letter after the run, cyclically, for uppercase a, and the one before
    it for lowercase a."""
    runs = [(ch, len(list(run))) for ch, run in itertools.groupby(letters)]
    lead = runs[0][1]
    if lead == len(letters):
        return False
    start = 0
    for ch, size in runs:
        if ch != "X" and size == lead:
            c = (letters[(start + size) % len(letters)] if ch.isupper()
                 else letters[start - 1])
            # closure_variants yields the six variants in one order
            image = next(vc for va, vc in zip(closure_variants(ch),
                                              closure_variants(c))
                         if va == "X")
            if image < letters[lead]:
                return True
        start += size
    return False


@settings(max_examples=300, deadline=None)
@given(x_led_reduced_words())
def test_a_lead_long_run_next_to_a_losing_letter_is_never_least(letters):
    assume(lead_long_run_loses(letters))
    assert min(closure_set(letters)) < letters
    assert not is_least_member(letters)


def test_no_least_member_has_a_lead_long_run_next_to_a_losing_letter(
        unpruned_records):
    records = unpruned_records[1]
    assert len(records) == 17548
    assert not any(lead_long_run_loses(r.representative) for r in records)


@pytest.mark.parametrize("max_len", range(2, 10))
def test_reduction_matches_substring_dict_oracle(oracle_records, max_len):
    records = [r for r in oracle_records if r.length <= max_len]
    want = substring_dict_reduce(records)
    got = reduce_relation_list(enumerate_identity_words(SearchConfig(max_len)))
    assert got.survivors == want.survivors
    assert got.casualties == want.casualties


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduction_of_record_subsets_matches_oracle(oracle_records, data):
    records = [r for r in oracle_records if r.length <= 8]
    picks = data.draw(st.sets(st.integers(0, len(records) - 1),
                              max_size=60))
    subset = [records[i] for i in sorted(picks)]
    assert reduce_relation_list(subset) == substring_dict_reduce(subset)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(1)
    with pytest.raises(ValueError):
        SearchConfig(5, 0)


def rec(letters, value=PMClass.PLUS_IDENTITY):
    rep = canonical_representative(letters)
    return RelationRecord(rep, value, len(rep), False)


def test_reduce_kills_factor_containing_class():
    shorter = rec("XYZ")
    longer = rec("XXYZ")  # contains the factor YZ
    result = reduce_relation_list([shorter, longer])
    assert result.survivors == (shorter,)
    casualty, factor, source = result.casualties[0]
    assert casualty == longer
    assert source == shorter.representative
    assert len(factor) == 2


def test_reduce_single_record_survives():
    only = rec("XYZ")
    assert reduce_relation_list([only]).survivors == (only,)


def test_reduce_single_letters_kill_nothing():
    # factors have two letters or more, as in the former reducer
    records = [rec("X"), rec("XYZ"), rec("XXYZ")]
    result = reduce_relation_list(records)
    assert result == substring_dict_reduce(records)
    assert result.survivors == tuple(records[:2])


def test_reduce_requires_sorted_input():
    # a pair out of (length, representative) order, at either key, read
    # from a list or from a one-shot generator
    for records in ([rec("XXYZ"), rec("XYZ")],
                    [rec("XYZ"), rec("XXYZ"), rec("XYZ")],
                    [rec("XXX"), rec("XYZ"), rec("XXX")]):
        for make in (list, iter):
            with pytest.raises(ValueError, match="^records must be sorted "
                                                 "shortest-first$"):
                reduce_relation_list(make(records))


def test_reduce_reads_a_generator_as_it_reads_a_list():
    records = enumerate_identity_words(SearchConfig(9))
    assert reduce_relation_list(r for r in records) == \
        reduce_relation_list(records)


def test_reduce_accepts_a_repeated_record_as_a_casualty():
    # equal keys are in order, as for the stable sort of the former check;
    # the copy shares every window with the record before it
    first, second = rec("XYZ"), rec("XYZ")
    result = reduce_relation_list([first, second, rec("XXYZ")])
    assert result.survivors == (first,)
    assert [(r, source) for r, _, source in result.casualties] == \
        [(second, "XYZ"), (rec("XXYZ"), "XYZ")]


def test_reduce_full_run_is_deterministic():
    records = enumerate_identity_words(SearchConfig(9))
    result = reduce_relation_list(records)
    assert len(result.survivors) + len(result.casualties) == len(records)
    again = reduce_relation_list(records)
    assert result == again
    # regression pin for the shipped rule on the max-9 run
    assert [r.representative for r in result.survivors] == \
        ["XXX", "XYZ", "XZxy", "XyXy", "XZYXZY", "XyZxYz"]


def test_verify_reduction_table():
    rows = verify_reduction_table()
    assert len(rows) == 7
    assert all(r["holds"] for r in rows)


def test_group_probe_single_generator():
    result = group_closure_probe("X", bound=100)
    assert result.order == 6
    assert not result.bound_exceeded


def test_group_probe_identity():
    result = group_closure_probe("", bound=10)
    assert result.order == 1


def test_group_probe_full_group():
    result = group_closure_probe("XYZ", bound=10 ** 6)
    assert result.order == 24
    assert dict(result.element_orders) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def test_step_group_orders_match_mat2_powers():
    assert STEP_GROUP.orders == tuple(map(mat2_order, STEP_GROUP.elements))
    assert Counter(STEP_GROUP.orders) == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def test_group_probe_matches_mat2_closure():
    # every subset of the six letters, the empty one too, at every bound
    # below and just above the largest order and at the default
    subsets = ["".join(c) for n in range(7)
               for c in itertools.combinations("XYZxyz", n)]
    assert len(subsets) == 64
    for letters in subsets:
        generators = [STEP_MATRICES[ch] for ch in letters]
        for bound in [*range(1, 26), 10 ** 6]:
            assert group_closure_probe(letters, bound) == \
                mat2_group_closure(generators, bound), (letters, bound)


@pytest.mark.parametrize("letters, named", [
    (["X"], "['X']"), (None, "None"), (b"X", "b'X'"),
    ("XQ", "'Q'"), ("X y", "' '"),
])
def test_group_probe_refuses_non_step_letters(letters, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        group_closure_probe(letters)


def test_coset_enumeration_matches_group_probe():
    # known orders: cyclic 5, S3, binary tetrahedral, A5
    assert len(todd_coxeter("A", ["AAAAA"])) == 5
    assert len(todd_coxeter("AB", ["AAA", "BB", "ABAB"])) == 6
    assert len(todd_coxeter("ST", ["STSTsss", "SSSttt"])) == 24
    assert len(todd_coxeter("AB", ["AA", "BBB", "AB" * 5])) == 60
    table = todd_coxeter("XYZC",
                         sign_presentation(CONJECTURE_MINUS, CONJECTURE_PLUS))
    assert coset_trace(table, "C") != 0
    assert all(coset_trace(table, ch + ch.lower(), k) == k
               for k in range(len(table)) for ch in "XYZC")
    # the step matrices satisfy every relation with C -> -I, so they are a
    # quotient of the presented group; equal orders make them faithful
    probe = group_closure_probe("XYZ", bound=10 ** 6)
    assert len(table) == probe.order == 24


@pytest.mark.parametrize("args, name", [
    ((8.5,), "max_word_length"),
    ((True,), "max_word_length"),
    (("8",), "max_word_length"),
    ((8, True), "partitions"),
    ((8, 2.0), "partitions"),
])
def test_search_config_requires_ints(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        SearchConfig(*args)


def test_group_probe_bound_respected():
    result = group_closure_probe("XYZ", bound=10)
    assert result.bound_exceeded
    assert result.to_json()["result"] == "BoundExceeded"
    with pytest.raises(ValueError):
        group_closure_probe("", bound=0)


@pytest.mark.parametrize("value", [True, False, 2.5, "2", None])
def test_search_sizes_must_be_ints(value):
    calls = {"max_length": [lambda: identity_endpoint_lattice(value),
                            lambda: identity_word_census(value)],
             "bound": [lambda: group_closure_probe("", bound=value)]}
    for name, fns in calls.items():
        for call in fns:
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                call()


def test_endpoint_lattice_contains_landmarks():
    plus = set(identity_endpoint_lattice(6, "+I"))
    assert (0, 0) in plus          # closed identity loops
    assert (0, 6) in plus          # six X steps
    minus = set(identity_endpoint_lattice(6, "-I"))
    assert (0, 3) in minus         # three X steps
    both = set(identity_endpoint_lattice(6, "both"))
    assert plus <= both and minus <= both
    with pytest.raises(ValueError):
        identity_endpoint_lattice(4, "+-I")


def test_endpoint_lattice_matches_word_walk():
    walked = endpoints_by_length(9)
    signs = {"+I": (PMClass.PLUS_IDENTITY,),
             "-I": (PMClass.MINUS_IDENTITY,),
             "both": (PMClass.PLUS_IDENTITY, PMClass.MINUS_IDENTITY)}
    for sign, classes in signs.items():
        for max_length in range(10):
            want = set()
            for n in range(max_length + 1):
                for k in classes:
                    want |= walked.get((n, k), set())
            assert identity_endpoint_lattice(max_length, sign) == \
                sorted(want), (sign, max_length)
    with pytest.raises(ValueError, match="max_length"):
        identity_endpoint_lattice(-3)


@pytest.mark.parametrize("max_length", (10, 11, 12))
@pytest.mark.parametrize("sign", ("+I", "-I", "both"))
def test_endpoint_lattice_matches_reduced_word_frontier(sign, max_length):
    assert identity_endpoint_lattice(max_length, sign) == \
        reduced_endpoint_lattice(max_length, sign)


def test_endpoint_lattice_closed_under_addition():
    small = identity_endpoint_lattice(4, "+I")
    large = set(identity_endpoint_lattice(8, "+I"))
    for (u1, v1) in small:
        for (u2, v2) in small:
            assert (u1 + u2, v1 + v2) in large


def test_census_counts_match_direct_scan():
    report = identity_word_census(7)
    assert isinstance(report, CensusReport)
    assert report.group_size == 24
    for length, plus, minus in report.counts:
        assert (plus, minus) == count_identity_words(length), length


def test_census_matches_per_length_recount():
    assert list(identity_word_census(30).counts) == \
        census_counts_by_length(30)


def test_census_deterministic_and_serializable():
    a = identity_word_census(10)
    b = identity_word_census(10)
    assert a == b
    data = a.to_json()
    assert data["group_size"] == 24
    assert len(data["counts"]) == 9
    assert len(data["shortest_words"]) == 24
    assert data["shortest_words"][0] == {"word": "", "class": "PlusIdentity"}


def test_census_validation():
    with pytest.raises(ValueError):
        identity_word_census(1)


def test_probe_result_json():
    assert GroupProbeResult(6, 100, ((1, 1),)).to_json()["order"] == 6
