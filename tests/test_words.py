import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsbs import fixtures, words
from hexsbs.cyclo import (ALPHA, BETA, GAMMA, IDENTITY, MINUS_IDENTITY,
                          Mat2, PMClass)
from hexsbs.fixtures import TABLE_WORDS, TILE_EDGE_WORDS, TILE_WORDS
from hexsbs.hexgrid import grow_random_region, region_validate
from hexsbs.search import (SearchConfig, group_closure_probe,
                           identity_endpoint_lattice, identity_word_census)
from hexsbs.tiling import (min_stone_probe, pad_window, signed_tiling_solve,
                           standard_tiling_solve)
from hexsbs.words import (STEP_GROUP, STEP_MATRICES, TILE_CLASSES,
                          ClosureClass, Word,
                          WordError, canonical_representative, classify_pm,
                          closure, closure_members, edge_to_step,
                          edges_to_steps,
                          eval_letters, eval_word, free_reduce, invert_word,
                          is_cyclically_reduced, is_least_member, parse_word,
                          rotate120, step_to_edge, step_word)

from fixture_data import CONJECTURE_MINUS, CONJECTURE_PLUS, HEX7_CELLS
from oracles import INVERSE, closure_set, eval_by_products, \
    exact_matches_complex, pairwise_edge_to_step


def rand_step_word(rng, max_len, reduced=False):
    letters = []
    inverse = dict(zip("XYZxyz", "xyzXYZ"))
    for _ in range(rng.randrange(max_len + 1)):
        choices = [ch for ch in "XYZxyz"
                   if not (reduced and letters and inverse[letters[-1]] == ch)]
        letters.append(rng.choice(choices))
    return step_word("".join(letters))


def test_parse():
    assert len(parse_word("ZxxYXXX")) == 7
    with pytest.raises(WordError) as err:
        parse_word("XQZ")
    assert err.value.position == 1
    # a word is read in step letters only; edge letters are refused
    with pytest.raises(WordError,
                       match="^invalid step letter 'B' at index 0$"):
        parse_word("BA")


@pytest.mark.parametrize("alphabet, letters, bad", [
    ("step", "XYZxyz", "Q"), ("step", "XYZxyz", "A"), ("step", "XYZxyz", " "),
    ("edge", "ABGabg", "X"), ("edge", "ABGabg", "\n"),
])
def test_bad_letter_in_a_long_word_keeps_its_index(alphabet, letters, bad):
    # one set test accepts a word; only a rejected one is scanned by index.
    # Edge letters are read by edge_to_step, which checks them before it
    # pairs them
    text = (letters * 2000)[:10 ** 4]
    if alphabet == "step":
        read = parse_word
        assert read(text).letters == text
    else:
        read = edge_to_step
        with pytest.raises(WordError,
                           match="^edge pair 'AB' at index 0 is not a step"):
            read(text)  # every letter passes; AB is no step's pair
    at = 10 ** 4 - 7
    with pytest.raises(WordError) as err:
        read(text[:at] + bad + text[at + 1:])
    assert str(err.value) == f"invalid {alphabet} letter {bad!r} at index {at}"
    assert err.value.position == at
    with pytest.raises(WordError) as err:
        read(text + bad + bad)
    assert err.value.position == 10 ** 4


@pytest.mark.parametrize("alphabet", ["step", "edge"])
@pytest.mark.parametrize("value", [
    ["X"], ("X",), None, b"X", 5, ["A"], ("A",), b"A"], ids=repr)
def test_word_letters_must_be_a_str(alphabet, value):
    # no iterable of letters is read as a word, even one of valid letters;
    # edge letters are read only by eval_letters and edge_to_step
    named = re.escape(repr(value))
    readers = ([Word, parse_word, step_word, eval_letters]
               if alphabet == "step" else
               [lambda v: eval_letters(v, "edge"), edge_to_step])
    for read in readers:
        with pytest.raises(WordError,
                           match=f"^letters must be a str, got {named}$"):
            read(value)


def test_alphabet_is_checked():
    # eval_letters is the one reader that takes an alphabet; a Word holds
    # step letters only, and edge letters enter as a plain str
    with pytest.raises(WordError, match="^unknown alphabet 'free'$"):
        eval_letters("X", "free")
    assert Word.__slots__ == ("letters",)
    with pytest.raises(TypeError):
        Word("edge", "BA")
    with pytest.raises(WordError, match="^invalid step letter 'B' at index 0"):
        Word("BA")
    with pytest.raises(WordError, match="^invalid edge letter 'X' at index 0"):
        edge_to_step("XA")
    with pytest.raises(WordError, match="^invalid edge letter 'X' at index 1"):
        eval_letters("BX", "edge")
    assert eval_letters("BA", "edge") == eval_letters("X")
    assert edge_to_step("BA") == (step_word("X"), 0)
    assert step_to_edge(step_word("X")) == "BA"


def test_free_reduce():
    assert free_reduce(step_word("Xx")).letters == ""
    assert free_reduce(step_word("ZYZzyX")).letters == "ZX"
    assert free_reduce(step_word("XYZ")).letters == "XYZ"
    assert free_reduce(step_word("XYyx")).letters == ""


def test_invert():
    assert invert_word(step_word("YxZ")).letters == "zXy"
    assert invert_word(step_word("")).letters == ""
    rng = random.Random(11)
    for _ in range(100):
        w = rand_step_word(rng, 12)
        assert invert_word(invert_word(w)) == w


def test_rotate120():
    assert rotate120(step_word("YxZ")).letters == "ZyX"
    assert rotate120(step_word("X")).letters == "Y"
    w = step_word("ZyzX")
    assert rotate120(rotate120(rotate120(w))) == w
    assert rotate120(step_word("XYZxyz")).letters == "YZXyzx"


EXPECTED_CLOSURE_18 = {
    "YxZ", "xZY", "ZYx",        # cyclic permutations
    "ZyX", "yXZ", "XZy",        # rotation by 120
    "XzY", "zYX", "YXz",        # rotation by 240
    "zXy", "Xyz", "yzX",        # inverses of line 1
    "xYz", "Yzx", "zxY",        # inverses of line 3
    "yZx", "Zxy", "xyZ",        # inverses of line 2
}


def test_closure_example():
    cls = closure(step_word("YxZ"))
    assert cls.members == frozenset(EXPECTED_CLOSURE_18)
    assert len(cls.members) == 18
    assert cls.representative.letters == min(EXPECTED_CLOSURE_18)


def test_closure_single_letter():
    assert closure(step_word("X")).members == frozenset("XYZxyz")


def test_closure_equalities():
    assert closure(step_word("yzYX")).members == \
        closure(step_word("ZyzX")).members
    # the two length-3 closed classes are distinct
    assert closure(step_word("XYZ")).members != \
        closure(step_word("XZY")).members


def test_closure_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        w = rand_step_word(rng, 8)
        cls = closure(w)
        assert closure(cls.representative).members == cls.members


def test_closure_size_bound():
    rng = random.Random(6)
    for _ in range(50):
        w = rand_step_word(rng, 10)
        assert len(closure(w).members) <= max(6 * len(w), 1)


@st.composite
def x_words(draw):
    """Cyclically reduced step words of length 1-16 that start with X."""
    letters = ["X"]
    for i in draw(st.lists(st.integers(0, 4), max_size=15)):
        letters.append([ch for ch in "XYZxyz"
                        if ch != INVERSE[letters[-1]]][i])
    while letters[-1] == "x":
        letters.pop()
    return "".join(letters)


@settings(max_examples=300, deadline=None)
@given(x_words())
def test_least_member_test_matches_closure_min(letters):
    assert is_cyclically_reduced(step_word(letters))
    members = closure_set(letters)
    least = min(members)
    assert is_least_member(letters) == (letters == least)
    # and on every member, the least one included
    for member in members:
        assert is_least_member(member) == (member == least), member


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="XYZxyz", min_size=1, max_size=16))
def test_least_member_test_matches_canonical_representative(letters):
    # any first letter, reduced or not: a word led by another letter, or
    # by a shorter run of X than some member, is never least
    assert is_least_member(letters) == \
        (canonical_representative(letters) == letters)


def test_least_member_test_on_every_short_x_led_word():
    words_tested = 0
    for n in range(1, 7):
        for tail in itertools.product("XYZxyz", repeat=n - 1):
            letters = "X" + "".join(tail)
            assert is_least_member(letters) == \
                (min(closure_set(letters)) == letters), letters
            words_tested += 1
    assert words_tested == 9331


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="XYZxyz", max_size=16))
def test_canonical_representative_is_closure_min(letters):
    assert closure_members(letters) == closure_set(letters)
    assert canonical_representative(letters) == \
        min(closure_members(letters)) == min(closure_set(letters))


def test_eval_fixture_words():
    assert eval_letters("XXX") == MINUS_IDENTITY
    assert eval_letters("ZxxYXXX") == IDENTITY
    assert eval_letters("XYZ") == IDENTITY
    assert eval_letters("") == IDENTITY


def test_eval_conjecture_and_table_signs():
    for w in CONJECTURE_PLUS:
        assert classify_pm(eval_letters(w)) is PMClass.PLUS_IDENTITY, w
    for w in CONJECTURE_MINUS:
        assert classify_pm(eval_letters(w)) is PMClass.MINUS_IDENTITY, w
    # yzYX is in the same closure class as table row ZyzX, whose value is
    # pinned to +I by the reduction chain ZyzX = -xZxZ and zXzX = -I
    assert eval_letters("zXzX") == MINUS_IDENTITY
    assert eval_letters("ZyzX") == -eval_letters("xZxZ")
    assert eval_letters("yzYX") == IDENTITY
    assert eval_letters("ZyzX") == IDENTITY


def test_table_words_all_pm():
    for letters, label in TABLE_WORDS:
        k = classify_pm(eval_letters(letters))
        assert k is not PMClass.OTHER, letters
        if label == "stone":
            assert k is PMClass.MINUS_IDENTITY
        if label in ("barbell", "2x2x2"):
            assert k is PMClass.PLUS_IDENTITY


def test_tile_calibration_both_alphabets():
    for name, letters in TILE_WORDS.items():
        expect = (PMClass.MINUS_IDENTITY if name.startswith("stone")
                  else PMClass.PLUS_IDENTITY)
        assert classify_pm(eval_letters(letters)) is expect, name
        assert classify_pm(
            eval_letters(TILE_EDGE_WORDS[name], "edge")) is expect, name


def test_closure_sign_consistency_on_fixtures():
    words = set(TILE_WORDS.values())
    words.update(w for w, _ in TABLE_WORDS)
    words.update(CONJECTURE_MINUS)
    words.update(CONJECTURE_PLUS)
    for letters in words:
        k = classify_pm(eval_letters(letters))
        if k is PMClass.OTHER:
            continue
        for member in closure(step_word(letters)).members:
            assert classify_pm(eval_letters(member)) is k, (letters, member)


def test_eval_invariant_under_free_reduction():
    rng = random.Random(13)
    for _ in range(400):
        w = rand_step_word(rng, 18)
        assert eval_word(free_reduce(w)) == eval_word(w)


def test_eval_inverse():
    rng = random.Random(14)
    for _ in range(300):
        w = rand_step_word(rng, 16)
        assert eval_word(invert_word(w)) * eval_word(w) == IDENTITY


def test_eval_concatenation():
    rng = random.Random(15)
    for _ in range(300):
        u = rand_step_word(rng, 10)
        v = rand_step_word(rng, 10)
        assert eval_letters(u.letters + v.letters) == \
            eval_word(u) * eval_word(v)


def test_eval_matches_complex_embedding():
    rng = random.Random(16)
    for _ in range(60):
        w = rand_step_word(rng, 12)
        assert exact_matches_complex(w)


def test_step_group_transitions_match_mat2_products():
    g = STEP_GROUP
    assert g.elements[0] == IDENTITY
    assert len(set(g.elements)) == len(g.elements) == 24
    checked = 0
    for ch, row in g.step.items():
        for i, m in enumerate(g.elements):
            assert g.elements[row[i]] == m * STEP_MATRICES[ch]
            checked += 1
    assert checked == 144


def test_step_group_pm_flags_match_classify_pm():
    assert STEP_GROUP.pm == tuple(classify_pm(m) for m in STEP_GROUP.elements)
    assert STEP_GROUP.pm.count(PMClass.PLUS_IDENTITY) == 1
    assert STEP_GROUP.pm.count(PMClass.MINUS_IDENTITY) == 1


def test_step_group_shortest_words_are_least():
    # every element is reached within three letters; the stored word is
    # the least of least length, in the string order of the letters
    least = {}
    for n in range(4):
        for letters in map("".join, itertools.product("XYZxyz", repeat=n)):
            least.setdefault(eval_by_products(letters), letters)
    assert STEP_GROUP.shortest == tuple(least[m] for m in STEP_GROUP.elements)


def test_step_group_is_numbered_in_shortlex_order():
    # the census lists the shortest words in table order as shortlex order
    assert list(STEP_GROUP.shortest) == sorted(
        STEP_GROUP.shortest, key=lambda w: (len(w), w))


def test_tile_classes_keep_the_import_calibration():
    assert [name for name, _, _ in TILE_CLASSES] == list(TILE_WORDS)
    for name, step_class, edge_class in TILE_CLASSES:
        want = (PMClass.MINUS_IDENTITY if name.startswith("stone")
                else PMClass.PLUS_IDENTITY)
        assert step_class is edge_class is want, name
        assert classify_pm(eval_letters(TILE_WORDS[name])) is step_class
        assert classify_pm(eval_letters(TILE_EDGE_WORDS[name],
                                        "edge")) is edge_class


@pytest.mark.parametrize("table, stone_word, alphabet", [
    ("TILE_WORDS", TILE_WORDS["bone_left"], "composition-order"),
    ("TILE_EDGE_WORDS", TILE_EDGE_WORDS["bone_left"], "edge-alphabet"),
    ("TILE_EDGE_WORDS", "AA", "edge-alphabet"),
], ids=["TILE_WORDS-composition-order", "TILE_EDGE_WORDS-edge-alphabet",
        "TILE_EDGE_WORDS-unpaired"])
def test_calibration_refuses_a_wrong_tile_class(monkeypatch, table,
                                                stone_word, alphabet):
    # a bone word, or an edge word that pairs in neither phase, filed
    # under a stone name must stop the import with the calibration's own
    # message
    words_of = dict(getattr(fixtures, table))
    words_of["stone_left"] = stone_word
    monkeypatch.setattr(fixtures, table, words_of)
    with pytest.raises(AssertionError,
                       match=f"{alphabet} calibration failed on stone_left"):
        words._startup_calibration()


def test_calibration_makes_no_mat2_product(monkeypatch):
    # the edge tile words are classed on STEP_GROUP, not multiplied out
    def refuse(self, other):
        raise AssertionError("Mat2 product")
    monkeypatch.setattr(Mat2, "__mul__", refuse)
    assert words._startup_calibration() == TILE_CLASSES


def test_step_matrices_are_the_papers_edge_products():
    x, y, z = BETA * ALPHA, ALPHA.inv() * GAMMA, GAMMA.inv() * BETA.inv()
    assert STEP_MATRICES == {"X": x, "Y": y, "Z": z,
                             "x": x.inv(), "y": y.inv(), "z": z.inv()}


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="XYZxyz", max_size=500))
def test_eval_word_matches_product_fold(letters):
    assert eval_word(step_word(letters)) == eval_by_products(letters)


def test_step_to_edge():
    assert step_to_edge(step_word("X")) == "BA"
    assert step_to_edge(step_word("Y")) == "aG"
    # the calibrated composition order makes Z expand gamma^-1 first
    assert step_to_edge(step_word("Z")) == "gb"
    assert step_to_edge(step_word("x")) == "ab"


def test_step_edge_round_trip_preserves_eval():
    rng = random.Random(17)
    for _ in range(200):
        w = rand_step_word(rng, 12)
        e = step_to_edge(w)
        back, shift = edge_to_step(e)
        assert shift == 0
        assert back == w
        assert eval_letters(e, "edge") == eval_word(w)


def test_edge_to_step_errors():
    with pytest.raises(WordError):
        edge_to_step("B")  # odd length
    with pytest.raises(WordError) as err:
        edge_to_step("AA")  # ungroupable either phase
    assert "AA" in str(err.value) or "aA" in str(err.value)


def test_edges_to_steps_reads_pairs_or_none():
    assert edges_to_steps("") == ""
    assert edges_to_steps("BAgA") == "Xy"
    assert edges_to_steps("BAg") is None  # odd length
    assert edges_to_steps("BAAB") is None  # AB is no step's pair


def _grouping(fn, letters):
    try:
        return fn(letters)
    except WordError as e:
        return str(e), e.position


_STEP_IMAGES = st.text(alphabet="XYZxyz", max_size=28).map(
    lambda s: step_to_edge(step_word(s)))


@settings(max_examples=300)
@given(st.one_of(
    st.text(alphabet="ABGabg", max_size=60),
    _STEP_IMAGES,
    _STEP_IMAGES.map(lambda e: e[1:] + e[:1]),
    st.tuples(_STEP_IMAGES, st.text(alphabet="ABGabg", max_size=4)).map(
        "".join)))
def test_edge_to_step_matches_pairwise_oracle(letters):
    # the same (word, shift), or the same message and position
    assert (_grouping(edge_to_step, letters)
            == _grouping(pairwise_edge_to_step, letters))


def test_edge_to_step_tile_words_need_at_most_one_shift():
    for name, edge_letters in TILE_EDGE_WORDS.items():
        word, shift = edge_to_step(edge_letters)
        assert shift in (0, 1), name
        assert word.letters in closure(step_word(TILE_WORDS[name])).members


def test_cyclically_reduced():
    assert is_cyclically_reduced(step_word("XZZyX"))
    assert not is_cyclically_reduced(step_word("XYx"))
    assert not is_cyclically_reduced(step_word("Xx"))


def test_closure_class_json():
    cls = closure(step_word("X"))
    assert cls.representative.letters == "X"
    assert sorted(cls.members) == sorted("XYZxyz")
    assert isinstance(cls, ClosureClass)
    assert Word("Y") in cls


HEX7 = region_validate(HEX7_CELLS)
OBSTRUCTED = region_validate([(0, 0)])  # Other: answered without a window
EMPTY = region_validate([], allow_empty=True)
# every size argument of the library: (name, floor, call with the size),
# padding and cap also on regions that the boundary gate answers early
SIZES = {
    "grow_random_region": ("n_cells", 1,
                           lambda v: grow_random_region(random.Random(1), v)),
    "SearchConfig max_word_length": ("max_word_length", 2,
                                     lambda v: SearchConfig(v)),
    "SearchConfig partitions": ("partitions", 1,
                                lambda v: SearchConfig(8, v)),
    "group_closure_probe": ("bound", 1,
                            lambda v: group_closure_probe("", v)),
    "identity_endpoint_lattice": ("max_length", 0,
                                  identity_endpoint_lattice),
    "identity_word_census": ("max_length", 2, identity_word_census),
    "pad_window": ("padding", 0, lambda v: pad_window(HEX7.cells, v)),
    "signed_tiling_solve": ("padding", 0,
                            lambda v: signed_tiling_solve(HEX7, padding=v)),
    "signed_tiling_solve Other": ("padding", 0,
                                  lambda v: signed_tiling_solve(
                                      OBSTRUCTED, padding=v)),
    "signed_tiling_solve empty": ("padding", 0,
                                  lambda v: signed_tiling_solve(
                                      EMPTY, padding=v)),
    "min_stone_probe": ("padding", 0, lambda v: min_stone_probe(HEX7, v)),
    "min_stone_probe Other": ("padding", 0,
                              lambda v: min_stone_probe(OBSTRUCTED, v)),
    "standard_tiling_solve first": ("cap", 0,
                                    lambda v: standard_tiling_solve(
                                        HEX7, cap=v)),
    "standard_tiling_solve count": ("cap", 0,
                                    lambda v: standard_tiling_solve(
                                        HEX7, mode="count", cap=v)),
    "standard_tiling_solve count Other": ("cap", 0,
                                          lambda v: standard_tiling_solve(
                                              OBSTRUCTED, mode="count",
                                              cap=v)),
}


@pytest.mark.parametrize("value",
                         [True, False, 2.5, 3.0, "2", None, -3, "floor"])
@pytest.mark.parametrize("entry", sorted(SIZES))
def test_every_size_has_the_one_rule_and_wording(entry, value):
    name, floor, call = SIZES[entry]
    if value == "floor":
        value = floor - 1
    if type(value) is int:
        message = f"{name} must be >= {floor}"
    else:
        message = f"{name} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


# JSON-like values: every repr of 30 characters or fewer must come out of
# brief whole, with dict keys in insertion order
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_brief_keeps_a_short_repr_whole(value):
    text = words.brief(value)
    if len(repr(value)) <= 30:
        assert text == repr(value)
    else:
        assert len(text) < 1024


def test_brief_cuts_long_and_deep_values_short():
    deep = 0
    for _ in range(7):
        deep = [deep] * 10  # ten million leaves, one object per level
    assert words.brief("x" * 10 ** 6) == "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
    assert words.brief(list(range(10 ** 5))) == \
        "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...]"
    assert words.brief({"b": 0, "a": 1}) == "{'b': 0, 'a': 1}"
    assert len(words.brief(deep)) < 1024
