"""Word algebra over the step alphabet XYZxyz and edge alphabet ABGabg.

Conventions
-----------
* Step letters: X, Y, Z are the three moves between shaded vertices of the
  hexagonal grid; lowercase letters are their inverses.
* Edge letters: A/B/G stand for the alpha/beta/gamma edge generators,
  lowercase for their inverses.
* A written word composes like functions: matrices multiply left-to-right
  in written order, and as a grid path the word is traversed starting from
  its RIGHTMOST letter.  Under this reading the word "XYZ" is the closed
  zero-area triangle, while "ZYX" walks counterclockwise around one cell.
* Each step letter is a written edge pair (STEP_TO_EDGES) and its matrix
  the pair's product: M(X) = beta*alpha, M(Y) = alpha^-1*gamma and
  M(Z) = gamma^-1*beta^-1.  The pair order inside M(Z) is pinned by the
  tile calibration suite (bone/snake boundary words evaluate to I and
  stone words to -I, in both alphabets), asserted once at import via
  fixtures.TILE_WORDS; its rows are kept as TILE_CLASSES.
* Edge letters become step letters only in edges_to_steps, two at a time;
  edge_to_step and hexgrid's region_boundary_word both call it.
* The step matrices generate SL(2,3), of order 24, tabulated once at
  import as STEP_GROUP with each element's order; step words evaluate by
  one table lookup per letter, and subgroups are walked on its rows.
  Import makes 150 Mat2 products: 6 for the step matrices, 24 x 6 for
  STEP_GROUP.  Edge words stay on Mat2 products in eval_word, since
  alpha, beta and gamma generate an infinite group.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from .cyclo import (ALPHA, BETA, GAMMA, IDENTITY, Frozen, Mat2, PMClass,
                    classify_pm, setters)

STEP_LETTERS = "XYZxyz"
EDGE_LETTERS = "ABGabg"

STEP_INVERT = str.maketrans("XYZxyz", "xyzXYZ")
_STEP_ROTATE = str.maketrans("XYZxyz", "YZXyzx")
_EDGE_INVERT = str.maketrans("ABGabg", "abgABG")
_LETTER_SETS = {"step": frozenset(STEP_LETTERS),
                "edge": frozenset(EDGE_LETTERS)}


class WordError(ValueError):
    """Malformed word input; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class SizeError(ValueError):
    """A size argument that breaks check_size's rule."""


def check_size(name: str, value, low: int) -> None:
    """The library's one rule for a size argument: exactly an int (a bool
    or a float is refused, never coerced), and at least `low`; SizeError
    otherwise."""
    if type(value) is not int:
        raise SizeError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise SizeError(f"{name} must be >= {low}")


class Word(Frozen):
    """A sequence of letters over one alphabet, stored as a plain string."""

    __slots__ = ("alphabet", "letters")  # alphabet is "step" or "edge"

    def __init__(self, alphabet: str, letters: str):
        if alphabet not in ("step", "edge"):
            raise WordError(f"unknown alphabet {alphabet!r}")
        if not isinstance(letters, str):
            raise WordError(f"letters must be a str, got {letters!r}")
        allowed = _LETTER_SETS[alphabet]
        if not allowed.issuperset(letters):  # the scan only names the fault
            i, ch = next((i, ch) for i, ch in enumerate(letters)
                         if ch not in allowed)
            raise WordError(f"invalid {alphabet} letter {ch!r} at index {i}",
                            i)
        _set_alphabet(self, alphabet)
        _set_letters(self, letters)

    def _key(self) -> tuple:
        return (self.alphabet, self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


_set_alphabet, _set_letters = setters(Word)


def step_word(letters: str) -> Word:
    return Word("step", letters)


def parse_word(text: str, alphabet: str = "step") -> Word:
    return Word(alphabet, text)


def free_reduce(w: Word) -> Word:
    table = STEP_INVERT if w.alphabet == "step" else _EDGE_INVERT
    out: list[str] = []
    for ch in w.letters:
        if out and out[-1] == ch.translate(table):
            out.pop()
        else:
            out.append(ch)
    return Word(w.alphabet, "".join(out))


def is_cyclically_reduced(w: Word) -> bool:
    table = STEP_INVERT if w.alphabet == "step" else _EDGE_INVERT
    s = w.letters
    return (free_reduce(w).letters == s
            and not (s and s[0] == s[-1].translate(table)))


def invert_word(w: Word) -> Word:
    table = STEP_INVERT if w.alphabet == "step" else _EDGE_INVERT
    return Word(w.alphabet, w.letters[::-1].translate(table))


def rotate120(w: Word) -> Word:
    """Rotate a step word by 120 degrees (X -> Y -> Z -> X, letterwise)."""
    if w.alphabet != "step":
        raise WordError("rotate120 is defined on the step alphabet only")
    return Word("step", w.letters.translate(_STEP_ROTATE))


class ClosureClass(Frozen):
    """All cyclic permutations, 120-degree rotations and inverses of a word.

    The representative, a Word, is the lexicographically least member
    under the plain string order of the letters X < Y < Z < x < y < z;
    members is the frozenset of every member's letters.
    """

    __slots__ = ("representative", "members")

    def __init__(self, representative: Word, members: frozenset):
        _set_representative(self, representative)
        _set_members(self, members)

    def _key(self) -> tuple:
        return (self.representative, self.members)

    def __contains__(self, w) -> bool:
        letters = w.letters if isinstance(w, Word) else w
        return letters in self.members


_set_representative, _set_members = setters(ClosureClass)

# the six variants of a word, in the order closure_variants yields them:
# (source letter, reversed?, letter map), where the variant is the word,
# reversed or not, under the letter map, and the map takes the source
# letter to X.  The three rotations X -> Y -> Z, each followed by its
# inverse.
_VARIANT_MAPS = tuple(
    (STEP_LETTERS[image.index("X")], flip,
     str.maketrans(STEP_LETTERS, image))
    for rotated in ("XYZxyz", "YZXyzx", "ZXYzxy")
    for flip, image in ((False, rotated),
                        (True, rotated.translate(STEP_INVERT))))


def closure_variants(letters: str):
    """The six words whose cyclic shifts make up the closure class: the
    word and its two 120-degree rotations, each followed by its inverse."""
    backwards = letters[::-1]
    for _, flip, table in _VARIANT_MAPS:
        yield (backwards if flip else letters).translate(table)


def _shifts(letters: str):
    # every member of the closure class, some more than once
    return (var[i:] + var[:i] for var in closure_variants(letters)
            for i in range(len(var) or 1))


def closure_members(letters: str) -> frozenset:
    return frozenset(_shifts(letters))


def closure(w: Word) -> ClosureClass:
    if w.alphabet != "step":
        raise WordError("closure is defined on the step alphabet only")
    members = closure_members(w.letters)
    return ClosureClass(Word("step", min(members)), members)


def canonical_representative(letters: str) -> str:
    return min(_shifts(letters))


def is_least_member(letters: str) -> bool:
    """Whether letters is the least member of its closure class.

    Let lead be the word's leading run of X.  A member that sorts before
    the word starts with that run too, since X is the least letter; a
    word that does not start with X is beaten by any member that does,
    and every non-empty class has one.  So only the variants whose source
    letter (the one they map to X) has a run of lead letters in the word
    are built, and only their shifts that start with lead X are compared.
    The word starts with X, so a run of any other source letter cannot
    wrap around its end.  The comparisons stop at the first smaller
    member."""
    n = len(letters)
    head = letters[:n - len(letters.lstrip("X"))]
    if not head:
        return not letters
    lead = len(head)
    backwards = letters[::-1]
    for src, flip, table in _VARIANT_MAPS:
        if src * lead in letters:
            doubled = (backwards if flip else letters).translate(table) * 2
            i = doubled.find(head)
            while 0 <= i < n:
                if doubled[i:i + n] < letters:
                    return False
                i = doubled.find(head, i + 1)
    return True


EDGE_MATRICES: dict[str, Mat2] = {
    "A": ALPHA, "B": BETA, "G": GAMMA,
    "a": ALPHA.inv(), "b": BETA.inv(), "g": GAMMA.inv(),
}

# step letter -> written edge pair (left-to-right composition order)
STEP_TO_EDGES = {"X": "BA", "Y": "aG", "Z": "gb",
                 "x": "ab", "y": "gA", "z": "BG"}
_EDGES_TO_STEP = {v: k for k, v in STEP_TO_EDGES.items()}

# letter -> matrix, its edge pair's product; words multiply left-to-right
STEP_MATRICES: dict[str, Mat2] = {
    ch: EDGE_MATRICES[a] * EDGE_MATRICES[b]
    for ch, (a, b) in STEP_TO_EDGES.items()}


class StepGroup(namedtuple("StepGroup",
                           "elements step pm shortest orders")):
    """The group generated by the step matrices, as one transition row per
    letter over element indices.  A product elements[i] * elements[j] is
    the walk from i along the letters of shortest[j].

    Element 0 is the identity.  Elements are numbered in the breadth-first
    order in which right-multiplication by the letters XYZxyz first
    reaches them, so shortest[i] is the least word, in length and then in
    letter order, with value elements[i].  Each of elements (the exact
    Mat2), pm (the PMClass), shortest and orders is a tuple over the
    elements; step maps a letter to its row, step[ch][i] = index of
    elements[i] * M(ch).
    """

    __slots__ = ()


def _build_step_group() -> StepGroup:
    # one Mat2 product per (element, letter): 24 x 6 in all
    elements = [IDENTITY]
    index = {IDENTITY: 0}
    shortest = [""]
    rows = {ch: [] for ch in STEP_LETTERS}
    i = 0
    while i < len(elements):
        for ch in STEP_LETTERS:
            m = elements[i] * STEP_MATRICES[ch]
            j = index.setdefault(m, len(elements))
            if j == len(elements):
                elements.append(m)
                shortest.append(shortest[i] + ch)
            rows[ch].append(j)
        i += 1

    def order(i: int) -> int:
        # p * elements[i] is p walked along the letters of shortest[i]
        n, p = 1, i
        while p:
            for ch in shortest[i]:
                p = rows[ch][p]
            n += 1
        return n

    return StepGroup(tuple(elements),
                     {ch: tuple(row) for ch, row in rows.items()},
                     tuple(classify_pm(m) for m in elements),
                     tuple(shortest),
                     tuple(map(order, range(len(elements)))))


STEP_GROUP = _build_step_group()


def eval_word(w: Word) -> Mat2:
    """Exact value of a word: step words by walking STEP_GROUP, edge
    words by Mat2 products."""
    if w.alphabet == "step":
        state, step = 0, STEP_GROUP.step
        for ch in w.letters:
            state = step[ch][state]
        return STEP_GROUP.elements[state]
    m = IDENTITY
    for ch in w.letters:
        m = m * EDGE_MATRICES[ch]
    return m


def eval_letters(letters: str, alphabet: str = "step") -> Mat2:
    return eval_word(Word(alphabet, letters))


def step_to_edge(w: Word) -> Word:
    if w.alphabet != "step":
        raise WordError("step_to_edge expects a step word")
    return Word("edge", "".join(STEP_TO_EDGES[ch] for ch in w.letters))


def edges_to_steps(edges: str) -> str | None:
    """The step letters of a written edge string, two edges at a time, or
    None when its length is odd or some pair is not a step's edge pair."""
    if len(edges) % 2:
        return None
    try:
        return "".join(map(_EDGES_TO_STEP.__getitem__,
                           map(add, edges[::2], edges[1::2])))
    except KeyError:
        return None


def edge_to_step(w: Word) -> tuple[Word, int]:
    """Group an edge word into step letters.

    Boundary words read from an arbitrary starting edge may be off-phase
    by one edge, so grouping is retried once after a cyclic shift by one
    letter; the applied shift (0 or 1) is returned alongside the word.
    """
    if w.alphabet != "edge":
        raise WordError("edge_to_step expects an edge word")
    s = w.letters
    if len(s) % 2:
        raise WordError(f"edge word has odd length {len(s)}")
    for shift in (0, 1):
        steps = edges_to_steps(s[shift:] + s[:shift])
        if steps is not None:
            return Word("step", steps), shift
    i = next(i for i in range(0, len(s), 2)
             if s[i:i + 2] not in _EDGES_TO_STEP)
    raise WordError(
        f"edge pair {s[i:i + 2]!r} at index {i} is not a step move", i)


def _startup_calibration() -> tuple:
    # Bones and snakes must evaluate to I and stones to -I, in both
    # alphabets, an edge word through its step word (equal, or conjugate
    # after the phase shift, and +-I is central); guards STEP_TO_EDGES.
    from . import fixtures
    rows = []
    for name, step_letters in fixtures.TILE_WORDS.items():
        expect = (PMClass.MINUS_IDENTITY if name.startswith("stone")
                  else PMClass.PLUS_IDENTITY)
        got = classify_pm(eval_letters(step_letters))
        if got is not expect:
            raise AssertionError(
                f"composition-order calibration failed on {name}: {got}")
        try:
            got_edge = classify_pm(eval_word(edge_to_step(
                Word("edge", fixtures.TILE_EDGE_WORDS[name]))[0]))
        except WordError as e:
            got_edge = e
        if got_edge is not expect:
            raise AssertionError(
                f"edge-alphabet calibration failed on {name}: {got_edge}")
        rows.append((name, got, got_edge))
    return tuple(rows)


# (tile name, step-word class, edge-word class) of each tile, in catalog
# order; every row has passed the calibration
TILE_CLASSES = _startup_calibration()
