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
* Step matrices: M(X) = beta*alpha, M(Y) = alpha^-1*gamma and
  M(Z) = gamma^-1*beta^-1.  The pair order inside M(Z) is pinned by the
  tile calibration suite (all bone/snake boundary words must evaluate to I
  and both stone words to -I, in both alphabets); the suite is asserted
  once at import via fixtures.TILE_WORDS, and its rows are kept as
  TILE_CLASSES.
* The step matrices generate SL(2,3), of order 24, tabulated once at
  import as STEP_GROUP from exact Mat2 products; step words evaluate by
  one table lookup per letter.  Edge words stay on Mat2 products, since
  alpha, beta and gamma generate an infinite group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import (ALPHA, BETA, GAMMA, IDENTITY, Mat2, PMClass, classify_pm)

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


def check_size(name: str, value, low: int) -> None:
    """The library's one rule for a size argument: exactly an int (a bool
    or a float is refused, never coerced), and at least `low`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class Word:
    """A sequence of letters over one alphabet, stored as a plain string."""

    alphabet: str  # "step" | "edge"
    letters: str

    def __post_init__(self):
        if self.alphabet not in ("step", "edge"):
            raise WordError(f"unknown alphabet {self.alphabet!r}")
        if (isinstance(self.letters, str)
                and _LETTER_SETS[self.alphabet].issuperset(self.letters)):
            return  # one set test; the scan below only names the fault
        allowed = STEP_LETTERS if self.alphabet == "step" else EDGE_LETTERS
        for i, ch in enumerate(self.letters):
            if ch not in allowed:
                raise WordError(
                    f"invalid {self.alphabet} letter {ch!r} at index {i}", i)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


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


@dataclass(frozen=True)
class ClosureClass:
    """All cyclic permutations, 120-degree rotations and inverses of a word.

    The representative is the lexicographically least member under the
    plain string order of the letters X < Y < Z < x < y < z.
    """

    representative: Word
    members: frozenset

    def __contains__(self, w) -> bool:
        letters = w.letters if isinstance(w, Word) else w
        return letters in self.members


def closure_variants(letters: str):
    """The six words whose cyclic shifts make up the closure class: the
    word and its two 120-degree rotations, each followed by its inverse."""
    base = letters
    for _ in range(3):
        yield base
        yield base[::-1].translate(STEP_INVERT)
        base = base.translate(_STEP_ROTATE)


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

    A member starts at some position of one of the six variants, and only
    the members that start with X can be less than a word that does; a
    word that does not start with X is beaten by any that does.  The
    comparisons stop at the first smaller member."""
    n = len(letters)
    for var in closure_variants(letters):
        doubled = var + var
        i = var.find("X")
        while i >= 0:
            if doubled[i:i + n] < letters:
                return False
            i = var.find("X", i + 1)
    return True


# letter -> matrix, words multiply left-to-right
STEP_MATRICES: dict[str, Mat2] = {
    "X": BETA * ALPHA,
    "Y": ALPHA.inv() * GAMMA,
    "Z": GAMMA.inv() * BETA.inv(),
}
STEP_MATRICES["x"] = STEP_MATRICES["X"].inv()
STEP_MATRICES["y"] = STEP_MATRICES["Y"].inv()
STEP_MATRICES["z"] = STEP_MATRICES["Z"].inv()

EDGE_MATRICES: dict[str, Mat2] = {
    "A": ALPHA, "B": BETA, "G": GAMMA,
    "a": ALPHA.inv(), "b": BETA.inv(), "g": GAMMA.inv(),
}


@dataclass(frozen=True)
class StepGroup:
    """The group generated by the step matrices, as one transition row per
    letter over element indices.  A product elements[i] * elements[j] is
    the walk from i along the letters of shortest[j].

    Element 0 is the identity.  Elements are numbered in the breadth-first
    order in which right-multiplication by the letters XYZxyz first
    reaches them, so shortest[i] is the least word, in length and then in
    letter order, with value elements[i].
    """

    elements: tuple  # exact Mat2 of each element
    step: dict  # letter -> row: step[ch][i] = index of elements[i] * M(ch)
    pm: tuple  # PMClass of each element
    shortest: tuple  # shortest word of each element


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
    return StepGroup(tuple(elements),
                     {ch: tuple(row) for ch, row in rows.items()},
                     tuple(classify_pm(m) for m in elements),
                     tuple(shortest))


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


# step letter -> written edge pair (left-to-right composition order)
STEP_TO_EDGES = {"X": "BA", "Y": "aG", "Z": "gb",
                 "x": "ab", "y": "gA", "z": "BG"}
_EDGES_TO_STEP = {v: k for k, v in STEP_TO_EDGES.items()}


def step_to_edge(w: Word) -> Word:
    if w.alphabet != "step":
        raise WordError("step_to_edge expects a step word")
    return Word("edge", "".join(STEP_TO_EDGES[ch] for ch in w.letters))


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
    first_error = None
    for shift in (0, 1):
        shifted = s[shift:] + s[:shift]
        steps = []
        for i in range(0, len(shifted), 2):
            pair = shifted[i:i + 2]
            step = _EDGES_TO_STEP.get(pair)
            if step is None:
                if first_error is None:
                    first_error = WordError(
                        f"edge pair {pair!r} at index {i} is not a step move", i)
                break
            steps.append(step)
        else:
            return Word("step", "".join(steps)), shift
    raise first_error


def _startup_calibration() -> tuple:
    # Bones and snakes must evaluate to I and stones to -I, in both
    # alphabets; guards the composition-order convention above.
    from . import fixtures
    rows = []
    for name, step_letters in fixtures.TILE_WORDS.items():
        expect = (PMClass.MINUS_IDENTITY if name.startswith("stone")
                  else PMClass.PLUS_IDENTITY)
        got = classify_pm(eval_letters(step_letters))
        if got is not expect:
            raise AssertionError(
                f"composition-order calibration failed on {name}: {got}")
        got_edge = classify_pm(eval_letters(
            fixtures.TILE_EDGE_WORDS[name], "edge"))
        if got_edge is not expect:
            raise AssertionError(
                f"edge-alphabet calibration failed on {name}: {got_edge}")
        rows.append((name, got, got_edge))
    return tuple(rows)


# (tile name, step-word class, edge-word class) of each tile, in catalog
# order; every row has passed the calibration
TILE_CLASSES = _startup_calibration()
