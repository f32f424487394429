"""Computer search for identity relations among the step generators.

The enumeration visits each closure class of cyclically reduced step words
once, at its least member.  That member starts with X, the least letter,
since every class has a member that does (rotate or invert until an
uppercase X exists, then shift it to the front).  So the search grows the
words "X" + w a letter at a time, only along the prefixes a least member
can have, and records a word that evaluates to +-I when no member of its
class sorts before it.  Once a prefix has left its leading run of X, no
letter's run may grow longer than that run: some variant maps the letter
to X, and so has a member that sorts first.  Nor may a run exactly that
long stand next to a letter that this variant maps below the letter
after the lead: that member then starts with the same run of X and
sorts first at the next letter.  The level before the last grows only
the prefixes whose group state some letter closes to +-I, as the others
have no word to record.  The least-member test compares only
the members that start with the word's leading run of X.  One search
runs from X, trying letters in ascending order, so it meets the words
of each length in sorted order (Ruskey, Savage and Wang, "Generating
necklaces", J. Algorithms 1992), and no sort follows.  No closure set
is built; the tests check the output against the former closure-set and
unpruned prenecklace enumerations and a naive oracle.

Words are evaluated on the table of the group the step matrices generate,
words.STEP_GROUP (SL(2,3), order 24, built once at import): the search
steps a word by one lookup per letter, and the group probe walks a
subgroup on the table's rows and reads its element orders from the
table, with no matrix product.  The census grows one flat list of
counts per length over (group element, last letter), and the endpoint
lattice one set of (group element, endpoint) over all words, rather than
visiting the words one by one.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .cyclo import PMClass
from .hexgrid import STEP_DISPLACEMENTS
from .words import (_VARIANT_MAPS, STEP_GROUP, STEP_INVERT, STEP_LETTERS,
                    canonical_representative, check_size, closure_variants,
                    eval_letters, is_least_member, step_word)

# canonical_representative is not called here; it stays importable from
# this module, where the benchmark's tracer wraps it by name

# letters that may stand next to each letter in a freely reduced word
_FOLLOWERS = {last: tuple(ch for ch in STEP_LETTERS
                          if ch != last.translate(STEP_INVERT))
              for last in STEP_LETTERS}
# the letters that may follow, or cyclically precede, a leading X
START_LETTERS = "XYZyz"
# Each letter a is X in one variant, the _VARIANT_MAPS entry whose source
# it is.  _LOSES[a][b]: the letters c whose image in that variant sorts
# before b.  A word X^lead b ... with a run of exactly lead a's next to c
# (after the run for uppercase a, before it for lowercase a, as that
# variant reads the word backwards) has a member X^lead image(c) ..., which
# sorts first if c is in _LOSES[a][b].  _OPENS[c][b]: the lowercase a
# whose lead-long run loses after c.
_LOSES = {src: {b: "".join(ch for ch in STEP_LETTERS
                           if ch.translate(table) < b)
                for b in STEP_LETTERS}
          for src, _, table in _VARIANT_MAPS}
_OPENS = {c: {b: "".join(a for a in "xyz" if c in _LOSES[a][b])
              for b in STEP_LETTERS} for c in STEP_LETTERS}


class RelationRecord(namedtuple("RelationRecord",
                                "representative value length closed")):
    """A closure class's least member, its PMClass value, its length and
    whether its path closes."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"length": self.length, "representative": self.representative,
                "value": self.value.value, "closed": self.closed}

    def jsonl(self) -> str:
        # json.dumps(self.to_json(), sort_keys=True), written out: a step
        # word and a PMClass value need no escapes
        return (f'{{"closed": {"true" if self.closed else "false"}, '
                f'"length": {self.length}, '
                f'"representative": "{self.representative}", '
                f'"value": "{self.value.value}"}}')


class SearchConfig(namedtuple("SearchConfig",
                              "max_word_length partitions")):
    __slots__ = ()

    def __new__(cls, max_word_length: int = 10, partitions: int = 1):
        check_size("max_word_length", max_word_length, 2)
        check_size("partitions", partitions, 1)
        return super().__new__(cls, max_word_length, partitions)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the sizes too
        return cls(*iterable)


def _closes(letters: str) -> bool:
    """Whether a step word's path returns to its start.  The displacements
    of X, Y and Z sum to zero and X, Y are independent, so the path
    closes exactly when #X - #x = #Y - #y = #Z - #z."""
    count = letters.count
    return (count("X") - count("x") == count("Y") - count("y")
            == count("Z") - count("z"))


def enumerate_identity_words(cfg: SearchConfig = SearchConfig()) -> list:
    """Closure classes of cyclically reduced words with value +-I and
    length <= cfg.max_word_length, each once as its least member "X" + w,
    sorted by (length, representative): the search files each record
    under its length, and meets each length's words in that order.  One
    search runs whatever cfg.partitions is; the field is only checked."""
    step, pm = STEP_GROUP.step, STEP_GROUP.pm
    max_word_length = cfg.max_word_length
    # closers[state]: the letters ch, not x, with state * ch * X = +-I,
    # and that value, which "X" + w + ch shares with its shift w + ch + "X"
    closers = [tuple((ch, k) for ch in START_LETTERS
                     for k in (pm[step["X"][step[ch][state]]],)
                     if k is not PMClass.OTHER)
               for state in range(len(pm))]
    by_length = [[] for _ in range(max_word_length + 1)]

    def visit(u: str, state: int, letters, period: int, lead: int,
              run: int):
        # u = "X" + w, state is the value of w and period the length of the
        # longest Lyndon prefix of u.  The least member of a class is a
        # necklace, so only prenecklaces are grown, and u + ch is one iff
        # ch >= floor (Ruskey-Savage-Wang); it is a necklace iff also
        # ch > floor or period divides its length.  lead is the leading
        # run of X in u and run the run of its last letter.  Once the lead
        # has ended, no letter's run may outgrow it: each letter is X in
        # one of the six variants, so a longer run gives a member that
        # starts with more X and sorts first.  A run of exactly lead
        # letters a, not X, loses when its neighbour is in _LOSES[a][b]:
        # an uppercase run as the next letter ends it, a lowercase one as
        # it reaches lead.  barred holds the letters that may not come
        # next, to grow u or to close it; a tie is left to
        # is_least_member.  The children that close are kept, and only
        # those with children of their own are grown: the last level
        # makes no call, and the level before it skips a child whose
        # state no letter closes.
        n, last = len(u), u[-1]
        floor = u[n - period]
        barred = ""
        if lead < n:
            b = u[lead]
            if run == lead:
                barred = last + _LOSES[last][b] if last in "YZ" else last
            if lead == 1:
                barred += _OPENS[last][b]
            elif run + 1 == lead and last in _OPENS[u[n - lead]][b]:
                barred += last
        for ch, k in closers[state]:
            if (ch in letters and ch >= floor and ch not in barred
                    and (ch != floor or (n + 1) % period == 0)
                    and is_least_member(word := u + ch)):
                by_length[n + 1].append(
                    RelationRecord(word, k, n + 1, _closes(word)))
        if n + 2 <= max_word_length:
            deepest = n + 2 == max_word_length
            for ch in letters:
                if ch >= floor and ch not in barred:
                    child = step[ch][state]
                    if deepest and not closers[child]:
                        continue
                    visit(u + ch, child, _FOLLOWERS[ch],
                          period if ch == floor else n + 1,
                          lead + 1 if lead == n and ch == "X" else lead,
                          run + 1 if ch == last else 1)

    visit("X", 0, START_LETTERS, 1, 1, 1)
    # visit refers to itself through its closure; breaking that cycle lets
    # reference counting free it, with the collector paused
    del visit
    return [record for level in by_length for record in level]


class Reduction(namedtuple("Reduction", "survivors casualties")):
    """Outcome of shortening the relation list by earlier relations: a
    tuple of surviving RelationRecords, and one of casualties, each a
    (RelationRecord, factor, source_representative)."""

    __slots__ = ()


def _windows(letters: str, h: int) -> set:
    """The cyclic windows of length h of the word itself."""
    doubled = letters + letters
    return {doubled[i:i + h] for i in range(len(letters))}


def reduce_relation_list(records) -> Reduction:
    """Accept a record only if no member of its closure contains a factor
    longer than half the length of a previously accepted relation.  The
    records are read once, so any iterable will do; they must be sorted
    shortest-first, by (length, representative), and may repeat, and the
    first pair out of order raises ValueError.  Each casualty reports the
    factor and the accepted relation that produced it: the earliest such
    relation, and the least factor shared with it.

    That factor has h = length // 2 + 1 letters, for the length of the
    relation.  A longer shared factor starts with a shared one of length h,
    which sorts first; and had an earlier relation shared that window, it
    would have been the earliest.  So each accepted relation keeps one set,
    its cyclic windows of length h under the six rotations and inversions.
    The set is closed under those, so a record tests only its own windows,
    built once for each distinct h.  The set is kept as a dict from each
    variant to the least variant of its window's orbit, which is the same
    for every member of that orbit, so the factor is the least value of a
    shared window."""
    accepted = []  # of (h, {window variant: least variant}, representative)
    survivors = []
    casualties = []
    last = (0, "")
    for record in records:
        w = record.representative
        if (record.length, w) < last:
            raise ValueError("records must be sorted shortest-first")
        last = record.length, w
        own = {}  # h -> the record's windows of length h
        for h, windows, source in accepted:
            if h not in own:
                own[h] = _windows(w, h)
            shared = own[h] & windows.keys()
            if shared:
                factor = min(windows[window] for window in shared)
                casualties.append((record, factor, source))
                break
        else:
            survivors.append(record)
            if len(w) > 1:  # factors have at least two letters
                h = len(w) // 2 + 1
                least = {}
                for window in _windows(w, h):
                    orbit = tuple(closure_variants(window))
                    least.update(dict.fromkeys(orbit, min(orbit)))
                accepted.append((h, least, w))
    return Reduction(tuple(survivors), tuple(casualties))


def verify_reduction_table() -> list:
    """Check the seven reduction identities eval(lhs) = -eval(rhs)."""
    from .fixtures import REDUCTION_IDENTITIES
    out = []
    for lhs, rhs in REDUCTION_IDENTITIES:
        holds = eval_letters(lhs) == -eval_letters(rhs)
        out.append({"lhs": lhs, "rhs": f"-{rhs}", "holds": holds})
    return out


class GroupProbeResult(namedtuple("GroupProbeResult",
                                  "order bound element_orders")):
    """order is None when the bound was exceeded; element_orders is a
    tuple of (order, count), when the order is finite."""

    __slots__ = ()

    @property
    def bound_exceeded(self) -> bool:
        return self.order is None

    def to_json(self) -> dict:
        if self.bound_exceeded:
            return {"result": "BoundExceeded", "bound": self.bound}
        return {"result": "FiniteOrder", "order": self.order,
                "element_orders": [list(p) for p in self.element_orders]}


def group_closure_probe(letters: str,
                        bound: int = 10 ** 6) -> GroupProbeResult:
    """The subgroup of STEP_GROUP generated by the step letters, by a
    breadth-first walk over element indices along the rows of the letters
    and their inverses; stops (BoundExceeded) once more than `bound`
    elements appear, whatever the order of the walk.  Element orders are
    read from STEP_GROUP.orders."""
    step_word(letters)  # names a non-string, or a letter outside XYZxyz
    check_size("bound", bound, 1)
    rows = [STEP_GROUP.step[ch]
            for ch in letters + letters.translate(STEP_INVERT)]
    seen = {0}
    queue = [0]
    for i in queue:  # the queue grows while it is read
        for row in rows:
            j = row[i]
            if j not in seen:
                if len(seen) >= bound:
                    return GroupProbeResult(None, bound, ())
                seen.add(j)
                queue.append(j)
    orders = Counter(STEP_GROUP.orders[i] for i in queue)
    return GroupProbeResult(len(seen), bound, tuple(sorted(orders.items())))


def identity_endpoint_lattice(max_length: int, sign: str = "both") -> list:
    """Endpoints (relative to the origin) of every word of length up to
    max_length whose value matches the sign filter ("+I", "-I", "both").
    One set of (element, u, v) grows by a letter per length, over all
    words: a word ends where its free reduction does, with the same value,
    and the reduction is no longer, so the reduced words reach the same
    set.  Its size is polynomial in the length."""
    if sign not in ("+I", "-I", "both"):
        raise ValueError(f"bad sign filter {sign!r}")
    check_size("max_length", max_length, 0)
    wanted = {"+I": {PMClass.PLUS_IDENTITY},
              "-I": {PMClass.MINUS_IDENTITY},
              "both": {PMClass.PLUS_IDENTITY, PMClass.MINUS_IDENTITY}}[sign]
    pm = STEP_GROUP.pm
    moves = [(STEP_GROUP.step[ch], du, dv)
             for ch, (du, dv) in STEP_DISPLACEMENTS.items()]
    seen = frontier = {(0, 0, 0)}
    for _ in range(max_length):
        frontier = {(row[s], u + du, v + dv) for s, u, v in frontier
                    for row, du, dv in moves} - seen
        seen |= frontier
    return sorted({(u, v) for s, u, v in seen if pm[s] in wanted})


# --- word census ------------------------------------------------------------

class CensusReport(namedtuple("CensusReport",
                              "max_length counts group_size shortest_words")):
    """Per-length counts of cyclically reduced identity words ending in X,
    from one transfer-matrix pass over the step group, as a tuple of
    (length, plus_count, minus_count), plus a shortest word of each group
    element, as a tuple of (word, PMClass)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "max_length": self.max_length,
            "counts": [{"length": n, "plus": p, "minus": m}
                       for n, p, m in self.counts],
            "group_size": self.group_size,
            "shortest_words": [{"word": w, "class": k.value}
                               for w, k in self.shortest_words],
        }


def identity_word_census(max_length: int = 16) -> CensusReport:
    """Count the identity words of each total length up to max_length.

    The words are w + "X" with w reduced, neither starting nor ending in
    "x".  One transfer-matrix pass grows the prefixes w a letter at a
    time, as a flat list of counts over the 144 indices
    6 * element + letter of their value and last letter, and counts at
    every length the prefixes that X takes to +-I.  Only the current
    frontier is kept.  The tests compare the counts with a per-length
    Mat2 recount and a brute force, and the benchmark recomputes them
    from its own group.
    """
    check_size("max_length", max_length, 2)
    step, pm = STEP_GROUP.step, STEP_GROUP.pm
    index = {ch: i for i, ch in enumerate(STEP_LETTERS)}
    # sources[6 * element + letter]: the five indices that one more letter
    # takes to it, whose own last letters may stand before that letter
    back = [(step[ch.translate(STEP_INVERT)],
             [index[last] for last in _FOLLOWERS[ch]]) for ch in STEP_LETTERS]
    sources = [[6 * row[state] + i for i in lasts]
               for state in range(len(pm)) for row, lasts in back]
    # the indices, not ending in x, that X takes to +I and to -I
    to_x = step["X"]
    ends = [[6 * state + index[last] for state in range(len(pm))
             if pm[to_x[state]] is k for last in START_LETTERS]
            for k in (PMClass.PLUS_IDENTITY, PMClass.MINUS_IDENTITY)]
    prefixes = [0] * len(sources)
    for ch in START_LETTERS:
        prefixes[6 * step[ch][0] + index[ch]] = 1
    counts = []
    for n in range(1, max_length):  # prefix length; total n + 1
        if n > 1:
            prefixes = [prefixes[a] + prefixes[b] + prefixes[c] + prefixes[d]
                        + prefixes[e] for a, b, c, d, e in sources]
        counts.append((n + 1, *(sum(prefixes[i] for i in end)
                                for end in ends)))

    # the group's breadth-first numbering is the shortlex order of these
    return CensusReport(max_length, tuple(counts), len(STEP_GROUP.elements),
                        tuple(zip(STEP_GROUP.shortest, pm)))
