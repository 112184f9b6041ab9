"""Decreasing diagrams for branchings under a well-founded labelling.

A decreasing diagram for a local branching (f, g) closes it with
``f . f' . g'' . h1 = g . g' . f'' . h2`` where the labels of f' sit
strictly below the label of f, those of g' below the label of g, f'' and
g'' are at most one step carrying exactly the opposite label, and every
label of h1, h2 sits below one of the two.  A diagram with its
``strict`` field set has only f' and g', every label of f' strictly below
the label of f and every label of g' below that of g.

The search and the audits share two routines: ``_read_pair`` labels one
completion pair, whiskered by a context without building it when asked,
which ``_strict`` and ``_first_splits`` read as a strict or a decreasing
diagram, and ``_context_audit`` is the one loop over contexts, in which
each audit is a predicate on an unwhiskered item and a context.  Under qnf
labels the context audit of ``complete`` rests on the qnf geodesic lemma
(``_qnf_closes``): a branching whose two targets are mapped to one
quasi-normal form, as is every word on their geodesics to it (the
premise, shown by mapping the form's whole explored class to it), closes
strictly by those geodesics, however long.  Every audit reports an
``Audit``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

from .core import Polygraph, Word, all_words, word_str
from .branchings import ASPHERICAL, LocalBranching
from .engine import (IllComposed, Path, ReductionGraph, RewriteStep,
                     TruncatedRegion, Unreachable, redexes)
from .labelling import (Labelling, LabellingError, MissingLabel, NF, QNF,
                        TABLE, label_key, label_path, label_step,
                        label_target, least_qnf)

# the default bounds of the audits: the total length of the contexts the
# context audits whisker by, and the length of the words whose Peiffer
# branchings the Peiffer audit decides
CTX_BOUND = 2
PEIFFER_LEN_BOUND = 6
# the lemmas the audits rest on under Labelling.whisker_stable
CONTEXT_LEMMA = "the contexts past the empty one follow by whiskering"
PEIFFER_LEMMA = "every square closes by its plain confluence"


class SearchExhausted(Exception):
    """The bounded search failed."""


class MeasureError(AssertionError):
    """A recursive call failed the strict measure-decrease invariant."""


@dataclass(frozen=True)
class DecreasingDiagram:
    """A closure of a local branching (f, g) cut into the parts of a
    decreasing diagram (_cut).  A ``strict`` one has g'', h1, f'' and h2
    empty, and is found with every label of f' strictly below the label of
    f and every label of g' below that of g."""

    branching: LocalBranching
    f_prime: Path
    g_dprime: Path
    h1: Path
    g_prime: Path
    f_dprime: Path
    h2: Path
    strict: bool = False

    @property
    def left_side(self) -> Path:
        f = self.branching.first
        return (Path(f.source, (f,)).compose(self.f_prime)
                .compose(self.g_dprime).compose(self.h1))

    @property
    def right_side(self) -> Path:
        g = self.branching.second
        return (Path(g.source, (g,)).compose(self.g_prime)
                .compose(self.f_dprime).compose(self.h2))

    @property
    def completions(self) -> tuple[Path, Path]:
        """The paths that close the branching after its first and after its
        second step: f' . g'' . h1 and g' . f'' . h2."""
        if self.strict:
            return self.f_prime, self.g_prime
        return (self.f_prime.compose(self.g_dprime).compose(self.h1),
                self.g_prime.compose(self.f_dprime).compose(self.h2))


@dataclass(frozen=True)
class Violation:
    condition: str
    detail: str


def _boundary_violation(d) -> Violation | None:
    """Why the two sides of a diagram do not close, None when they do."""
    try:
        if d.left_side.target == d.right_side.target:
            return None
        return Violation("boundary", "the two sides end on different words")
    except IllComposed as e:
        return Violation("boundary", str(e))


def _side_violations(lab: Labelling, g: ReductionGraph, d, psi_f, psi_g
                     ) -> list[Violation]:
    """Conditions i and ii: every label of f' below psi(f) and every label
    of g' below psi(g)."""
    less = lab.order.less
    return [Violation(cond, f"label {k!r} of {name} is not below {psi!r}")
            for cond, psi, side, name in (("i", psi_f, d.f_prime, "f'"),
                                          ("ii", psi_g, d.g_prime, "g'"))
            for k in label_path(lab, g, side) if not less(k, psi)]


def check_strict(lab: Labelling, g: ReductionGraph, d
                 ) -> tuple[bool, list[Violation]]:
    """The boundary and conditions i and ii of check_decreasing, all that a
    diagram with its ``strict`` field set has to meet."""
    v = _boundary_violation(d)
    if v is not None:
        return False, [v]
    b = d.branching
    violations = _side_violations(lab, g, d, label_step(lab, g, b.first),
                                  label_step(lab, g, b.second))
    return not violations, violations


def check_decreasing(lab: Labelling, g: ReductionGraph, d
                     ) -> tuple[bool, list[Violation]]:
    """Check the decreasingness conditions of a diagram: the boundary,
    conditions i and ii (check_strict) and iii to v.  Those three hold
    trivially on empty parts, so on a diagram with its ``strict`` field set
    it returns what check_strict returns."""
    v = _boundary_violation(d)
    if v is not None:
        return False, [v]
    psi_f = label_step(lab, g, d.branching.first)
    psi_g = label_step(lab, g, d.branching.second)
    violations = _side_violations(lab, g, d, psi_f, psi_g)
    for cond, dprime, psi, name in (("iii", d.f_dprime, psi_f, "f''"),
                                    ("iv", d.g_dprime, psi_g, "g''")):
        if len(dprime) > 1:
            violations.append(Violation(cond,
                                        f"{name} has more than one step"))
        elif dprime.steps:
            k = label_step(lab, g, dprime.steps[0])
            if k != psi:
                violations.append(Violation(
                    cond, f"{name} carries {k!r}, expected {psi!r}"))
    less = lab.order.less
    for k in (label_path(lab, g, d.h1) + label_path(lab, g, d.h2)):
        if not (less(k, psi_f) or less(k, psi_g)):
            violations.append(Violation(
                "v", f"residual label {k!r} below neither "
                     f"{psi_f!r} nor {psi_g!r}"))
    return not violations, violations


# ---------------------------------------------------------------------------
# audit results and the budget cuts behind them


OK, VIOLATION, UNVERIFIED = "ok", "violation", "unverified"


@dataclass
class Audit:
    """One audit's result.  Of the ``checked`` checks, ``counts`` holds how
    many read a violation or unverified (missing data left them open), and
    ``firsts`` the first (witness in JSON form, governing option) of each.
    ``detail`` holds the audit's own keys."""

    checked: int = 0
    detail: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    firsts: dict = field(default_factory=dict)

    def add(self, status: str, first) -> None:
        """Count a check that read ``status``; ``first()`` gives the
        (witness, option) of the first one, and is called for it only."""
        if status not in self.firsts:
            self.firsts[status] = first()
        self.counts[status] += 1

    @property
    def status(self) -> str:
        return audit_status((self,))

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def witness(self) -> dict | None:
        return self.firsts.get(self.status, (None, None))[0]

    @property
    def option(self) -> str | None:
        return self.firsts.get(self.status, (None, None))[1]

    def __len__(self):
        return self.checked


def audit_status(audits) -> str:
    """The fold of audits' counts: violation when a check reads it, else
    unverified when one does, else ok."""
    total = sum((a.counts for a in audits), Counter())
    return next((s for s in (VIOLATION, UNVERIFIED) if total[s]), OK)


def left_out(g: ReductionGraph, u: Word) -> tuple[str, str | None] | None:
    """Why the budget left the word u out of the explored words, or left it
    incomplete, and the option behind it; None when u is complete."""
    if g.is_complete(u):
        return None
    if u in g.vertices:
        option = g.cut_by(u)
        return f"{word_str(u)} is left incomplete by {option}", option
    if len(u) > g.budget.max_word_len:
        return f"{word_str(u)} is longer than --max-word-len", "--max-word-len"
    option = ("--max-states" if len(g.vertices) >= g.budget.max_states
              else None)
    return (f"{word_str(u)} was not explored"
            + (f" within {option}" if option else "")), option


def closure_cut(g: ReductionGraph, b: LocalBranching
                ) -> tuple[str, str | None] | None:
    """Why a closure of b may be missing (left_out): the budget cut its
    source, or a word one of its targets reaches; None when it cut none."""
    for u in ((b.source,) if not g.is_complete(b.source)
              else (b.first.target, b.second.target)):
        cut = g.first_cut(u)
        if cut is not None:
            return left_out(g, cut)
    return None


def governing_option(lab: Labelling, g: ReductionGraph, b: LocalBranching,
                     error) -> str | None:
    """The option that governs a check of b that ``error`` left
    unverified: --label-table for a table's label error, else the one
    behind the first word a closure of b may need that the budget cut
    (closure_cut), else --qnf-map under qnf labels."""
    if lab.kind == TABLE and not isinstance(error, TruncatedRegion):
        return "--label-table"
    cut = closure_cut(g, b)
    return cut[1] if cut else ("--qnf-map" if lab.kind == QNF else None)


# ---------------------------------------------------------------------------
# searching for diagrams


# the longest normalization _greedy_normalize follows, and the most
# completion paths _paths_from lists out of one word
NORMALIZE_STEPS = 10000
PATHS_CAP = 2000


def _greedy_normalize(g: ReductionGraph, u: Word) -> Path:
    """Leftmost-redex, first-rule normalization inside the explored graph.
    It builds only the step it takes out of each word, not the word's step
    row."""
    p = g.polygraph
    steps = []
    at = u
    for _ in range(NORMALIZE_STEPS):
        if not g.is_complete(at):
            raise TruncatedRegion(
                f"{word_str(at)} is incomplete in the explored graph")
        found = redexes(p, at)
        if not found:
            return Path._checked(u, tuple(steps))
        pos, end, rule = found[0]
        s = RewriteStep(at[:pos], rule, at[end:])
        steps.append(s)
        at = s.target
    raise SearchExhausted("normalization did not terminate "
                          f"within {NORMALIZE_STEPS} steps")


def canonical_target(lab: Labelling, g: ReductionGraph, w: Word) -> Word:
    """The word sphere filling closes w onto: its chosen quasi-normal form
    when a qnf labelling maps it, its normal form under the nf labelling,
    else its least quasi-normal form (least_qnf)."""
    if lab.kind == QNF and lab.qnf_map and w in lab.qnf_map:
        return lab.qnf_map[w]
    if lab.kind == NF:
        return _greedy_normalize(g, w).target
    hat = least_qnf(g, w)
    if hat is None:
        raise Unreachable(f"no quasi-normal form reachable from "
                          f"{word_str(w)}")
    return hat


def _strict_candidates(lab: Labelling, g: ReductionGraph, tf: Word, tg: Word):
    """Candidate strict closures (pairs of completion paths) to a shared
    word, most promising first."""
    if lab.kind == QNF and lab.qnf_map and tf in lab.qnf_map:
        hat = lab.qnf_map[tf]
        try:
            yield g.geodesic(tf, hat), g.geodesic(tg, hat)
        except (Unreachable, TruncatedRegion):
            pass
    if lab.kind == NF:
        try:
            yield _greedy_normalize(g, tf), _greedy_normalize(g, tg)
        except (TruncatedRegion, SearchExhausted):
            pass
    try:
        from_f, from_g = g.reachable(tf), g.reachable(tg)
    except TruncatedRegion:
        return
    ranked = sorted(from_f.keys() & from_g.keys(),
                    key=lambda w: (from_f[w] + from_g[w], len(w), w))
    for w in ranked[:16]:
        try:
            yield g.geodesic(tf, w), g.geodesic(tg, w)
        except (Unreachable, TruncatedRegion):
            continue


def _paths_from(g: ReductionGraph, u: Word, depth: int) -> list[Path]:
    """All forward paths from u up to the given length, BFS order, the
    first PATHS_CAP of them."""
    out = [Path(u)]
    frontier = [Path(u)]
    for _ in range(depth):
        nxt = []
        for path in frontier:
            if path.target not in g.vertices:
                continue
            for s in g.steps_from(path.target):
                q = Path._checked(u, path.steps + (s,))
                nxt.append(q)
                out.append(q)
                if len(out) >= PATHS_CAP:
                    return out
        frontier = nxt
    return out


def _first_split(labels, top, other, order):
    """The first (i, j) reading labels[:i] as a path below ``top``, the
    next j <= 1 labels as one step labelled ``other``, and the rest as
    below one of the two; None when there is none."""
    n = len(labels)
    rest_ok = [True] * (n + 1)
    for i in range(n - 1, -1, -1):
        k = labels[i]
        rest_ok[i] = rest_ok[i + 1] and (order.less(k, top)
                                         or order.less(k, other))
    for i in range(n + 1):
        if i and not order.less(labels[i - 1], top):
            return None
        if rest_ok[i]:
            return i, 0
        if i < n and labels[i] == other and rest_ok[i + 1]:
            return i, 1
    return None


def _read_pair(lab, g, b: LocalBranching, c1: Path, c2: Path,
               u1: Word = (), u2: Word = ()):
    """psi(f), psi(h) and the labels of c1 and c2, each whiskered by the
    context (u1, u2), labelled in this order, the order in which
    check_strict labels them; None when the pair does not close the
    branching: c1 continues f, c2 continues h and both end on one word.
    Each step is labelled as label_step labels it whiskered, from its key
    under a table and else from its target, without building it.  Raises
    what labelling the steps raises."""
    if (c1.source != b.first.target or c2.source != b.second.target
            or c1.target != c2.target):
        return None
    if lab.kind == TABLE:
        def label(s):
            return label_key(lab, (u1 + s.left, s.rule.name, s.right + u2))
    else:
        def label(s):
            return label_target(lab, g, u1 + (s.target if s.forward
                                              else s.source) + u2)
    return (label(b.first), label(b.second), tuple(map(label, c1.steps)),
            tuple(map(label, c2.steps)))


def _first_splits(order, labels):
    """The splits ((i1, j1), (i2, j2)) reading a completion pair as the
    parts of a decreasing diagram, from the labels of ``_read_pair``: c1 as
    f' . g'' . h1 with f' its first i1 steps and g'' the next j1, and c2 as
    g' . f'' . h2 likewise.  The conditions on each side depend only on that
    side's split, so the first split of each that passes gives the first
    diagram that passes check_decreasing, which tries the splits of c1 in
    the outer loop; None when there is none.  A pair that reads strict
    always has one, (0, 0) on each side."""
    psi_f, psi_g, l1, l2 = labels
    splits = (_first_split(l1, psi_f, psi_g, order),
              _first_split(l2, psi_g, psi_f, order))
    return None if None in splits else splits


def _cut(b: LocalBranching, p1: Path, p2: Path, splits=None
         ) -> DecreasingDiagram:
    """The decreasing diagram that cuts the completion pair at the splits
    of ``_first_splits``; with no splits, the strict diagram whose f' is p1
    and g' is p2."""
    if splits is None:
        end1, end2 = Path._checked(p1.target), Path._checked(p2.target)
        return DecreasingDiagram(b, p1, end1, end1, p2, end2, end2, True)
    (i1, j1), (i2, j2) = splits
    s1, s2 = p1.steps, p2.steps
    f_prime = Path._checked(p1.source, s1[:i1])
    g_dprime = Path._checked(f_prime.target, s1[i1:i1 + j1])
    g_prime = Path._checked(p2.source, s2[:i2])
    f_dprime = Path._checked(g_prime.target, s2[i2:i2 + j2])
    return DecreasingDiagram(b, f_prime, g_dprime,
                             Path._checked(g_dprime.target, s1[i1 + j1:]),
                             g_prime, f_dprime,
                             Path._checked(f_dprime.target, s2[i2 + j2:]))


def _strict(order, labels) -> bool:
    """The strictness predicate on the labels of ``_read_pair``: every
    label of c1 below psi(f) and every label of c2 below psi(h), as
    check_strict reads a local branching."""
    psi_f, psi_h, l1, l2 = labels
    less = order.less
    return (all(less(k, psi_f) for k in l1)
            and all(less(k, psi_h) for k in l2))


def reads_strict(lab: Labelling, g: ReductionGraph, b: LocalBranching,
                 c_f: Path, c_h: Path) -> bool:
    """Whether the completions close the branching strictly; a closure
    whose steps cannot all be labelled is not strict."""
    try:
        labels = _read_pair(lab, g, b, c_f, c_h)
    except (LabellingError, TruncatedRegion):
        return False
    return labels is not None and _strict(lab.order, labels)


def find_decreasing(lab: Labelling, g: ReductionGraph, b: LocalBranching,
                    depth: int = 8, strict: bool = False):
    """Search for a diagram closing the local branching: strict closures
    first (geodesics to the chosen quasi-normal form, or normalization for
    the normal-form labelling), then, unless ``strict``, general decreasing
    shapes over bounded completion pairs.  Returns None when the bounded
    search finds nothing.  Strict candidates are read at any length;
    ``depth`` bounds the completion paths of the general search only."""
    if b.kind == ASPHERICAL:
        return _cut(b, Path(b.first.target), Path(b.second.target))
    tf, tg = b.first.target, b.second.target
    for p1, p2 in _strict_candidates(lab, g, tf, tg):
        try:
            labels = _read_pair(lab, g, b, p1, p2)
        except MissingLabel:
            continue
        if labels is not None and _strict(lab.order, labels):
            return _cut(b, p1, p2)
    if strict:
        return None
    lefts = _paths_from(g, tf, depth)
    rights = _paths_from(g, tg, depth)
    by_target: dict[Word, list[Path]] = {}
    for q in rights:
        by_target.setdefault(q.target, []).append(q)
    pairs = [(p, q) for p in lefts for q in by_target.get(p.target, ())]
    pairs.sort(key=lambda pq: len(pq[0]) + len(pq[1]))
    for p, q in pairs:
        try:
            labels = _read_pair(lab, g, b, p, q)
        except MissingLabel:
            continue
        splits = labels and _first_splits(lab.order, labels)
        if splits:
            return _cut(b, p, q, splits)
    return None


# ---------------------------------------------------------------------------
# Peiffer branchings and their variants


def _oriented(b: LocalBranching) -> tuple:
    """The Peiffer square of b as the audit enumerates its squares: whether
    b lists its right step first, then the redexes (position, end, rule) of
    the left step f and of the right step h."""
    f, h = b.first, b.second
    swap = f.position > h.position
    if swap:
        f, h = h, f
    fe = f.position + len(f.rule.lhs)
    if fe > h.position:
        raise ValueError("not a Peiffer branching")
    return (swap, (f.position, fe, f.rule),
            (h.position, h.position + len(h.rule.lhs), h.rule))


def _square(p: Polygraph, u: Word, f: tuple, h: tuple) -> tuple:
    """The eight forward steps of the Peiffer square at u of the redexes f
    and h (each (position, end, rule), f left of h): each (left, rule,
    right), with rule None when it needs a missing reverse rule, numbered
    as the variants refer to them: 0 f and 1 h out of u, 2 h after f and 3
    f after h into the word where both are applied, 4 f undone after f and
    5 h undone after h back into u, and 6 f undone after 3 and 7 h undone
    after 2."""
    (fp, fe, f_rule), (hp, he, h_rule) = f, h
    reverse = p.reverse_rules
    rf, rh = reverse[f_rule.name], reverse[h_rule.name]
    f_left, f_right, h_left, h_right = u[:fp], u[fe:], u[:hp], u[he:]
    h_after = f_left + f_rule.rhs + u[fe:hp]
    f_after = u[fe:hp] + h_rule.rhs + h_right
    return ((f_left, f_rule, f_right), (h_left, h_rule, h_right),
            (h_after, h_rule, h_right), (f_left, f_rule, f_after),
            (f_left, rf, f_right), (h_left, rh, h_right),
            (f_left, rf, f_after), (h_after, rh, h_right))


def _variant_shapes(has_rf: bool, has_rh: bool):
    """The variants of a Peiffer square in the order they are read: the
    Peiffer confluence itself and its three rotations through the reverse
    rules the square has.  Each is its name, the steps of its completions
    from f.target and from h.target and its witness loops, each step given
    by its number in _square; a witness loop is two steps."""
    yield "peiffer", (2,), (3,), ()
    if has_rf and has_rh:
        # undo each side, meeting back at the source
        yield "reverse_both", (4,), (5,), ((0, 4), (1, 5))
    if has_rf:
        # go around through the Peiffer target, then undo the first rule
        yield "around_left", (2, 6), (), ((3, 6),)
    if has_rh:
        yield "around_right", (), (3, 7), ((2, 7),)


def peiffer_variants(p: Polygraph, b: LocalBranching):
    """Closures of a Peiffer branching that are candidates for a decreasing
    diagram: the Peiffer confluence itself and its three rotations through
    reverse rules (when the reverse rules exist).

    Yields (name, c_f, c_h, witness_loops) where c_f, c_h complete the two
    sides and witness_loops are the forward loops whose contractions attest
    that the closed diagram bounds the same 2-sphere as the Peiffer square:
    loops at the source, one per step and in the order of the steps, or
    one detour loop at the target of the step whose completion is empty.
    """
    swap, *pair = _oriented(b)
    square = _square(p, b.source, *pair)
    f, h = (b.second, b.first) if swap else (b.first, b.second)
    steps = [f, h] + [None if rule is None
                      else RewriteStep(left, rule, right, True)
                      for left, rule, right in square[2:]]
    tf, th = f.target, h.target
    for name, cf, ch, loops in _variant_shapes(square[4][1] is not None,
                                               square[5][1] is not None):
        c_f = Path._checked(tf, tuple(steps[i] for i in cf))
        c_h = Path._checked(th, tuple(steps[i] for i in ch))
        witnesses = [Path._checked(steps[i].source, (steps[i], steps[j]))
                     for i, j in loops]
        yield ((name, c_h, c_f, witnesses[::-1]) if swap
               else (name, c_f, c_h, witnesses))


class _PeifferMemo:
    """What deciding Peiffer branchings under one labelling learns once: the
    label of each word, or of each step key under a table labelling, that a
    square reads, or the error labelling it raises, and the decision on
    each square's labels when none is an error (decide)."""

    def __init__(self, lab: Labelling, g: ReductionGraph, p: Polygraph):
        self.polygraph = p
        self.order = lab.order
        self.table = lab.kind == TABLE
        self._label = (partial(label_key, lab) if self.table
                       else partial(label_target, lab, g))
        self.labels: dict = {}
        self.decisions: dict = {}

    def label(self, x):
        """The label of a word or step key, or the error labelling it
        raises."""
        if x not in self.labels:
            try:
                self.labels[x] = self._label(x)
            except (LabellingError, TruncatedRegion) as e:
                # no traceback: its frames would hold this memo alive
                self.labels[x] = e.with_traceback(None)
        return self.labels[x]

    def decide(self, u: Word, found: list, pairs: list, swap: bool = False
               ) -> list[tuple]:
        """The decision of _choose on each Peiffer square at u of the pairs
        (i, j) of redexes ``found[i]`` left of ``found[j]``, each redex
        (position, end, rule), for branchings that list the right step
        first when ``swap``.

        It reads the labels of each square's eight steps (_square) without
        building them.  A table labelling labels the steps' keys, and a
        step whose reverse rule is missing gets None.  The other kinds read
        only the steps' targets, so the four words of a square give all
        eight labels whatever reverse rules exist, and u and the target of
        each paired redex are labelled once for all its squares; the label
        of a step no variant reads is never reported.  The step order, the
        reverse rules the square has and the eight labels determine the
        decision under one labelling, so it is kept under them, unless a
        label is an error: an error is the failure of one word or key, so
        its squares' keys do not repeat, and past the explored words nearly
        every square would keep one."""
        p = self.polygraph
        label = self.label
        reverse = p.reverse_rules
        has = [reverse[rule.name] is not None for _, _, rule in found]
        if self.table:
            squares = (tuple(None if rule is None
                             else label((left, rule.name, right))
                             for left, rule, right in _square(
                                 p, u, found[i], found[j]))
                       for i, j in pairs)
        else:
            targets = {}
            for k in {k for pair in pairs for k in pair}:
                pos, end, rule = found[k]
                targets[k] = label(u[:pos] + rule.rhs + u[end:])
            back = label(u)
            squares = []
            for i, j in pairs:
                (fp, fe, f_rule), (hp, he, h_rule) = found[i], found[j]
                both = label(u[:fp] + f_rule.rhs + u[fe:hp] + h_rule.rhs
                             + u[he:])
                tf, th = targets[i], targets[j]
                squares.append((tf, th, both, both, back, back, th, tf))
        decisions = self.decisions
        out = []
        for (i, j), labels in zip(pairs, squares):
            key = swap, has[i], has[j], labels
            decision = decisions.get(key)
            if decision is None:
                decision = _choose(self.order, _variant_labels(key))
                if not any(isinstance(k, Exception) for k in labels):
                    decisions[key] = decision
            out.append(decision)
        return out


def _choose(order, candidates):
    """Decide a Peiffer branching from the labels of its variants, read in
    order: each candidate is (name, labels), the labels as ``_read_pair``
    orders them or the error that labelling the variant raised.  Returns
    (variant, strict, splits, attempts): the first variant that reads
    strict, else the first that reads decreasing with its splits
    (_first_splits), else variant None.  The candidates read before the
    first decreasing one are kept in ``attempts``: their labels, or their
    error."""
    attempts = []
    chosen = None
    for name, labels in candidates:
        if isinstance(labels, Exception):
            if chosen is None:
                attempts.append({"variant": name, "ok": False,
                                 "error": str(labels)})
            continue
        if _strict(order, labels):
            return name, True, None, attempts
        if chosen is not None:
            # a later variant may still read strict
            continue
        splits = _first_splits(order, labels)
        if splits is not None:
            chosen = name, False, splits, attempts
            continue
        attempts.append({
            "variant": name, "ok": False,
            "labels": {"sides": list(labels[:2]),
                       "completions": [list(labels[2]), list(labels[3])]}})
    return chosen or (None, False, None, attempts)


@cache
def _reads(swap: bool, has_rf: bool, has_rh: bool) -> tuple:
    """For each variant of a square (_variant_shapes), its name, the numbers
    of the steps (_square) whose labels it reads, in the order _read_pair
    labels them for a branching that lists the right step first when
    ``swap``, and the length of the first completion among them."""
    sides = (1, 0) if swap else (0, 1)
    out = []
    for name, cf, ch, _ in _variant_shapes(has_rf, has_rh):
        if swap:
            cf, ch = ch, cf
        out.append((name, sides + cf + ch, len(cf)))
    return tuple(out)


def _variant_labels(key: tuple):
    """The candidates of _choose for a Peiffer square, from its memo key:
    whether the branching lists the right step first, whether f and h have
    reverse rules, and the labels of the eight steps (_square).  A variant
    that reads a label error gets the first error in the order _read_pair
    labels its steps."""
    swap, has_rf, has_rh, labels = key
    for name, steps, n in _reads(swap, has_rf, has_rh):
        read = [labels[i] for i in steps]
        error = next((k for k in read if isinstance(k, Exception)), None)
        yield name, (error if error is not None else
                     (read[0], read[1], tuple(read[2:2 + n]),
                      tuple(read[2 + n:])))


@dataclass
class PeifferReport:
    """The decision on one Peiffer branching (decide_peiffer): its status,
    the chosen variant of peiffer_variants, whether it reads strict, and
    the variants read before it (``attempts``).

    ``diagram`` and ``witness_loops`` are built on first read, from the
    chosen variant of ``peiffer_variants(polygraph, branching)`` cut at the
    recorded ``splits`` when it reads decreasing but not strict; both are
    None and empty for an UNDECIDED branching."""

    branching: LocalBranching
    status: str                       # "PASS" or "UNDECIDED"
    variant: str | None = None
    strict: bool = False
    attempts: list = field(default_factory=list)
    polygraph: Polygraph | None = field(default=None, repr=False,
                                        compare=False)
    splits: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def _chosen(self) -> tuple:
        if self.variant is None:
            return None, []
        b = self.branching
        cf, ch, loops = next(
            (cf, ch, loops)
            for name, cf, ch, loops in peiffer_variants(self.polygraph, b)
            if name == self.variant)
        return _cut(b, cf, ch, self.splits), loops

    @property
    def diagram(self):
        return self._chosen[0]

    @property
    def witness_loops(self) -> list:
        return self._chosen[1]


def decide_peiffer(lab: Labelling, g: ReductionGraph, p: Polygraph,
                   b: LocalBranching) -> PeifferReport:
    """Decide a Peiffer branching: PASS with the first variant of
    peiffer_variants that reads strict, else the first that reads
    decreasing, else UNDECIDED.  The audit (check_peiffer_decreasing)
    makes this decision for every square it enumerates, and sphere filling
    pastes it.

    The decision is made on labels alone (_choose): every label of every
    variant is that of one of the eight steps of the square, labelled once
    each (_PeifferMemo.decide), and no variant's paths are built; the
    report builds the chosen one's when they are read."""
    swap, f, h = _oriented(b)
    [(variant, strict, splits, attempts)] = _PeifferMemo(lab, g, p).decide(
        b.source, [f, h], [(0, 1)], swap)
    return PeifferReport(b, "UNDECIDED" if variant is None else "PASS",
                         variant, strict, list(attempts), p, splits)


def check_peiffer_decreasing(lab: Labelling, g: ReductionGraph,
                             p: Polygraph, len_bound: int = PEIFFER_LEN_BOUND
                             ) -> Audit:
    """Audit every Peiffer branching on words up to the length bound, in the
    order of local_branchings: ok when the Peiffer confluence or one of
    its reverse-rule rotations is decreasing (the rotations are equivalent
    to the square through loop contractions), else a violation, or
    unverified when a label failed to read; each decided as decide_peiffer
    decides it.  The detail tallies the passes by variant (``variants``).

    Under a whisker-stable labelling (Labelling.whisker_stable) it checks
    nothing and passes, stating the lemma (``lemma``): each completion of
    a square's plain confluence is the other side's step whiskered, so it
    reads decreasing."""
    if lab.whisker_stable:
        return Audit(detail={"variants": Counter(), "lemma": PEIFFER_LEMMA})
    return _peiffer_audit(lab, g, p, len_bound)


def _peiffer_audit(lab: Labelling, g: ReductionGraph, p: Polygraph,
                   len_bound: int) -> Audit:
    """check_peiffer_decreasing's enumeration, under any labelling.

    Words come shortest first, so each word's redexes are read off those
    of its prefix ``u[:-1]`` (redexes), kept for this call for the words
    shorter than the bound, and paired when disjoint: no step is built for
    a square, and the graph stores no step row for the word.  A PASS
    branching is only tallied, by its variant; only the first square of
    each status builds its steps, for its witness.  Squares with the same
    step order, reverse rules and labels are decided once per call."""
    memo = _PeifferMemo(lab, g, p)
    variants: Counter = Counter()
    audit = Audit(detail={"variants": variants})
    scanned: dict[Word, list] = {}
    for u in all_words(p, len_bound):
        found = redexes(p, u, scanned.get(u[:-1]))
        if len(u) < len_bound:
            scanned[u] = found
        # redexes come by position, so the j-th is right of the i-th once
        # it starts past the end of the i-th
        pairs = [(i, j) for i, (_, end, _) in enumerate(found)
                 for j in range(i + 1, len(found)) if end <= found[j][0]]
        if not pairs:
            continue
        audit.checked += len(pairs)
        for (i, j), decision in zip(pairs, memo.decide(u, found, pairs)):
            variant, _, _, attempts = decision
            if variant is not None:
                variants[variant] += 1
                continue
            error = next((a["error"] for a in attempts if "error" in a), None)
            audit.add(VIOLATION if error is None else UNVERIFIED,
                      lambda: _square_witness(lab, g, u, found[i], found[j],
                                              attempts, error))
    return audit


def _square_witness(lab: Labelling, g: ReductionGraph, u: Word, f: tuple,
                    h: tuple, attempts: list, error) -> tuple[dict, str]:
    """The (witness, option) of an UNDECIDED Peiffer square at u of the
    redexes f left of h, from the attempts of _choose and the first error
    they read."""
    (fp, fe, f_rule), (hp, he, h_rule) = f, h
    b = LocalBranching(RewriteStep(u[:fp], f_rule, u[fe:]),
                       RewriteStep(u[:hp], h_rule, u[he:]))
    read = next(a for a in attempts if error is None or "error" in a)
    return ({"source": word_str(u), "first": str(b.first),
             "second": str(b.second), "variant": read["variant"],
             **(read["labels"] if error is None else {"error": error})},
            error and governing_option(lab, g, b, error))


# ---------------------------------------------------------------------------
# compatibility with contexts


def contexts_up_to(p: Polygraph, bound: int):
    """Pairs of context words ordered by total length, then left length,
    then generator order."""
    for total in range(bound + 1):
        for left_len in range(total, -1, -1):
            right_len = total - left_len
            for u1 in itertools.product(p.generators, repeat=left_len):
                for u2 in itertools.product(p.generators, repeat=right_len):
                    yield u1, u2


def _whiskered(b: LocalBranching, u1: Word, u2: Word) -> LocalBranching:
    return LocalBranching(b.first.whisker(u1, u2), b.second.whisker(u1, u2))


def _context_audit(lab: Labelling, g: ReductionGraph, items,
                   ctx_bound: int, fails) -> Audit:
    """Run ``fails(b, item, u1, u2)``, whether b whiskered by the context
    (u1, u2) fails, for each (head, b, item) of ``items`` in every context
    up to the bound.  A context where it returns True is a violation,
    listed in the detail ``violations``; one where it raises LabellingError
    or TruncatedRegion is unverified (governing_option).  A witness is
    ``head`` with the context, and the error of an unverified one; only a
    witness builds its record and whiskered branching.  Under qnf labels
    the closability predicate reads only labels where the qnf geodesic
    lemma applies (_qnf_closes: both targets, and every word on their
    geodesics to the chosen quasi-normal form, mapped to that form), so a
    context that passes there builds no step or path."""
    violations: list[dict] = []
    audit = Audit(detail={"violations": violations, **(
        {"lemma": CONTEXT_LEMMA} if lab.whisker_stable else {})})
    contexts = list(contexts_up_to(g.polygraph, ctx_bound))

    def record(head, u1, u2):
        return {**head, "context": [word_str(u1), word_str(u2)]}

    for head, b, item in items:
        audit.checked += len(contexts)
        for u1, u2 in contexts:
            try:
                failed = fails(b, item, u1, u2)
            except (LabellingError, TruncatedRegion) as e:
                audit.add(UNVERIFIED, lambda: (
                    {**record(head, u1, u2), "error": str(e)},
                    governing_option(lab, g, _whiskered(b, u1, u2), e)))
                continue
            if failed:
                violations.append(record(head, u1, u2))
                audit.add(VIOLATION, lambda: (violations[-1], None))
    return audit


def check_context_compatibility(lab: Labelling, g: ReductionGraph,
                                diagrams, ctx_bound: int = CTX_BOUND
                                ) -> Audit:
    """Re-check each diagram whiskered by every context of total length up
    to the bound.  A context under which no decreasing reading of the
    whiskered completions exists is a violation.  Under a whisker-stable
    labelling (Labelling.whisker_stable) it reads the empty context only:
    a whiskered decreasing diagram is decreasing."""
    return _compatibility(lab, g, diagrams,
                          0 if lab.whisker_stable else ctx_bound)


def _compatibility(lab: Labelling, g: ReductionGraph, diagrams,
                   ctx_bound: int) -> Audit:
    """check_context_compatibility's enumeration, under any labelling.  It
    labels the completions whiskered without building them (_read_pair)."""

    def fails(b, completions, u1, u2):
        labels = _read_pair(lab, g, b, *completions, u1, u2)
        # a strict reading has a split too, (0, 0) on each side
        return labels is None or not _first_splits(lab.order, labels)

    items = (({"diagram": idx}, d.branching, d.completions)
             for idx, d in enumerate(diagrams))
    return _context_audit(lab, g, items, ctx_bound, fails)


def check_context_closability(lab: Labelling, g: ReductionGraph,
                              branchings, ctx_bound: int = CTX_BOUND
                              ) -> Audit:
    """Check that every branching, whiskered by every context of total
    length up to the bound, still admits a strictly decreasing completion.

    This is weaker than re-checking a fixed completion in context (see
    check_context_compatibility): the completion may be chosen anew for
    each context.  Under qnf and table labels sphere filling does not: it
    pastes the recorded completion, whiskered, and may close non-strictly
    a whiskered branching this audit closes.  Under a whisker-stable
    labelling (Labelling.whisker_stable) it reads the empty context only:
    a whiskered strict closure is strict.

    Under qnf labels a whiskered branching whose two targets are mapped to
    one quasi-normal form, as is every word on their geodesics to it,
    closes strictly by those geodesics at any length (the qnf geodesic
    lemma, _qnf_closes), and is decided from labels when the form's
    explored class is mapped to it whole.  Every other whiskered branching
    is searched (find_decreasing, strict).

    A whiskered branching with no strict closure is unverified, not a
    violation, when the budget cut a word its closure may need
    (closure_cut)."""
    return _closability(lab, g, branchings,
                        0 if lab.whisker_stable else ctx_bound)


def _closability(lab: Labelling, g: ReductionGraph, branchings,
                 ctx_bound: int) -> Audit:
    """check_context_closability's enumeration, under any labelling."""
    constant: dict[Word, bool] = {}

    def fails(b, _, u1, u2):
        if lab.kind == QNF and _qnf_closes(lab, g, u1 + b.first.target + u2,
                                           u1 + b.second.target + u2,
                                           constant):
            return False
        wb = _whiskered(b, u1, u2)
        if find_decreasing(lab, g, wb, strict=True) is not None:
            return False
        cut = closure_cut(g, wb)
        if cut is not None:
            raise TruncatedRegion(cut[0])
        return True

    items = (({"branching": idx}, b, None)
             for idx, b in enumerate(branchings))
    return _context_audit(lab, g, items, ctx_bound, fails)


def _qnf_closes(lab: Labelling, g: ReductionGraph, tf: Word, tg: Word,
                constant: dict) -> bool:
    """Whether a branching with targets tf and tg closes strictly by their
    geodesics to the chosen quasi-normal form hat of tf, read from labels;
    False when a label does not read, tg is mapped to another form or the
    premise is not shown.

    The qnf geodesic lemma: a qnf label is its step target's distance to
    the target's chosen quasi-normal form.  When tf and tg are mapped to
    hat, as is every word on g.geodesic(tf, hat) and g.geodesic(tg, hat)
    (the premise), the labels along each geodesic fall by one per step
    down to 0, below psi(f) = d(tf, hat) and psi(h) = d(tg, hat): the pair
    reads strict at any length.  A geodesic to hat stays in the explored
    class of hat (ReductionGraph.component), so the premise holds when
    every word of that class is mapped to hat; this is checked once per
    form, ``constant`` keeping the answer.  A derived map (derived_qnf_map)
    passes the check on every class whose explored words are settled and
    reach one quasi-normal form; a map read from a file, or a class with
    several forms, may not, and is searched."""
    try:
        label_target(lab, g, tf)
        label_target(lab, g, tg)
    except (LabellingError, TruncatedRegion):
        return False
    qm = lab.qnf_map
    hat = qm[tf]
    if qm[tg] != hat:
        return False
    if hat not in constant:
        constant[hat] = all(qm.get(v) == hat for v in g.component(hat))
    return constant[hat]


# ---------------------------------------------------------------------------
# the words the audits read


def audit_seeds(p: Polygraph, criticals, max_word_len: int, ctx_bound: int,
                len_bound: int) -> list[Word]:
    """The words to explore from for the audits, each once, in this order:
    the sources of the critical branchings, then each of them whiskered by
    every context up to ``ctx_bound`` (contexts_up_to), then every word up
    to the Peiffer length bound ``len_bound`` (all_words).  Every label,
    geodesic, reachability test and sink the context and Peiffer audits
    read depends only on the words reachable from where it is read, so
    exploring from these words gives those audits what exploring every
    word up to the cap gives them.  Under a whisker-stable labelling they
    read the unwhiskered critical branchings only: pass ``ctx_bound`` 0.

    The words up to the Peiffer bound are listed under every labelling:
    the loop audit and the termination premise of nf labels read the
    cycles of the explored words, so every cycle through a word up to the
    bound is read, whether a critical branching reaches it or not.

    A source longer than ``max_word_len`` is not explored, and the two
    targets of its steps are listed instead when they fit.  A Peiffer
    square on a word longer than ``max_word_len`` needs no such care: the
    Peiffer bound then passes the cap, and every word up to the cap is
    listed."""
    seeds: dict[Word, None] = {}

    def add(u: Word, targets) -> None:
        for w in ((u,) if len(u) <= max_word_len else targets):
            if len(w) <= max_word_len:
                seeds.setdefault(w)

    for b in criticals:
        add(b.source, (b.first.target, b.second.target))
    for b in criticals:
        for u1, u2 in contexts_up_to(p, ctx_bound):
            add(u1 + b.source + u2, (u1 + b.first.target + u2,
                                     u1 + b.second.target + u2))
    seeds.update(dict.fromkeys(all_words(p, min(len_bound, max_word_len))))
    return list(seeds)
