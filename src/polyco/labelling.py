"""Well-founded labellings of rewriting steps and the lexicographic
maximum measure.

A labelling assigns to each forward step a label in a strictly ordered
set.  Four kinds are supported:

* ``qnf``: the label of a step is the rewriting distance from its target
  to a chosen quasi-normal form of that target, taken from an explicit map;
* ``nf``: the label is the target word itself, ordered by reachability
  (v is below u when u rewrites to v in at least one step);
* ``singleton``: every step gets the same label, nothing is strict;
* ``table``: labels come from an explicit table over a finite poset.

The measure of a path or branching is a multiset of labels, held in a
``collections.Counter`` and compared by the multiset extension of the
label order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (ParseError, Polygraph, Word, file_lines, parse_word,
                   word_str)
from .engine import (ReductionGraph, RewriteStep, TruncatedRegion,
                     Unreachable, parse_step)


class LabellingError(ValueError):
    pass


class NotQuasiNormalForm(LabellingError):
    """The chosen value of a quasi-normal-form map is not a quasi-normal
    form of its key."""


class MissingLabel(LabellingError):
    pass


# ---------------------------------------------------------------------------
# label orders


class LabelOrder:
    def less(self, a, b) -> bool:
        raise NotImplementedError


class NaturalsOrder(LabelOrder):
    def less(self, a, b) -> bool:
        return a < b


class FinitePosetOrder(LabelOrder):
    """A finite strict order given by its covering (or any generating)
    pairs; the transitive closure is taken and checked for irreflexivity."""

    def __init__(self, elements, pairs):
        self.elements = tuple(elements)
        closure = set(pairs)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(closure):
                for (c, d) in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        cyclic = sorted(a for a, b in closure if a == b)
        if cyclic:
            a = cyclic[0]
            raise LabellingError(f"order is not strict: {a!r} < {a!r}")
        self.pairs = frozenset(closure)

    def less(self, a, b) -> bool:
        return (a, b) in self.pairs


class ReachabilityOrder(LabelOrder):
    """Words ordered by the rewriting relation of an explored graph:
    a is below b when b rewrites to a in at least one step
    (ReductionGraph.reaches).  A word that was not explored is above
    nothing and below nothing."""

    def __init__(self, graph: ReductionGraph):
        self.graph = graph

    def less(self, a, b) -> bool:
        return a != b and self.graph.reaches(b, a)


# ---------------------------------------------------------------------------
# labellings

QNF = "qnf"
NF = "nf"
SINGLETON = "singleton"
TABLE = "table"
# the kinds whose labels whiskering keeps in every `<` and `=`: for nf, as
# x ->+ y gives u x v ->+ u y v, and for singleton
WHISKER_STABLE = frozenset({NF, SINGLETON})

StepKey = tuple[Word, str, Word]


def step_key(s: RewriteStep) -> StepKey:
    return (s.left, s.rule.name, s.right)


@dataclass
class Labelling:
    kind: str
    order: LabelOrder
    qnf_map: dict[Word, Word] | None = None
    table: dict[StepKey, object] | None = None

    @classmethod
    def qnf(cls, qnf_map: dict[Word, Word]) -> "Labelling":
        return cls(QNF, NaturalsOrder(), qnf_map=qnf_map)

    @classmethod
    def nf(cls, graph: ReductionGraph) -> "Labelling":
        """The nf labelling, whose order is reachability in ``graph``.  Its
        premise, termination, is checked on the explored words only."""
        if graph.has_cycle():
            raise LabellingError(
                "normal form labelling needs a terminating explored graph")
        return cls(NF, ReachabilityOrder(graph))

    @classmethod
    def singleton(cls) -> "Labelling":
        return cls(SINGLETON, FinitePosetOrder([0], []))

    @classmethod
    def from_table(cls, table: dict[StepKey, object],
                   order: LabelOrder) -> "Labelling":
        return cls(TABLE, order, table=table)

    @property
    def whisker_stable(self) -> bool:
        """Whether whiskering keeps every `<` and `=` between labels
        (WHISKER_STABLE)."""
        return self.kind in WHISKER_STABLE


def label_step(lab: Labelling, g: ReductionGraph, f: RewriteStep):
    """The label of a forward step.  Inverse steps carry the label of their
    forward counterpart."""
    if lab.kind == TABLE:
        return label_key(lab, step_key(f))
    return label_target(lab, g, f.target if f.forward else f.source)


def label_key(lab: Labelling, key: StepKey):
    """The label a table labelling gives the forward step of the given key:
    label_step without building the step."""
    if key not in lab.table:
        left, name, right = key
        raise MissingLabel(f"no table entry for step "
                           f"{word_str(left)}|{name}|{word_str(right)}")
    return lab.table[key]


def label_target(lab: Labelling, g: ReductionGraph, t: Word):
    """The label a qnf, nf or singleton labelling gives every forward step
    into t, since these read only the target: label_step without building
    the step.  The singleton labelling gives 0."""
    if lab.kind == SINGLETON:
        return 0
    if lab.kind == NF:
        return t
    if lab.kind == QNF:
        if lab.qnf_map is None or t not in lab.qnf_map:
            raise MissingLabel(
                f"no quasi-normal form chosen for {word_str(t)}")
        qn = lab.qnf_map[t]
        if g.component_of(qn) not in g.scc_sinks:
            raise NotQuasiNormalForm(
                f"{word_str(qn)} is not a quasi-normal form "
                f"in the explored graph")
        try:
            return g.distance(t, qn)
        except Unreachable:
            raise NotQuasiNormalForm(
                f"{word_str(qn)} is not reachable from {word_str(t)}")
    raise LabellingError(f"unknown labelling kind {lab.kind!r}")


def label_path(lab: Labelling, g: ReductionGraph, f) -> tuple:
    return tuple(label_step(lab, g, s) for s in f.steps)


def least_qnf(g: ReductionGraph, w: Word) -> Word | None:
    """The quasi-normal form of w that derived maps choose: the shortest,
    then the least; None when w reaches none.  Raises TruncatedRegion as
    quasi_normal_forms does."""
    qnfs = g.quasi_normal_forms(w)
    return min(qnfs, key=lambda x: (len(x), x)) if qnfs else None


def derived_qnf_map(g: ReductionGraph) -> dict[Word, Word]:
    """The quasi-normal-form map of the qnf labelling when none is given:
    each explored word to its least quasi-normal form (least_qnf), found
    once per strongly connected component, since its members reach the
    same words.  A word whose quasi-normal forms the explored graph does
    not settle (none, or TruncatedRegion) is left out."""
    least = {}
    qm = {}
    for w in g.vertices:
        i = g.component_of(w)
        if i not in least:
            try:
                least[i] = least_qnf(g, w)
            except TruncatedRegion:
                least[i] = None
        if least[i] is not None:
            qm[w] = least[i]
    return qm


def validate_qnf_map(lab: Labelling, g: ReductionGraph) -> None:
    """Check that every mapped word explored in g is sent to one of its own
    quasi-normal forms and that the choice is constant on each explored
    congruence class.  A mapped word g did not explore is not read."""
    if lab.kind != QNF or not lab.qnf_map:
        raise LabellingError("not a qnf labelling")
    seen: set[Word] = set()
    for u, qn in lab.qnf_map.items():
        if u not in g.vertices:
            continue
        if qn not in g.quasi_normal_forms(u):
            raise NotQuasiNormalForm(
                f"{word_str(qn)} is not a quasi-normal form of {word_str(u)}")
        if u in seen:
            continue
        comp = g.component(u)
        seen |= comp
        choices = {lab.qnf_map[w] for w in comp if w in lab.qnf_map}
        if len(choices) > 1:
            raise LabellingError(
                "quasi-normal form choice is not constant on the class of "
                + word_str(u))


# ---------------------------------------------------------------------------
# label multisets and the lexicographic maximum measure


def filter_word(w, wp, order: LabelOrder) -> tuple:
    """Drop from w every letter strictly below some letter of wp."""
    wp = tuple(wp)
    return tuple(k for k in w if not any(order.less(k, j) for j in wp))


def measure_word(w, order: LabelOrder) -> Counter:
    """The lexicographic maximum measure of a label word: each letter
    contributes unless a strictly larger letter occurred before it."""
    kept = []
    rest = tuple(w)
    while rest:
        head = rest[0]
        kept.append(head)
        rest = filter_word(rest[1:], (head,), order)
    return Counter(kept)


def measure_branching(lab: Labelling, g: ReductionGraph, f, h) -> Counter:
    """The multiset sum (not the max-union) of the measures of both sides."""
    return (measure_word(label_path(lab, g, f), lab.order)
            + measure_word(label_path(lab, g, h), lab.order))


def multiset_less(m: Counter, n: Counter, order: LabelOrder) -> bool:
    """Strict multiset order: after cancelling the common part, the rest of
    n is nonempty and dominates every leftover element of m."""
    y = n - m
    return bool(y) and all(any(order.less(a, b) for b in y) for a in m - n)


# ---------------------------------------------------------------------------
# companion file formats


def parse_qnf_map(p: Polygraph, text: str) -> dict[Word, Word]:
    """Lines of the form ``WORD -> WORD``, over the generators of p."""
    out: dict[Word, Word] = {}
    for lineno, line in file_lines(text):
        if "->" not in line:
            raise ParseError("expected WORD -> WORD", lineno)
        left, right = line.split("->", 1)
        u = parse_word(left.strip(), lineno)
        v = parse_word(right.strip(), lineno)
        for letter in u + v:
            if letter not in p.generators:
                raise ParseError(f"unknown generator {letter!r}", lineno)
        out[u] = v
    return out


def format_qnf_map(m: dict[Word, Word]) -> str:
    lines = [f"{word_str(u)} -> {word_str(v)}"
             for u, v in sorted(m.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    return "\n".join(lines) + "\n"


def parse_label_table(p: Polygraph, text: str
                      ) -> tuple[dict[StepKey, object], FinitePosetOrder]:
    """Label table files: ``step: LCTX | RULE | RCTX = LABEL`` entries plus
    ``order: a < b`` declarations of the strict order."""
    table: dict[StepKey, object] = {}
    pairs = []
    labels = set()
    for lineno, line in file_lines(text):
        if line.startswith("order:"):
            body = line[len("order:"):]
            if "<" not in body:
                raise ParseError("expected: order: a < b", lineno)
            a, b = (x.strip() for x in body.split("<", 1))
            if not a or not b:
                raise ParseError("expected: order: a < b", lineno)
            pairs.append((a, b))
            labels |= {a, b}
        elif line.startswith("step:"):
            body = line[len("step:"):]
            if "=" not in body:
                raise ParseError("expected: step: L | RULE | R = LABEL",
                                 lineno)
            stext, label = body.rsplit("=", 1)
            step = parse_step(p, stext.strip(), lineno)
            label = label.strip()
            table[step_key(step)] = label
            labels.add(label)
        else:
            raise ParseError(f"unknown table line {line!r}", lineno)
    try:
        return table, FinitePosetOrder(sorted(labels), pairs)
    except LabellingError as e:
        # the declarations close a cycle
        raise ParseError(str(e)) from e
