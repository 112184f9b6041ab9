"""Local branchings and critical branchings of a presentation.

A local branching is an unordered pair of steps out of the same word,
classified as aspherical (equal steps), Peiffer (disjoint redexes),
or overlapping; an overlapping branching with nothing to strip on either
side is critical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Polygraph, Word
from .engine import RewriteStep, enumerate_steps

ASPHERICAL = "aspherical"
PEIFFER = "peiffer"
OVERLAPPING = "overlapping"
CRITICAL = "critical"


@dataclass(frozen=True)
class LocalBranching:
    """Two rewriting steps out of the same word."""

    first: RewriteStep
    second: RewriteStep

    def __post_init__(self):
        if self.first.source != self.second.source:
            raise ValueError("branching steps must share their source")

    @property
    def source(self) -> Word:
        return self.first.source

    @property
    def kind(self) -> str:
        return classify_branching(self.first, self.second)


def _redex_span(s: RewriteStep) -> tuple[int, int]:
    block = s.rule.lhs if s.forward else s.rule.rhs
    return s.position, s.position + len(block)


def classify_branching(f: RewriteStep, g: RewriteStep) -> str:
    if f == g:
        return ASPHERICAL
    a0, a1 = _redex_span(f)
    b0, b1 = _redex_span(g)
    if a1 <= b0 or b1 <= a0:
        return PEIFFER
    lo, hi = min(a0, b0), max(a1, b1)
    u = f.source
    if lo == 0 and hi == len(u):
        # nothing to strip on either side: the branching is minimal
        return CRITICAL
    return OVERLAPPING


def canonical_pair(f: RewriteStep, g: RewriteStep, p: Polygraph
                   ) -> tuple[RewriteStep, RewriteStep]:
    kf = (f.position, p.rule_index(f.rule.name))
    kg = (g.position, p.rule_index(g.rule.name))
    return (f, g) if kf <= kg else (g, f)


def local_branchings(p: Polygraph, u: Word) -> list[LocalBranching]:
    """The local branchings at u of two distinct steps, each pair listed
    once, ordered by position then rule order; the aspherical pairs of a
    step with itself are not listed."""
    steps = enumerate_steps(p, u)
    return [LocalBranching(f, g)
            for i, f in enumerate(steps) for g in steps[i + 1:]]


def critical_branchings(p: Polygraph) -> list[LocalBranching]:
    """All critical branchings: proper overlaps and strict inclusions of
    rule left-hand sides, with the leftmost redex first.  Deterministic
    in rule declaration order."""
    out = []
    rules = list(p.rules)
    for i1, r1 in enumerate(rules):
        l1 = len(r1.lhs)
        for i2, r2 in enumerate(rules):
            l2 = len(r2.lhs)
            # proper overlaps: a nonempty proper suffix of lhs1 equals a
            # nonempty proper prefix of lhs2
            for k in range(1, min(l1, l2)):
                if r1.lhs[l1 - k:] != r2.lhs[:k]:
                    continue
                source = r1.lhs + r2.lhs[k:]
                f = RewriteStep((), r1, source[l1:])
                g = RewriteStep(source[:l1 - k], r2, ())
                out.append(LocalBranching(f, g))
            # inclusions: lhs2 occurs inside lhs1
            if l2 < l1 or (l2 == l1 and i1 < i2):
                for pos in range(l1 - l2 + 1):
                    if r1.lhs[pos:pos + l2] != r2.lhs:
                        continue
                    f = RewriteStep((), r1, ())
                    g = RewriteStep(r1.lhs[:pos], r2, r1.lhs[pos + l2:])
                    first, second = canonical_pair(f, g, p)
                    out.append(LocalBranching(first, second))
    return out


def match_critical(p: Polygraph, f: RewriteStep, g: RewriteStep,
                   criticals: list[LocalBranching]
                   ) -> tuple[int, Word, Word, bool] | None:
    """Recognize an overlapping branching (f, g) as a whiskered critical
    branching.  Returns (index, left whisker, right whisker, swapped) where
    swapped means (f, g) matches (second, first) of the critical pair."""
    a0, a1 = _redex_span(f)
    b0, b1 = _redex_span(g)
    lo, hi = min(a0, b0), max(a1, b1)
    u = f.source
    wl, wr = u[:lo], u[hi:]
    fc = RewriteStep(f.left[lo:], f.rule, f.right[:len(f.right) - len(wr)]
                     if wr else f.right, f.forward)
    gc = RewriteStep(g.left[lo:], g.rule, g.right[:len(g.right) - len(wr)]
                     if wr else g.right, g.forward)
    for idx, cb in enumerate(criticals):
        if cb.first == fc and cb.second == gc:
            return idx, wl, wr, False
        if cb.first == gc and cb.second == fc:
            return idx, wl, wr, True
    return None
