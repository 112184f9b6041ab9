"""Integral homology of the abelianized partial resolution.

Abelianizing a presentation with a set of 3-cells gives a complex of free
abelian groups

    Z[cells3] --d3--> Z[rules] --d2--> Z[generators] --d1--> Z

where d1 is zero (one 0-cell), the column of d2 at a rule counts letters
of its left-hand side minus its right-hand side, and the column of d3 at
a 3-cell counts signed rule occurrences of its 2-source minus its
2-target (inverse steps count negatively).  H1 and H2 are read off the
invariant factors of d2 and d3, which one exact integer elimination
computes without keeping its row and column transforms.  d2 . d3 = 0 is
checked once, in ``homology``.

Matrices are lists of rows of Python ints; everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Polygraph
from .expressions import ThreeCell


Matrix = list[list[int]]


def smith_normal_form(a: Matrix) -> list[int]:
    """The nonzero invariant factors of A, each dividing the next.

    A round takes an entry of least absolute value as the pivot and
    reduces its row and column by it; a remainder left there is a smaller
    entry, and the next round's pivot.  Once both are clear, an entry the
    pivot does not divide has its row added to the pivot's row, which the
    pivot reduces again; when there is none, |pivot| is an invariant
    factor and its row and column are dropped."""
    d = [row[:] for row in a]
    factors = []
    while any(any(row) for row in d):
        _, pi, pj = min((abs(x), i, j) for i, row in enumerate(d)
                        for j, x in enumerate(row) if x)
        prow = d[pi]
        p = prow[pj]
        while True:
            for i, row in enumerate(d):
                if i != pi and row[pj]:
                    q = row[pj] // p
                    for j, y in enumerate(prow):
                        row[j] -= q * y
            for j, y in enumerate(prow):
                if j != pj and y:
                    q = y // p
                    for row in d:
                        row[j] -= q * row[pj]
            if any(prow[:pj] + prow[pj + 1:]) or any(
                    row[pj] for row in d[:pi] + d[pi + 1:]):
                break
            rest = next((row for row in d if any(x % p for x in row)), None)
            if rest is None:
                factors.append(abs(p))
                del d[pi]
                for row in d:
                    del row[pj]
                break
            for j, x in enumerate(rest):
                prow[j] += x
    return factors


@dataclass
class ChainComplexZ:
    generators: list[str]
    rules: list[str]
    cells3: list[str]
    delta2: Matrix          # len(generators) x len(rules)
    delta3: Matrix          # len(rules) x len(cells3)


def abelianize(p: Polygraph, cells3: list[ThreeCell]) -> ChainComplexZ:
    """The complex of ``p`` with ``cells3``.  A 3-cell's sides are parallel
    zigzags, so their letter counts change alike and its column of d3 lies
    in the kernel of d2 by construction."""
    gens = list(p.generators)
    rules = [r.name for r in p.rules]
    index = {r: i for i, r in enumerate(rules)}
    delta2 = [[r.lhs.count(g) - r.rhs.count(g) for r in p.rules]
              for g in gens]
    delta3 = [[0] * len(cells3) for _ in rules]
    for j, c in enumerate(cells3):
        for side, sign in ((c.source, 1), (c.target, -1)):
            for s in side.steps:
                delta3[index[s.rule.name]][j] += sign if s.forward else -sign
    return ChainComplexZ(gens, rules, [c.name for c in cells3], delta2,
                         delta3)


@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple[int, ...]

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class HomologyResult:
    h0: HomologyGroup
    h1: HomologyGroup
    h2: HomologyGroup


def homology(c: ChainComplexZ) -> HomologyResult:
    """H0 is always Z (one 0-cell); H1 = Z^gens / im d2; H2 = ker d2 / im d3.

    Z^rules / ker d2 is im d2, a free group, so ker d2 is a direct summand
    of rank n2 - r2 and H2 = Z^(n2 - r2 - r3) plus the torsion of the
    invariant factors of d3, with r2 and r3 the ranks of d2 and d3.  A
    complex built by hand with d3 outside the kernel of d2 raises
    ValueError."""
    n1, n2 = len(c.generators), len(c.rules)
    inv2 = smith_normal_form(c.delta2)
    r2 = len(inv2)
    h1 = HomologyGroup(n1 - r2, tuple(t for t in inv2 if t > 1))
    if any(sum(x * row3[j] for x, row3 in zip(row2, c.delta3))
           for row2 in c.delta2 for j in range(len(c.cells3))):
        raise ValueError("image of d3 is not inside the kernel of d2")
    inv3 = smith_normal_form(c.delta3)
    h2 = HomologyGroup(n2 - r2 - len(inv3), tuple(t for t in inv3 if t > 1))
    return HomologyResult(HomologyGroup(1, ()), h1, h2)
