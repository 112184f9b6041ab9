"""Integral homology of the abelianized partial resolution.

Abelianizing a presentation with a set of 3-cells gives a complex of free
abelian groups

    Z[cells3] --d3--> Z[rules] --d2--> Z[generators] --d1--> Z

where d1 is zero (one 0-cell), the column of d2 at a rule counts letters
of its left-hand side minus its right-hand side, and the column of d3 at
a 3-cell counts signed rule occurrences of its 2-source minus its
2-target (inverse steps count negatively).  Homology in degrees 0..2 is
computed by exact integer Smith normal forms.

Matrices are lists of rows of Python ints; everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Polygraph, Word
from .engine import ZigzagPath
from .expressions import ThreeCell


Matrix = list[list[int]]


def zeros(n: int, m: int) -> Matrix:
    return [[0] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """U, D, V, Vinv with U*A*V = D, U and V unimodular, D diagonal with
    each invariant factor dividing the next."""
    n = len(a)
    m = len(a[0]) if a else 0
    d = [row[:] for row in a]
    u = identity(n)
    v = identity(m)
    vinv = identity(m)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        for t in range(m):
            d[i][t] += q * d[j][t]
        for t in range(n):
            u[i][t] += q * u[j][t]

    def add_col(i, j, q):
        # col_i += q * col_j ; Vinv gets the inverse row operation
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]
        for t in range(m):
            vinv[j][t] -= q * vinv[i][t]

    def negate_row(i):
        for t in range(m):
            d[i][t] = -d[i][t]
        for t in range(n):
            u[i][t] = -u[i][t]

    size = min(n, m)
    t = 0
    while t < size:
        pi = pj = -1
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    best, pi, pj = x, i, j
        if best is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            restart = False
            for i in range(t + 1, n):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, m):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # the pivot must divide the rest of the submatrix
            found = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if d[i][j] % d[t][t]:
                        found = i
                        break
                if found is not None:
                    break
            if found is None:
                break
            add_row(t, found, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v, vinv


@dataclass
class ChainComplexZ:
    generators: list[str]
    rules: list[str]
    cells3: list[str]
    delta2: Matrix          # len(generators) x len(rules)
    delta3: Matrix          # len(rules) x len(cells3)


def letter_counts(w: Word, generators: list[str]) -> list[int]:
    return [sum(1 for x in w if x == g) for g in generators]


def rule_occurrences(z: ZigzagPath, rules: list[str]) -> list[int]:
    out = [0] * len(rules)
    idx = {r: i for i, r in enumerate(rules)}
    for s in z.steps:
        out[idx[s.rule.name]] += 1 if s.forward else -1
    return out


def abelianize(p: Polygraph, cells3: list[ThreeCell]) -> ChainComplexZ:
    gens = list(p.generators)
    rules = [r.name for r in p.rules]
    names = [c.name for c in cells3]
    delta2 = zeros(len(gens), len(rules))
    for j, r in enumerate(p.rules):
        lc = letter_counts(r.lhs, gens)
        rc = letter_counts(r.rhs, gens)
        for i in range(len(gens)):
            delta2[i][j] = lc[i] - rc[i]
    delta3 = zeros(len(rules), len(names))
    for j, c in enumerate(cells3):
        sc = rule_occurrences(c.source, rules)
        tc = rule_occurrences(c.target, rules)
        for i in range(len(rules)):
            delta3[i][j] = sc[i] - tc[i]
    # the composite d2 . d3 must vanish
    if names:
        comp = matmul(delta2, delta3)
        if any(x for row in comp for x in row):
            raise ValueError("boundary of a boundary is nonzero")
    return ChainComplexZ(gens, rules, names, delta2, delta3)


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


def _invariants(d: Matrix) -> list[int]:
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(abs(d[i][i]))
    return out


def homology(c: ChainComplexZ) -> HomologyResult:
    """H0 is always Z (one 0-cell); H1 = Z^gens / im d2; H2 = ker d2 / im d3.

    Z^rules / ker d2 is im d2, a free group, so ker d2 is a direct summand
    of rank n2 - r2 and H2 = Z^(n2 - r2 - r3) plus the torsion of the
    invariant factors of d3, with r2 and r3 the ranks of d2 and d3."""
    n1, n2 = len(c.generators), len(c.rules)
    h0 = HomologyGroup(1, ())
    if n2 == 0:
        return HomologyResult(h0, HomologyGroup(n1, ()), HomologyGroup(0, ()))
    inv2 = _invariants(smith_normal_form(c.delta2)[1])
    r2 = len(inv2)
    h1 = HomologyGroup(n1 - r2, tuple(t for t in inv2 if t > 1))
    if not c.cells3:
        return HomologyResult(h0, h1, HomologyGroup(n2 - r2, ()))
    if any(x for row in matmul(c.delta2, c.delta3) for x in row):
        raise ValueError("image of d3 is not inside the kernel of d2")
    inv3 = _invariants(smith_normal_form(c.delta3)[1])
    h2 = HomologyGroup(n2 - r2 - len(inv3), tuple(t for t in inv3 if t > 1))
    return HomologyResult(h0, h1, h2)
