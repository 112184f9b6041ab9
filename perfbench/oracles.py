"""Checks made apart from polyco.

Each oracle computes its answer without calling the program: the count of
critical branchings by brute force over the words where two left-hand sides
overlap, the homology groups known from the theory of the monoids, and the
abelian image of a filled 3-cell expression from rule names alone.  Every
oracle raises WrongOutput when the program's answer disagrees.
"""

from __future__ import annotations

import itertools

# H0, H1, H2 of each presented monoid, as polyco prints them.  braid and
# convergent_braid present the braid monoid B3^+ and A3 presents B4^+; both
# have the homology of their braid group: H1 = Z, H2(B3) = 0, H2(B4) = Z/2.
KNOWN_HOMOLOGY = {
    "braid": ("Z", "Z", "0"),
    "convergent_braid": ("Z", "Z", "0"),
    "a3": ("Z", "Z", "Z/2"),
}

# Elementary loop classes of a complete exploration: braid has the single
# class alpha;beta, convergent_braid terminates and has none.  A3 has no
# known count, so its loop cells are not checked.
LOOP_CELLS = {"braid": 1, "convergent_braid": 0}


class WrongOutput(Exception):
    """The program's output disagrees with an oracle."""


def parse_rules(text: str):
    """Generators and rules (name, lhs, rhs) of a presentation file."""
    gens: list[str] = []
    rules = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "gens":
            gens.extend(tokens[1:])
        elif tokens[0] == "rule":
            arrow = tokens.index("=>")
            lhs = tuple(t for t in tokens[3:arrow] if t != "1")
            rhs = tuple(t for t in tokens[arrow + 1:] if t != "1")
            rules.append((tokens[1], lhs, rhs))
    return gens, rules


def critical_count(text: str) -> int:
    """Critical branchings counted by brute force: unordered pairs of
    distinct redexes in a word that share a letter and together cover it."""
    gens, rules = parse_rules(text)
    longest = max(len(lhs) for _, lhs, _ in rules)
    count = 0
    for n in range(1, 2 * longest):
        for w in itertools.product(gens, repeat=n):
            redexes = [(i, i + len(lhs), name) for name, lhs, _ in rules
                       for i in range(n - len(lhs) + 1)
                       if w[i:i + len(lhs)] == lhs]
            for a, b in itertools.combinations(redexes, 2):
                overlap = max(a[0], b[0]) < min(a[1], b[1])
                covers = min(a[0], b[0]) == 0 and max(a[1], b[1]) == n
                if overlap and covers:
                    count += 1
    return count


def expect_critical(text: str, reported: int, what: str) -> None:
    expected = critical_count(text)
    if reported != expected:
        raise WrongOutput(f"{what}: {reported} critical branchings, "
                          f"brute force counts {expected}")


def expect_loop_cells(name: str, reported: int, what: str) -> None:
    expected = LOOP_CELLS.get(name)
    if expected is not None and reported != expected:
        raise WrongOutput(f"{what}: {reported} loop cells, expected "
                          f"{expected}")


def expect_homology(name: str, groups, what: str) -> None:
    expected = KNOWN_HOMOLOGY[name]
    if tuple(groups) != expected:
        raise WrongOutput(f"{what}: homology {tuple(groups)}, expected "
                          f"{expected}")


def _occurrences(zigzag, sign: int, into: dict) -> None:
    for s in zigzag.steps:
        into[s.rule.name] = (into.get(s.rule.name, 0)
                             + (sign if s.forward else -sign))


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


def expect_abelian_boundary(expr, cells, source, target, what: str) -> None:
    """Every atom names a cell, and the signed sum of the abelianized
    boundaries of the atoms' cells equals the rule occurrences of the
    sphere's source minus those of its target.  Whiskers and conjugating
    zigzags cancel in the abelian image, so rule names decide it."""
    total: dict = {}
    for atom in expr.atoms:
        if atom.cell not in cells:
            raise WrongOutput(f"{what}: atom names unknown cell "
                              f"{atom.cell!r}")
        cell = cells[atom.cell]
        _occurrences(cell.source, atom.sign, total)
        _occurrences(cell.target, -atom.sign, total)
    sphere: dict = {}
    _occurrences(source, 1, sphere)
    _occurrences(target, -1, sphere)
    if _nonzero(total) != _nonzero(sphere):
        raise WrongOutput(f"{what}: atoms carry rule occurrences "
                          f"{_nonzero(total)}, the sphere "
                          f"{_nonzero(sphere)}")
