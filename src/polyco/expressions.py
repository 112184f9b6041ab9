"""Generator 3-cells and pasted expressions between parallel 2-cells.

A generator 3-cell relates two parallel zigzags.  An expression is a
vertical composite of atoms, each a generator cell (or its inverse)
whiskered by words and conjugated by zigzags on both sides.  Boundaries
are evaluated by pasting; junctions between consecutive atoms and the
declared 2-source are compared up to cancellation of inverse pairs and
exchange of disjoint redexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Word, word_str
from .engine import (IllComposed, Path, ReductionGraph, ZigzagPath,
                     normalize_zigzag, zigzags_equal)
from .loops import (class_of, fundamental_factors, split_loop, strip_whiskers,
                    word_sequence)

CONFLUENCE = "confluence"
LOOP = "loop"


class MissingLoopClass(KeyError):
    """No extension cell contracts the loop's elementary class."""


@dataclass(frozen=True)
class ThreeCell:
    """A named generator 3-cell between parallel zigzags."""

    name: str
    source: ZigzagPath
    target: ZigzagPath
    kind: str = CONFLUENCE

    def __post_init__(self):
        if (self.source.source != self.target.source
                or self.source.target != self.target.target):
            raise IllComposed(f"cell {self.name}: sides are not parallel")


@dataclass(frozen=True)
class Atom:
    """One whiskered, conjugated occurrence of a generator 3-cell."""

    pre: ZigzagPath
    whisker_left: Word
    cell: str
    sign: int
    whisker_right: Word
    post: ZigzagPath

    def boundary(self, cells) -> tuple[ZigzagPath, ZigzagPath]:
        c = cells[self.cell]
        src2, tgt2 = (c.source, c.target) if self.sign > 0 \
            else (c.target, c.source)
        ws = src2.whisker(self.whisker_left, self.whisker_right)
        wt = tgt2.whisker(self.whisker_left, self.whisker_right)
        return (self.pre.compose(ws).compose(self.post),
                self.pre.compose(wt).compose(self.post))

    def __str__(self):
        mark = "" if self.sign > 0 else "-"
        return (f"[{self.pre}] . {word_str(self.whisker_left)}"
                f"|{self.cell}{mark}|{word_str(self.whisker_right)}"
                f" . [{self.post}]")


@dataclass(frozen=True)
class ThreeCellExpression:
    """A vertical composite of atoms with an explicit 2-source (needed for
    the empty composite, which is an identity)."""

    source: ZigzagPath
    atoms: tuple[Atom, ...] = ()

    def __len__(self):
        return len(self.atoms)

    def __str__(self):
        if not self.atoms:
            return f"identity on ({self.source})"
        return "\n".join(str(a) for a in self.atoms)


def conjugate(e: ThreeCellExpression, pre: ZigzagPath | None = None,
              post: ZigzagPath | None = None,
              left_word: Word = (), right_word: Word = ()
              ) -> ThreeCellExpression:
    """Whisker the whole expression by words, then conjugate it by zigzags
    on either side."""
    src = e.source.whisker(left_word, right_word)
    atoms = []
    for a in e.atoms:
        ap = a.pre.whisker(left_word, right_word)
        aq = a.post.whisker(left_word, right_word)
        if pre is not None:
            ap = pre.compose(ap)
        if post is not None:
            aq = aq.compose(post)
        atoms.append(Atom(ap, left_word + a.whisker_left, a.cell, a.sign,
                          a.whisker_right + right_word, aq))
    if pre is not None:
        src = pre.compose(src)
    if post is not None:
        src = src.compose(post)
    return ThreeCellExpression(src, tuple(atoms))


def invert(e: ThreeCellExpression, cells) -> ThreeCellExpression:
    """The expression read backwards.  Its 2-source is the 2-target of e's
    last atom as pasted, not normalized, and e's own 2-source when e has no
    atoms; e is not checked (check_boundary does that)."""
    src = e.atoms[-1].boundary(cells)[1] if e.atoms else e.source
    atoms = tuple(Atom(a.pre, a.whisker_left, a.cell, -a.sign,
                       a.whisker_right, a.post)
                  for a in reversed(e.atoms))
    return ThreeCellExpression(src, atoms)


def check_boundary(e: ThreeCellExpression, cells
                   ) -> tuple[ZigzagPath, ZigzagPath]:
    """Evaluate the 2-source and 2-target of the expression, verifying that
    consecutive atoms and the declared source agree up to cancellation and
    exchange.  Returns both boundaries in canonical form.

    Each atom's 2-source is compared with the running 2-cell only on the
    window where their steps differ: a common prefix and a common suffix
    cancel on both sides of an equation between 2-cells.  The cost is one
    pass over each atom's boundary plus the normalization of the windows,
    which stay short when consecutive atoms share their conjugators."""
    declared = normalize_zigzag(e.source)
    if not e.atoms:
        return declared, declared
    current = e.source
    for a in e.atoms:
        asrc, atgt = a.boundary(cells)
        if not _equal_between_common_ends(asrc, current):
            raise IllComposed(
                f"atom {a} does not paste: expected 2-cell "
                f"({normalize_zigzag(current)}), found "
                f"({normalize_zigzag(asrc)})")
        current = atgt
    return declared, normalize_zigzag(current)


def _equal_between_common_ends(a: ZigzagPath, b: ZigzagPath) -> bool:
    """zigzags_equal(a, b), compared on the steps between their longest
    common prefix and suffix."""
    if a.source != b.source or a.target != b.target:
        return False
    x, y = a.steps, b.steps
    if x == y:
        return True
    n = min(len(x), len(y))
    i = 0
    while i < n and x[i] == y[i]:
        i += 1
    j = 0
    while j < n - i and x[-1 - j] == y[-1 - j]:
        j += 1
    at = x[i - 1].target if i else a.source
    return zigzags_equal(ZigzagPath._checked(at, x[i:len(x) - j]),
                         ZigzagPath._checked(at, y[i:len(y) - j]))


# ---------------------------------------------------------------------------
# contracting loops through extension cells


def contract_loop(cells, classes, f: Path, g: ReductionGraph | None = None
                  ) -> ThreeCellExpression:
    """An expression from a forward loop to the identity on its base,
    built from one extension cell per elementary loop class.

    ``cells`` maps cell names to ThreeCells; ``classes`` maps elementary
    class keys to cell names.  Sub-loops exposed by exchange reorderings
    (see ``split_loop``) are peeled off until each remainder is elementary
    up to whiskers; its core is conjugate, up to exchange, to the
    representative of its class (see ``class_of``).  When no class carries
    a remainder and ``g`` is the graph the classes were enumerated on, the
    remainder is written through the fundamental loops of its component,
    each of which peels onto the classes.  The peeling keeps a worklist of
    sub-loops, not one frame per sub-loop, so long loops do not exhaust the
    recursion limit.
    """
    if f.source != f.target:
        raise ValueError("not a loop")
    atoms: list[Atom] = []
    # (loop, its word sequence, conjugating zigzags on either side),
    # innermost sub-loop last
    base = ZigzagPath(f.source)
    work = [(f.steps, word_sequence(f.steps), base, base)] if f.steps else []
    while work:
        steps, words, pre, post = work.pop()
        if not steps:
            continue
        split = split_loop(steps, words)
        if split is None:
            leaf = _contract_elementary(cells, classes, steps, g)
            atoms += conjugate(leaf, pre=pre, post=post).atoms
            continue
        # the loop equals prefix * inner * suffix up to exchange; contract
        # the inner loop in place, then what remains
        steps, words, (i, j) = split
        prefix = ZigzagPath._checked(words[0], steps[:i])
        suffix = ZigzagPath._checked(words[j], steps[j:])
        work.append((steps[:i] + steps[j:], words[:i + 1] + words[j + 1:],
                     pre, post))
        work.append((steps[i:j], words[i:j + 1], pre.compose(prefix),
                     suffix.compose(post)))
    return ThreeCellExpression(f.zigzag(), tuple(atoms))


def _contract_elementary(cells, classes, steps, g) -> ThreeCellExpression:
    """Contract a loop that no exchange-reordering peels further: through
    the class of its core, else through the fundamental loops of g."""
    u, core, v = strip_whiskers(steps)
    key, rep, conjugator = class_of(core)
    if key not in classes:
        split = None if g is None else fundamental_factors(g, core)
        if split is None:
            raise MissingLoopClass(
                f"no extension cell for the loop class of "
                f"({Path(core[0].source, core)})")
        return conjugate(_contract_factors(cells, classes, *split),
                         left_word=u, right_word=v)
    k = Path(rep[0].source, conjugator).zigzag()
    atom = Atom(k.inverse().whisker(u, v), u, classes[key], +1, v,
                k.whisker(u, v))
    return ThreeCellExpression(ZigzagPath._checked(steps[0].source, steps),
                               (atom,))


def _contract_factors(cells, classes, pre: Path, factors
                      ) -> ThreeCellExpression:
    """Contract P^-1 . F1^e1 ... Fm^em . P one factor at a time, each
    fundamental loop Fi by peeling alone (see fundamental_factors)."""
    outer = pre.zigzag()
    sides = [F.zigzag() if e > 0 else F.inverse() for F, e in factors]
    source = outer.inverse()
    for z in sides:
        source = source.compose(z)
    atoms = []
    for i, (F, e) in enumerate(factors):
        sub = contract_loop(cells, classes, F)
        if e < 0:
            # F^-1 . F contracts to F^-1; read backwards, F^-1 to identity
            sub = invert(conjugate(sub, pre=sides[i]), cells)
        post = outer
        for z in reversed(sides[i + 1:]):
            post = z.compose(post)
        atoms += conjugate(sub, pre=outer.inverse(), post=post).atoms
    return ThreeCellExpression(source.compose(outer), tuple(atoms))
