"""Forward rewriting loops and their elementary representatives.

A loop is a nonempty forward path back to its source.  Two loops are
equivalent when one is a circular permutation of the other.  A loop is
elementary when it is minimal in two senses: no reordering of its steps
through exchanges of disjoint redexes revisits a word (so it does not
factor through a smaller loop), and no common whisker can be stripped
from all its steps.

The classes are found from fundamental cycles, not by enumerating every
cycle: in each strongly connected component, every step off a
breadth-first spanning tree closes one loop through the tree and a
geodesic back to its root.  These |E| - |V| + 1 loops generate all loops
of the component up to conjugation (Squier's finite homotopy basis), so
once each of them contracts onto the classes, every loop does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .core import Word, word_str
from .engine import (Path, ReductionGraph, RewriteStep, TruncatedRegion,
                     exchange_swap)


class NotALoop(ValueError):
    pass


@dataclass(frozen=True)
class Loop:
    path: Path

    def __post_init__(self):
        if not self.path.steps or self.path.source != self.path.target:
            raise NotALoop("a loop is a nonempty path back to its source")

    @property
    def base(self) -> Word:
        return self.path.source

    @property
    def steps(self) -> tuple[RewriteStep, ...]:
        return self.path.steps

    def __len__(self):
        return len(self.path)

    def __str__(self):
        return str(self.path)


def canonical_rotation(steps: tuple[RewriteStep, ...]
                       ) -> tuple[RewriteStep, ...]:
    """The rotation with the least serialization: the class representative
    is deterministic."""
    names = [str(s) for s in steps]
    i = min(range(len(steps)), key=lambda i: names[i:] + names[:i])
    return steps[i:] + steps[:i]


def _class_key(steps: tuple[RewriteStep, ...]) -> tuple[str, ...]:
    return tuple(str(s) for s in canonical_rotation(steps))


def loop_class_key(loop: Loop) -> tuple[str, ...]:
    return _class_key(loop.steps)


@dataclass(frozen=True)
class LoopClass:
    representative: Loop
    key: tuple[str, ...]


@dataclass
class LoopEnumeration:
    classes: list[LoopClass]
    complete: bool


def strip_whiskers(steps: tuple[RewriteStep, ...]
                   ) -> tuple[Word, tuple[RewriteStep, ...], Word]:
    """Largest common left and right whiskers of all steps, and the core
    steps with those contexts removed."""
    lefts = [s.left for s in steps]
    rights = [s.right for s in steps]
    nl = min(len(w) for w in lefts)
    while nl and not all(w[:nl] == lefts[0][:nl] for w in lefts):
        nl -= 1
    nr = min(len(w) for w in rights)
    while nr and not all(w[len(w) - nr:] == rights[0][len(rights[0]) - nr:]
                         for w in rights):
        nr -= 1
    u = lefts[0][:nl]
    v = rights[0][len(rights[0]) - nr:] if nr else ()
    core = tuple(RewriteStep(s.left[nl:], s.rule,
                             s.right[:len(s.right) - nr] if nr else s.right,
                             s.forward)
                 for s in steps)
    return u, core, v


def is_context_minimal(loop: Loop) -> bool:
    """True when no letter is a common left or right whisker of all the
    loop's steps: the whiskers strip_whiskers would remove are empty."""
    steps = loop.steps
    first = steps[0].left[:1]
    last = steps[0].right[-1:]
    return (not (first and all(s.left[:1] == first for s in steps))
            and not (last and all(s.right[-1:] == last for s in steps)))


def word_sequence(steps) -> tuple[Word, ...]:
    return (steps[0].source,) + tuple(s.target for s in steps)


class OrbitCapHit(Exception):
    """The exchange orbit of a loop passed its cap before the search could
    tell whether the loop is minimal for composition."""


# Reorderings searched per loop before OrbitCapHit; read at call time.
ORBIT_CAP = 4000


def _orbit(start: tuple, words: tuple, swap, target, cap: int):
    """Breadth-first walk of the exchange orbit of the loop ``start``,
    itself first: yields (reordering, revisits a word), and stops after
    the first reordering that does.  Steps are opaque here: ``words`` is
    the loop's word sequence, ``swap(a, b)`` the exchanged pair or None and
    ``target(a)`` the word a step reaches.

    A swap of steps i and i+1 changes only the word between them, so each
    reordering is tested for a revisit in O(1) when it is generated."""
    if len(set(words)) < len(start):
        yield start, True
        return
    yield start, False
    seen = {start}
    queue = deque([(start, words)])
    while queue:
        cur, words = queue.popleft()
        present = set(words)
        for i in range(len(cur) - 1):
            swapped = swap(cur[i], cur[i + 1])
            if swapped is None:
                continue
            nxt = cur[:i] + swapped + cur[i + 2:]
            mid = target(swapped[0])
            if mid != words[i + 1] and mid in present:
                yield nxt, True
                return
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(seen) > cap:
                raise OrbitCapHit(f"has more than {cap} reorderings")
            yield nxt, False
            queue.append((nxt, words[:i + 1] + (mid,) + words[i + 2:]))


def _step_orbit(steps: tuple[RewriteStep, ...], cap: int | None = None):
    start = tuple(steps)
    try:
        yield from _orbit(start, word_sequence(start), exchange_swap,
                          attrgetter("target"),
                          ORBIT_CAP if cap is None else cap)
    except OrbitCapHit as e:
        raise OrbitCapHit(f"the exchange orbit of "
                          f"({Path(start[0].source, start)}) {e}") from None


def reorder_to_expose_subloop(steps: tuple[RewriteStep, ...],
                              cap: int | None = None):
    """The first exchange-reordering of the steps of a loop, in
    breadth-first order, that revisits a word; None when no reordering
    does, that is when the loop is minimal for composition.  Raises
    OrbitCapHit when the orbit has more than ``cap`` (default ORBIT_CAP)
    elements and none of them revisits a word."""
    return next((r for r, revisits in _step_orbit(steps, cap) if revisits),
                None)


def class_reordering(steps: tuple[RewriteStep, ...], classes):
    """The first exchange-reordering of the steps of an elementary loop, in
    breadth-first order and the steps themselves first, whose class key is
    in ``classes``; None when there is none.  Raises OrbitCapHit."""
    return next((r for r, _ in _step_orbit(steps)
                 if _class_key(r) in classes), None)


def inner_repeat_span(words) -> tuple[int, int] | None:
    """Earliest (i, j) with words[i] == words[j], excluding the first and
    last position together (the full loop itself)."""
    seen: dict = {}
    for pos, w in enumerate(words):
        if w in seen:
            i = seen[w]
            if not (i == 0 and pos == len(words) - 1):
                return i, pos
        else:
            seen[w] = pos
    return None


def is_minimal_for_composition(loop: Loop, cap: int | None = None) -> bool:
    """True when no reordering of the loop through exchanges of disjoint
    redexes revisits an intermediate word.  A revisit in any reordering
    exhibits the loop as a composite through a smaller loop.  Raises
    OrbitCapHit when the orbit is too large to tell."""
    return reorder_to_expose_subloop(loop.steps, cap) is None


def is_elementary(loop: Loop) -> bool:
    return is_context_minimal(loop) and is_minimal_for_composition(loop)


def _cyclic_sccs(g: ReductionGraph) -> list[list[Word]]:
    """The strongly connected components that carry a cycle, each with its
    members in exploration order; ordered by shortest word, then by first
    explored member."""
    order = g.vertices
    out = []
    for members in g.scc_members:
        w = members[0]
        if len(members) > 1 or any(s.target == w for s in g.out.get(w, ())):
            out.append(sorted(members, key=order.__getitem__))
    out.sort(key=lambda m: (min(map(len, m)), order[m[0]]))
    return out


class _Component:
    """One cyclic strongly connected component on integer ids: members
    0..n-1 in exploration order, and its internal steps numbered by source,
    then in the order of ``g.out``.  Loops are tuples of step ids."""

    def __init__(self, g: ReductionGraph, members: list[Word]):
        index = {w: i for i, w in enumerate(members)}
        self.members = members
        self.steps: list[RewriteStep] = []
        self.src: list[int] = []
        self.tgt: list[int] = []
        self.out: list[list[int]] = []
        for i, u in enumerate(members):
            row = []
            for s in g.out[u]:
                j = index.get(s.target)
                if j is not None:
                    row.append(len(self.steps))
                    self.steps.append(s)
                    self.src.append(i)
                    self.tgt.append(j)
            self.out.append(row)
        self._ids = {s: i for i, s in enumerate(self.steps)}
        self._swaps: dict[tuple[int, int], tuple[int, int] | None] = {}
        self._leaves: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def whiskered_copy(self, g: ReductionGraph) -> bool:
        """True when no internal step touches the first letter (or none the
        last), and the members with that letter stripped are explored
        completely: every loop here is then a whiskered loop there."""
        for touches, strip in ((lambda s: not s.left, lambda w: w[1:]),
                               (lambda s: not s.right, lambda w: w[:-1])):
            if (not any(map(touches, self.steps))
                    and all(strip(w) in g.complete for w in self.members)):
                return True
        return False

    def _tree_paths(self):
        """A breadth-first tree from member 0 and geodesics back to it:
        down[v] is the tree path from member 0 to v, back[v] a shortest
        path from v to member 0, and back[v] = (s,) + back[t] for its first
        step s: v -> t.  Returns (down, back, tree steps)."""
        n = len(self.members)
        down: list = [()] + [None] * (n - 1)
        tree = set()
        queue = [0]
        for u in queue:
            for s in self.out[u]:
                if down[self.tgt[s]] is None:
                    down[self.tgt[s]] = down[u] + (s,)
                    tree.add(s)
                    queue.append(self.tgt[s])
        into: list[list[int]] = [[] for _ in range(n)]
        for s, t in enumerate(self.tgt):
            into[t].append(s)
        back: list = [()] + [None] * (n - 1)
        queue = [0]
        for t in queue:
            for s in into[t]:
                if back[self.src[s]] is None:
                    back[self.src[s]] = (s,) + back[t]
                    queue.append(self.src[s])
        return down, back, tree

    def fundamental_loops(self):
        """For each step s: u -> t off the tree, the loop down(u); s;
        back(t).  Together they generate every loop of the component up to
        conjugation."""
        down, back, tree = self._tree_paths()
        for s, (u, t) in enumerate(zip(self.src, self.tgt)):
            if s not in tree:
                yield down[u] + (s,) + back[t]

    def _swap(self, a: int, b: int) -> tuple[int, int] | None:
        key = (a, b)
        if key not in self._swaps:
            pair = exchange_swap(self.steps[a], self.steps[b])
            if pair is not None:
                pair = (self._ids[pair[0]], self._ids[pair[1]])
            self._swaps[key] = pair
        return self._swaps[key]

    def elementary_parts(self, loop: tuple[int, ...]
                         ) -> tuple[tuple[int, ...], ...]:
        """The loops that contract_loop's peeling leaves of ``loop``, before
        their whiskers are stripped, memoised.  Raises OrbitCapHit."""
        parts = self._leaves.get(loop)
        if parts is None:
            words = (self.src[loop[0]],) + tuple(self.tgt[s] for s in loop)
            r = next((r for r, revisits in _orbit(
                loop, words, self._swap, self.tgt.__getitem__, ORBIT_CAP)
                if revisits), None)
            if r is None:
                parts = (loop,)
            else:
                i, j = inner_repeat_span(
                    (self.src[r[0]],) + tuple(self.tgt[s] for s in r))
                parts = (self.elementary_parts(r[i:j])
                         + self.elementary_parts(r[:i] + r[j:]))
            self._leaves[loop] = parts
        return parts


def fundamental_factors(g: ReductionGraph, steps: tuple[RewriteStep, ...]):
    """A loop of the explored graph written through the fundamental loops
    that enumerate_elementary_loops covers.  With down and back the tree
    paths of the loop's component (``_Component._tree_paths``) and w its
    base, the loop equals down(w)^-1 . F1^e1 ... Fm^em . down(w) up to
    cancellation: each step s: u -> t off the tree contributes the
    fundamental loop down(u); s; back(t) with e = 1, then down(t); back(t)
    with e = -1, which is the fundamental loop of the first step off the
    tree along back(t), or empty.  Returns (down(w), [(F, e), ...]) as
    paths; None when a step of the loop was not explored."""
    w = steps[0].source
    if w not in g.scc_of:
        return None
    comp = _Component(g, sorted(g.scc_members[g.scc_of[w]],
                                key=g.vertices.__getitem__))
    if not all(s in comp._ids for s in steps):
        return None
    down, back, tree = comp._tree_paths()
    ids = [comp._ids[s] for s in steps]
    factors = []
    for s in ids:
        t = comp.tgt[s]
        if s not in tree:
            factors.append((down[comp.src[s]] + (s,) + back[t], 1))
            if down[t] + back[t]:
                factors.append((down[t] + back[t], -1))

    def path(seq):
        return Path(comp.members[0], tuple(comp.steps[i] for i in seq))
    return path(down[comp.src[ids[0]]]), [(path(f), e) for f, e in factors]


def enumerate_elementary_loops(g: ReductionGraph) -> LoopEnumeration:
    """Equivalence classes (up to circular permutation) of elementary loops
    that cover every loop of the explored graph.

    In each strongly connected component that carries a cycle, every
    fundamental loop (see ``_Component.fundamental_loops``) is peeled as
    ``contract_loop`` peels it, and each elementary core left over gets a
    class unless some reordering of it through exchanges has one.  Given
    the graph, contract_loop then contracts every loop of it (see
    ``fundamental_factors``).  The fundamental loops number |E| - |V| + 1
    per component, so no cap is needed: the exploration budget bounds
    them.  A component that is a whiskered copy of an explored one is
    skipped.  An exchange orbit too large to decide is reported as an
    incomplete enumeration.  Raises TruncatedRegion when a component that
    carries a cycle holds an incomplete word."""
    sccs = _cyclic_sccs(g)
    for members in sccs:
        for w in members:
            if w not in g.complete:
                raise TruncatedRegion(
                    f"a cycle touches the incomplete word {word_str(w)}")
    complete = True
    classes: dict[tuple, LoopClass] = {}
    for members in sccs:
        comp = _Component(g, members)
        if comp.whiskered_copy(g):
            continue
        seen: set[tuple[int, ...]] = set()
        for loop in comp.fundamental_loops():
            try:
                parts = comp.elementary_parts(loop)
                for part in parts:
                    if part in seen:
                        continue
                    seen.add(part)
                    _, core, _ = strip_whiskers(
                        tuple(comp.steps[s] for s in part))
                    if class_reordering(core, classes) is None:
                        rep = canonical_rotation(core)
                        key = _class_key(rep)
                        classes[key] = LoopClass(
                            Loop(Path(rep[0].source, rep)), key)
            except OrbitCapHit:
                complete = False
    ordered = sorted(classes.values(), key=lambda c: (len(c.key), c.key))
    return LoopEnumeration(ordered, complete)


def rotate_conjugators(f: Loop, e: Loop):
    """Given equivalent loops f = f1...fp and e a circular permutation of
    f, return (h, k) with h a zigzag, k a forward path, h the inverse of k,
    and f equal to h * e * k in the free (2,1)-category.  None when e is
    not a rotation of f."""
    fs = f.steps
    for j in range(len(fs)):
        if fs[j:] + fs[:j] == e.steps:
            k = Path(fs[j].source, fs[j:]) if j else Path(f.base)
            h = k.zigzag().inverse()
            return h, k
    return None
