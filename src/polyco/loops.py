"""Forward rewriting loops and their elementary representatives.

A loop is a nonempty forward path back to its source.  Two loops are
equivalent when one is a circular permutation of the other.  A loop is
elementary when it is minimal in two senses: no reordering of its steps
through exchanges of disjoint redexes revisits a word (so it does not
factor through a smaller loop), and no common whisker can be stripped
from all its steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

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


def loop_class_key(loop: Loop) -> tuple[str, ...]:
    return tuple(str(s) for s in canonical_rotation(loop.steps))


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


def _word_sequence(steps) -> tuple[Word, ...]:
    return (steps[0].source,) + tuple(s.target for s in steps)


class OrbitCapHit(Exception):
    """The exchange orbit of a loop passed its cap before the search could
    tell whether the loop is minimal for composition."""


def reorder_to_expose_subloop(steps: tuple[RewriteStep, ...],
                              cap: int = 4000):
    """The first exchange-reordering of the steps of a loop, in
    breadth-first order, that revisits a word; None when no reordering
    does, that is when the loop is minimal for composition.  Raises
    OrbitCapHit when the orbit has more than ``cap`` elements and none of
    them revisits a word.

    A swap of steps i and i+1 changes only the word between them, so each
    reordering is tested for a revisit in O(1) when it is generated."""
    start = tuple(steps)
    words = _word_sequence(start)
    if len(set(words)) < len(start):
        return start
    seen = {start}
    queue = deque([(start, words)])
    while queue:
        cur, words = queue.popleft()
        present = set(words)
        for i in range(len(cur) - 1):
            swapped = exchange_swap(cur[i], cur[i + 1])
            if swapped is None:
                continue
            nxt = cur[:i] + swapped + cur[i + 2:]
            mid = swapped[0].target
            if mid != words[i + 1] and mid in present:
                return nxt
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(seen) > cap:
                raise OrbitCapHit(
                    f"the exchange orbit of ({Path(start[0].source, start)}) "
                    f"has more than {cap} reorderings")
            queue.append((nxt, words[:i + 1] + (mid,) + words[i + 2:]))
    return None


def is_minimal_for_composition(loop: Loop, cap: int = 4000) -> bool:
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


def _circuits(succ: list[list[int]]):
    """Johnson's circuit search (SIAM J. Comput. 4(1), 1975) inside one
    strongly connected component whose members are numbered 0..n-1 and
    whose distinct internal successors are ``succ``: every simple cycle
    once, as the list of its members starting at its least one.

    Circuits through ``s`` are searched among members ``s`` and up.  A
    member stays ``blocked`` until a circuit is found through it or
    through a member it waits on (``blockers``, Johnson's B lists);
    ``closed`` records for each member of the path whether a circuit was
    found below it."""
    n = len(succ)
    for s in range(n):
        sub = [[w for w in succ[v] if w >= s] for v in range(n)]
        path = [s]
        blocked = [False] * n
        blocked[s] = True
        blockers: list[set[int]] = [set() for _ in range(n)]
        stack = [iter(sub[s])]
        closed = [False]
        while stack:
            for w in stack[-1]:
                if w == s:
                    yield list(path)
                    closed[-1] = True
                elif not blocked[w]:
                    path.append(w)
                    blocked[w] = True
                    stack.append(iter(sub[w]))
                    closed.append(False)
                    break
            else:
                stack.pop()
                v = path.pop()
                if closed.pop():
                    if closed:
                        closed[-1] = True
                    todo = [v]
                    while todo:
                        u = todo.pop()
                        if blocked[u]:
                            blocked[u] = False
                            todo.extend(blockers[u])
                            blockers[u].clear()
                else:
                    for w in sub[v]:
                        blockers[w].add(v)


def _vertex_cycles(g: ReductionGraph, sccs: list[list[Word]]):
    """Every simple cycle of the vertex graph once, as the list of the
    parallel steps along each of its edges."""
    for members in sccs:
        index = {w: i for i, w in enumerate(members)}
        parallel: dict[tuple[int, int], list[RewriteStep]] = {}
        succ: list[list[int]] = []
        for i, u in enumerate(members):
            succ.append([])
            for s in g.out[u]:
                j = index.get(s.target)
                if j is not None:
                    edge = parallel.setdefault((i, j), [])
                    if not edge:
                        succ[i].append(j)
                    edge.append(s)
        for cycle in _circuits(succ):
            yield [parallel[e] for e in zip(cycle, cycle[1:] + cycle[:1])]


def enumerate_elementary_loops(g: ReductionGraph, cap: int = 10000
                               ) -> LoopEnumeration:
    """Equivalence classes (up to circular permutation) of elementary loops
    visible in the explored graph.  Simple cycles of the vertex graph are
    found by Johnson's search inside each strongly connected component that
    carries a cycle, in a fixed order, and expanded over parallel steps.
    The cap bounds the number of cycles considered; exceeding it, or an
    exchange orbit too large to decide, is reported as an incomplete
    enumeration.  Raises TruncatedRegion when a component that carries a
    cycle holds an incomplete word."""
    sccs = _cyclic_sccs(g)
    for members in sccs:
        for w in members:
            if w not in g.complete:
                raise TruncatedRegion(
                    f"a cycle touches the incomplete word {word_str(w)}")
    complete = True
    classes: dict[tuple, LoopClass] = {}
    for count, choices in enumerate(_vertex_cycles(g, sccs), 1):
        if count > cap:
            complete = False
            break
        for steps in product(*choices):
            loop = Loop(Path(steps[0].source, steps))
            try:
                if not is_elementary(loop):
                    continue
            except OrbitCapHit:
                complete = False
                continue
            key = loop_class_key(loop)
            if key not in classes:
                rep = canonical_rotation(steps)
                classes[key] = LoopClass(Loop(Path(rep[0].source, rep)), key)
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
