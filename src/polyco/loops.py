"""Forward rewriting loops and their elementary classes, read on traces.

A loop is a nonempty forward path back to its source.  Its reorderings
through exchanges of steps with disjoint redexes are the linearizations of
one Mazurkiewicz trace (Cartier and Foata, LNM 85, 1969; Diekert and
Rozenberg, *The Book of Traces*, 1995).  An ideal of the trace is a set of
steps that can be applied first, and the word it reaches does not depend
on their order.  A loop is elementary when no two nested ideals, other
than the empty one and the whole loop, reach the same word (no reordering
factors it through a smaller loop) and no common whisker can be stripped
from all its steps.  Two elementary loops are in one class when their
cyclic traces are conjugate.

The classes are found from fundamental cycles, not by enumerating every
cycle: in each strongly connected component, every step off a
breadth-first spanning tree closes one loop through the tree and a
geodesic back to its root.  These |E| - |V| + 1 loops generate all loops
of the component up to conjugation (Squier's finite homotopy basis), so
once each of them contracts onto the classes, every loop does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter

from .core import Rule, Word, word_str
from .engine import (Path, ReductionGraph, RewriteStep, TruncatedRegion,
                     exchange_positions, exchange_swap)


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


@dataclass(frozen=True)
class LoopClass:
    representative: Loop
    key: tuple[str, ...]


@dataclass
class LoopEnumeration:
    classes: list[LoopClass]
    # always True: enumeration raises TruncatedRegion rather than stop short
    complete: bool


def strip_whiskers(steps: tuple[RewriteStep, ...]
                   ) -> tuple[Word, tuple[RewriteStep, ...], Word]:
    """Largest common left and right whiskers of the steps of a path, and
    the core steps with those contexts removed.  No step of a path rewrites
    a letter left of its leftmost redex or right of its rightmost one, so
    the whiskers are as long as the shortest left and right contexts."""
    nl = min(len(s.left) for s in steps)
    nr = min(len(s.right) for s in steps)
    first = steps[0]
    core = tuple(RewriteStep(s.left[nl:], s.rule, s.right[:len(s.right) - nr],
                             s.forward)
                 for s in steps)
    return first.left[:nl], core, first.right[len(first.right) - nr:]


def is_context_minimal(loop: Loop) -> bool:
    """True when the whiskers strip_whiskers would remove are empty."""
    u, _, v = strip_whiskers(loop.steps)
    return not u and not v


def word_sequence(steps) -> tuple[Word, ...]:
    return (steps[0].source,) + tuple(s.target for s in steps)


def _to_front(seq: tuple, r: int, swap=exchange_swap) -> tuple | None:
    """``seq`` with its r-th step exchanged to the front, or None when it
    cannot pass a step before it; ``swap(a, b)`` is the exchanged pair of
    consecutive steps a; b, or None."""
    x = seq[r]
    passed = []
    for k in range(r - 1, -1, -1):
        pair = swap(seq[k], x)
        if pair is None:
            return None
        x, y = pair
        passed.append(y)
    return (x, *reversed(passed), *seq[r + 1:])


def split_loop(steps: tuple, words: tuple, swap=exchange_swap,
               target=attrgetter("target")):
    """A reordering of the loop ``steps`` through exchanges that revisits a
    word, as (reordering, its words, (i, j)) with words[i] == words[j]; None
    when none does.  ``words`` is the loop's word sequence and ``target(a)``
    the word a step reaches; steps are opaque otherwise.

    The loop's own earliest revisit comes first.  Otherwise the ideals of
    its trace are searched breadth-first, each a bitmask over positions
    kept with its complement in an order that applies, until one reaches
    the word of an ideal nested with it (the loop's prefixes are known from
    the start).  The reordering applies the smaller ideal, then the rest of
    the larger, then the rest of the loop."""
    first: dict = {}
    for k, w in enumerate(words[:-1]):
        i = first.setdefault(w, k)
        if i != k:
            return steps, words, (i, k)
    if not any(map(swap, steps, steps[1:])):
        return None  # no two steps exchange: the loop is its only reordering
    # each word reached, to the ideals that reach it
    reached = {w: [(1 << k) - 1] for w, k in first.items()}
    full = (1 << len(steps)) - 1
    level = {0: (steps, tuple(range(len(steps))))}
    while level:
        grown = {}
        for ideal, (rest, positions) in level.items():
            for r, pos in enumerate(positions):
                bigger = ideal | 1 << pos
                if bigger in grown or bigger == full:
                    continue
                moved = _to_front(rest, r, swap)
                if moved is None:
                    continue
                at = reached.setdefault(target(moved[0]), [])
                other = next((i for i in at
                              if i != bigger and i & bigger in (i, bigger)),
                             None)
                if other is not None:
                    return _exposing(steps, words[0], other & bigger,
                                     other | bigger, swap, target)
                at.append(bigger)
                grown[bigger] = (moved[1:],
                                 positions[:r] + positions[r + 1:])
        level = grown
    return None


def _exposing(steps, base, inner: int, outer: int, swap, target):
    """``split_loop``'s result for two nested ideals that reach one word."""
    seq = list(steps)
    # 2 in inner, 1 in outer only, 0 outside both; ideals are closed under
    # going earlier, so an insertion sort by exchanges puts them first
    part = [(inner >> p & 1) + (outer >> p & 1) for p in range(len(seq))]
    for k in range(1, len(seq)):
        while k and part[k - 1] < part[k]:
            seq[k - 1], seq[k] = swap(seq[k - 1], seq[k])
            part[k - 1], part[k] = part[k], part[k - 1]
            k -= 1
    words = (base,) + tuple(map(target, seq))
    return tuple(seq), words, (inner.bit_count(), outer.bit_count())


def _least_linearization(steps: tuple, bound=None):
    """(names, steps) of the least reordering of a loop through exchanges,
    steps compared by name; None once it cannot come out below ``bound``."""
    names, out = [], []
    tied = bound is not None
    while steps:
        name, steps = min(((str(m[0]), m) for r in range(len(steps))
                           if (m := _to_front(steps, r)) is not None),
                          key=itemgetter(0))
        if tied:
            if name > bound[len(names)]:
                return None
            tied = name == bound[len(names)]
        names.append(name)
        out.append(steps[0])
        steps = steps[1:]
    return None if tied else (tuple(names), tuple(out))


@lru_cache(maxsize=4096)
def class_of(core: tuple[RewriteStep, ...]):
    """(key, representative, conjugator) of the class of an elementary core.

    The conjugates of the core's cyclic trace, each moving a step that can
    go first to the end, are searched breadth-first and told apart by how
    often each step has moved, less full turns; the trace of an elementary
    core is connected, so there are finitely many.  The representative is
    the least linearization over them and the key its step names.  The
    conjugator k is a forward path from the representative's base to the
    core's, with core = k⁻¹ · representative · k up to exchange.  Memoised:
    the enumeration and the filler look up the same cores."""
    best = None
    start = (0,) * len(core)
    # turns -> (a linearization, the core position of each of its steps,
    # the conjugator)
    conjugates = {start: (core, tuple(range(len(core))), ())}
    queue = [start]
    for turns in queue:
        steps, positions, path = conjugates[turns]
        least = _least_linearization(steps, best and best[0])
        if least is not None:
            best = least + (path,)
        for r, pos in enumerate(positions):
            moved = _to_front(steps, r)
            if moved is None:
                continue
            more = turns[:pos] + (turns[pos] + 1,) + turns[pos + 1:]
            if min(more):
                more = tuple(t - 1 for t in more)
            if more in conjugates:
                continue
            first, rest = moved[0], moved[1:]
            # conjugating by ``rest`` moves ``first`` to the end, unless the
            # path starts with ``first`` up to exchange: then drop it there
            conjugates[more] = (
                rest + (first,), positions[:r] + positions[r + 1:] + (pos,),
                next((m[1:] for q in range(len(path))
                      if (m := _to_front(path, q)) is not None
                      and m[0] == first), rest + path))
            queue.append(more)
    return best


def is_minimal_for_composition(loop: Loop) -> bool:
    """True when no reordering of the loop through exchanges of disjoint
    redexes revisits an intermediate word.  A revisit in any reordering
    exhibits the loop as a composite through a smaller loop."""
    return split_loop(loop.steps, word_sequence(loop.steps)) is None


def is_elementary(loop: Loop) -> bool:
    return is_context_minimal(loop) and is_minimal_for_composition(loop)


def _cyclic_sccs(g: ReductionGraph) -> list[tuple[Word, ...]]:
    """The strongly connected components that carry a cycle, each with its
    members in exploration order; ordered by shortest word, then by first
    explored member."""
    return sorted((g.scc_members(i) for i in g.scc_cyclic),
                  key=lambda m: (min(map(len, m)), g.vertices[m[0]]))


class _Component:
    """One cyclic strongly connected component on integer ids: members
    0..n-1 in exploration order, and its internal steps numbered by source,
    then in step order.  It is read off the members' successor rows
    (``ReductionGraph.successor_row``) and builds no step object: step s is
    its source and target members, its position, the length of its right
    context, its rule and its code ``position * R + rule index``, R the
    number of rules, so that a member and a code name one step.  Loops are
    tuples of step ids."""

    def __init__(self, g: ReductionGraph, members: tuple[Word, ...]):
        self.members = members
        self.rules = g.polygraph.rules
        self._width = width = len(self.rules)
        rank = g.polygraph.rule_index
        index = {g.vertices[w]: i for i, w in enumerate(members)}
        self.src: list[int] = []
        self.tgt: list[int] = []
        self.pos: list[int] = []
        self.right: list[int] = []
        self.rule: list[Rule] = []
        self.code: list[int] = []
        self.out: list[list[int]] = []
        # (member, code) -> id of the step out of that member
        self._at: dict[tuple[int, int], int] = {}
        for i, u in enumerate(members):
            found, targets = g.successor_row(u)
            row = []
            for (pos, end, rule), t in zip(found, targets):
                j = index.get(t)
                if j is not None:
                    code = pos * width + rank(rule.name)
                    self._at[i, code] = len(self.src)
                    row.append(len(self.src))
                    self.src.append(i)
                    self.tgt.append(j)
                    self.pos.append(pos)
                    self.right.append(len(u) - end)
                    self.rule.append(rule)
                    self.code.append(code)
            self.out.append(row)
        self._swaps: dict[tuple[int, int], tuple[int, int] | None] = {}
        self._leaves: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def step(self, s: int) -> RewriteStep:
        w = self.members[self.src[s]]
        return RewriteStep(w[:self.pos[s]], self.rule[s],
                           w[len(w) - self.right[s]:])

    def whiskered_copy(self, g: ReductionGraph) -> bool:
        """True when no internal step touches the first letter (or none the
        last), and the members with that letter stripped are explored
        completely: every loop here is then a whiskered loop there."""
        return ((0 not in self.pos
                 and all(g.is_complete(w[1:]) for w in self.members))
                or (0 not in self.right
                    and all(g.is_complete(w[:-1]) for w in self.members)))

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
        """exchange_swap on ids: the positions come from the redexes'
        positions and lengths, and each new step is found by its source
        member and code."""
        key = (a, b)
        if key not in self._swaps:
            ra, rb = self.rule[a], self.rule[b]
            pa, pb = self.pos[a], self.pos[b]
            pair = exchange_positions(pa, len(ra.lhs), len(ra.rhs),
                                      pb, len(rb.lhs), len(rb.rhs))
            if pair is not None:
                width = self._width
                first = self._at[self.src[a],
                                 self.code[b] + (pair[0] - pb) * width]
                pair = (first, self._at[self.tgt[first],
                                        self.code[a] + (pair[1] - pa) * width])
            self._swaps[key] = pair
        return self._swaps[key]

    def elementary_parts(self, loop: tuple[int, ...]
                         ) -> tuple[tuple[int, ...], ...]:
        """The loops that contract_loop's peeling leaves of ``loop``, before
        their whiskers are stripped, memoised."""
        parts = self._leaves.get(loop)
        if parts is None:
            target = self.tgt.__getitem__
            words = (self.src[loop[0]], *map(target, loop))
            split = split_loop(loop, words, self._swap, target)
            if split is None:
                parts = (loop,)
            else:
                r, _, (i, j) = split
                parts = (self.elementary_parts(r[i:j])
                         + self.elementary_parts(r[:i] + r[j:]))
            self._leaves[loop] = parts
        return parts

    def core(self, part: tuple[int, ...]) -> tuple[Word, tuple[int, ...]]:
        """The signature of the core that strip_whiskers leaves of the loop
        ``part``: the core's base word and the code of each of its steps in
        the core.  Equal signatures are equal cores (see core_steps).  No
        step of a path rewrites a letter left of its leftmost redex or right
        of its rightmost one, so the whiskers are as long as the shortest
        left and right contexts."""
        nl = min(map(self.pos.__getitem__, part))
        nr = min(map(self.right.__getitem__, part))
        codes = tuple(map(self.code.__getitem__, part))
        if nl:
            codes = tuple(c - nl * self._width for c in codes)
        base = self.members[self.src[part[0]]]
        return base[nl:len(base) - nr], codes

    def core_steps(self, core: tuple[Word, tuple[int, ...]]
                   ) -> tuple[RewriteStep, ...]:
        """The steps of the core of that signature."""
        word, codes = core
        steps = []
        for code in codes:
            pos, k = divmod(code, self._width)
            rule = self.rules[k]
            end = pos + len(rule.lhs)
            steps.append(RewriteStep(word[:pos], rule, word[end:]))
            word = word[:pos] + rule.rhs + word[end:]
        return tuple(steps)

    def cores(self):
        """The signature of every core that peeling the fundamental loops
        leaves, each once."""
        parts: set[tuple[int, ...]] = set()
        cores: set[tuple[Word, tuple[int, ...]]] = set()
        for loop in self.fundamental_loops():
            for part in self.elementary_parts(loop):
                if part not in parts:
                    parts.add(part)
                    core = self.core(part)
                    if core not in cores:
                        cores.add(core)
                        yield core


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
    i = g.component_of(steps[0].source)
    if i is None:
        return None
    comp = _Component(g, g.scc_members(i))
    internal = {comp.step(k): k for k in range(len(comp.src))}
    ids = [internal.get(s) for s in steps]
    if None in ids:
        return None
    down, back, tree = comp._tree_paths()
    factors = []
    for s in ids:
        t = comp.tgt[s]
        if s not in tree:
            factors.append((down[comp.src[s]] + (s,) + back[t], 1))
            if down[t] + back[t]:
                factors.append((down[t] + back[t], -1))

    def path(seq):
        return Path(comp.members[0], tuple(map(comp.step, seq)))
    return path(down[comp.src[ids[0]]]), [(path(f), e) for f, e in factors]


def enumerate_elementary_loops(g: ReductionGraph) -> LoopEnumeration:
    """Classes of elementary loops, up to conjugation of their traces, that
    cover every loop of the explored graph.

    In each strongly connected component that carries a cycle, every
    fundamental loop (see ``_Component.fundamental_loops``) is peeled as
    ``contract_loop`` peels it, and each elementary core left over gets a
    class unless a conjugate of its trace has one (see ``class_of``).  A
    core is looked up by its signature (``_Component.core``): its steps
    are built and its class looked up once per run.  Given the graph,
    contract_loop then contracts every loop of it (see
    ``fundamental_factors``).  The fundamental loops number |E| - |V| + 1
    per component, so no cap is needed: the exploration budget bounds
    them.  A component that is a whiskered copy of an explored one is
    skipped.  Raises TruncatedRegion when a component that carries a cycle
    holds an incomplete word, naming the budget option that cut it."""
    sccs = _cyclic_sccs(g)
    for members in sccs:
        for w in members:
            if not g.is_complete(w):
                raise TruncatedRegion(
                    f"a cycle touches the word {word_str(w)}, left "
                    f"incomplete by {g.cut_by(w)}")
    classes: dict[tuple, LoopClass] = {}
    seen: set[tuple[Word, tuple[int, ...]]] = set()
    for members in sccs:
        comp = _Component(g, members)
        if comp.whiskered_copy(g):
            continue
        for core in comp.cores():
            if core in seen:
                continue
            seen.add(core)
            key, rep, _ = class_of(comp.core_steps(core))
            if key not in classes:
                classes[key] = LoopClass(Loop(Path(rep[0].source, rep)),
                                         key)
    ordered = sorted(classes.values(), key=lambda c: (len(c.key), c.key))
    return LoopEnumeration(ordered, True)
