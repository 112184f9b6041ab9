"""Rewriting steps, paths, zigzags and bounded exploration of reduction graphs.

A rewriting step applies a rule inside a context: ``left . rule . right``.
Forward paths compose steps source-to-target; zigzags also allow inverse
steps.  Exploration is breadth first under an explicit budget, and
truncation is recorded rather than silently ignored: queries that depend
on unexplored regions raise TruncatedRegion.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, KeysView, ValuesView
from dataclasses import dataclass

from .core import Polygraph, Rule, Word, word_str


class TruncatedRegion(Exception):
    """The query needs vertices or edges beyond the explored region."""


class Unreachable(Exception):
    """No rewriting path between the two words in the explored graph."""


@dataclass(frozen=True, slots=True, init=False)
class RewriteStep:
    """One application of a rule in a context, forward or inverse.

    A forward step rewrites ``left + lhs + right`` to ``left + rhs + right``;
    an inverse step goes the other way.
    """

    left: Word
    rule: Rule
    right: Word
    forward: bool = True

    def __init__(self, left: Word, rule: Rule, right: Word,
                 forward: bool = True):
        # through the slots' own setters, which the frozen __setattr__ does
        # not see: the generated __init__ calls object.__setattr__ per field,
        # and steps are built by the tens of thousands
        _set_left(self, left)
        _set_rule(self, rule)
        _set_right(self, right)
        _set_forward(self, forward)

    @property
    def source(self) -> Word:
        inner = self.rule.lhs if self.forward else self.rule.rhs
        return self.left + inner + self.right

    @property
    def target(self) -> Word:
        inner = self.rule.rhs if self.forward else self.rule.lhs
        return self.left + inner + self.right

    @property
    def position(self) -> int:
        return len(self.left)

    def inverse(self) -> "RewriteStep":
        return RewriteStep(self.left, self.rule, self.right, not self.forward)

    def whisker(self, u: Word, v: Word) -> "RewriteStep":
        return RewriteStep(u + self.left, self.rule, self.right + v,
                           self.forward)

    def __str__(self):
        mark = "" if self.forward else "-"
        return (f"{word_str(self.left)}|{self.rule.name}|"
                f"{word_str(self.right)}{mark}")


_set_left = RewriteStep.left.__set__
_set_rule = RewriteStep.rule.__set__
_set_right = RewriteStep.right.__set__
_set_forward = RewriteStep.forward.__set__


def parse_step(p: Polygraph, text: str, line: int | None = None) -> RewriteStep:
    from .core import ParseError, parse_word
    text = text.strip()
    forward = True
    if text.endswith("-"):
        forward = False
        text = text[:-1].rstrip()
    fields = text.split("|")
    if len(fields) != 3:
        raise ParseError(f"expected LCTX|RULE|RCTX, got {text!r}", line)
    left = parse_word(fields[0].strip(), line)
    right = parse_word(fields[2].strip(), line)
    for letter in left + right:
        if letter not in p.generators:
            raise ParseError(f"unknown generator {letter!r}", line)
    try:
        rule = p.rule(fields[1].strip())
    except KeyError:
        raise ParseError(f"unknown rule {fields[1].strip()!r}", line)
    return RewriteStep(left, rule, right, forward)


class IllComposed(ValueError):
    """Cells pasted along mismatched boundaries."""


@dataclass(frozen=True)
class ZigzagPath:
    """A composable sequence of forward and inverse steps.  Its operations
    keep its class, so those of a Path give a Path, except ``inverse`` and
    composing with a zigzag."""

    source: Word
    steps: tuple[RewriteStep, ...] = ()

    def __post_init__(self):
        at = self.source
        for s in self.steps:
            if s.source != at:
                raise IllComposed(
                    f"step {s} does not start at {word_str(at)}")
            at = s.target

    @classmethod
    def _checked(cls, source: Word, steps: tuple[RewriteStep, ...] = ()):
        """One whose steps are known to compose from ``source``: cut,
        composed or whiskered from parts already checked, or read from the
        explored graph, so the walk of __post_init__ is skipped."""
        z = object.__new__(cls)
        # set as the generated __init__ sets them: writing to z.__dict__
        # would give each path its own dict, about twice the memory
        object.__setattr__(z, "source", source)
        object.__setattr__(z, "steps", steps)
        return z

    @property
    def target(self) -> Word:
        return self.steps[-1].target if self.steps else self.source

    def __len__(self):
        return len(self.steps)

    def prefix(self, n: int):
        """The first n steps."""
        return self._checked(self.source, self.steps[:n])

    def compose(self, other: "ZigzagPath"):
        if other.source != self.target:
            raise IllComposed("paths do not compose")
        cls = type(self) if isinstance(other, type(self)) else ZigzagPath
        return cls._checked(self.source, self.steps + other.steps)

    def inverse(self) -> "ZigzagPath":
        return ZigzagPath._checked(
            self.target, tuple(s.inverse() for s in reversed(self.steps)))

    def whisker(self, u: Word, v: Word):
        if not u and not v:
            return self
        return self._checked(u + self.source + v,
                             tuple(s.whisker(u, v) for s in self.steps))

    def forward_path(self) -> "Path":
        return Path(self.source, self.steps)

    def __str__(self):
        if not self.steps:
            return f"id {word_str(self.source)}"
        return " ; ".join(str(s) for s in self.steps)


class Path(ZigzagPath):
    """A forward rewriting path: a zigzag whose steps are all forward.  It
    never equals a ZigzagPath, even on the same steps."""

    def __post_init__(self):
        at = self.source
        for s in self.steps:
            if not s.forward:
                raise IllComposed(f"inverse step {s} in a forward path")
            if s.source != at:
                raise IllComposed(
                    f"step {s} does not start at {word_str(at)}")
            at = s.target

    def zigzag(self) -> ZigzagPath:
        return ZigzagPath._checked(self.source, self.steps)


def zigzag(source: Word, *parts) -> ZigzagPath:
    """Compose steps, paths and zigzags into one zigzag from ``source``."""
    z = ZigzagPath(source)
    for part in parts:
        if isinstance(part, RewriteStep):
            part = ZigzagPath(part.source, (part,))
        z = z.compose(part)
    return z


def _source_block(s: RewriteStep) -> Word:
    return s.rule.lhs if s.forward else s.rule.rhs


def _target_block(s: RewriteStep) -> Word:
    return s.rule.rhs if s.forward else s.rule.lhs


def exchange_positions(a: int, a_in: int, a_out: int, b: int, b_in: int,
                       b_out: int) -> tuple[int, int] | None:
    """For consecutive steps, the first rewriting a block of length a_in at
    position a into one of length a_out, the second a block of length b_in
    at b (in the word between them) into one of length b_out: when the two
    blocks are disjoint, the positions at which the second step, then the
    first, apply once exchanged; else None."""
    if b + b_in <= a:
        return b, a + b_out - b_in
    if b >= a + a_out:
        return b - a_out + a_in, a
    return None


def exchange_swap(s1: RewriteStep, s2: RewriteStep):
    """If the redexes of consecutive steps s1;s2 are disjoint, return the
    equivalent pair applying the other one first, else None."""
    if s2.source != s1.target:
        raise IllComposed("steps do not compose")
    in1, out1 = _source_block(s1), _target_block(s1)
    src2, tgt2 = _source_block(s2), _target_block(s2)
    at = exchange_positions(len(s1.left), len(in1), len(out1),
                            len(s2.left), len(src2), len(tgt2))
    if at is None:
        return None
    b, a = at
    u = s1.left + in1 + s1.right
    w = s2.left + tgt2 + s2.right
    return (RewriteStep(u[:b], s2.rule, u[b + len(src2):], s2.forward),
            RewriteStep(w[:a], s1.rule, w[a + len(out1):], s1.forward))


def normalize_zigzag(z: ZigzagPath) -> ZigzagPath:
    """Canonical form of a zigzag up to cancellation of inverse pairs and
    exchange of disjoint redexes (later redex strictly to the left moves
    first).  Two zigzags denote the same 2-cell of the free (2,1)-category
    when their canonical forms coincide."""
    steps = list(z.steps)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(steps) - 1:
            s, t = steps[i], steps[i + 1]
            if (s.left == t.left and s.rule == t.rule and s.right == t.right
                    and s.forward != t.forward):
                del steps[i:i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        for i in range(len(steps) - 1):
            s2 = steps[i + 1]
            if (len(s2.left) + len(_source_block(s2))
                    <= len(steps[i].left)):
                swapped = exchange_swap(steps[i], steps[i + 1])
                if swapped is not None:
                    steps[i], steps[i + 1] = swapped
                    changed = True
                    break
    return ZigzagPath(z.source, tuple(steps))


def zigzags_equal(a: ZigzagPath, b: ZigzagPath) -> bool:
    """Equality of the 2-cells denoted by two zigzags: same endpoints and
    the composite of one with the inverse of the other reduces to an
    identity."""
    if a.source != b.source or a.target != b.target:
        return False
    if normalize_zigzag(a) == normalize_zigzag(b):
        return True
    return not normalize_zigzag(a.inverse().compose(b)).steps


def redexes(p: Polygraph, u: Word, prefix: list | None = None
            ) -> list[tuple[int, int, Rule]]:
    """Every redex of u as (position, end, rule), ordered by position then
    rule declaration order.

    Without ``prefix`` the word is scanned: at each position only the rules
    whose left-hand side starts with the letter there are tried.  Given
    ``prefix``, the redex list of ``u[:-1]``, only the redexes that end at
    the last letter are looked for: those of the rules whose left-hand side
    ends with it, longest first, appended to a copy of ``prefix``.  Such a
    redex can start before an inherited one, or at its position, and then
    the list is sorted by (position, declaration index)."""
    if prefix is None:
        out = []
        by_first = p.rules_by_first
        for pos, x in enumerate(u):
            for rule in by_first.get(x, ()):
                lhs = rule.lhs
                end = pos + len(lhs)
                if u[pos:end] == lhs:
                    out.append((pos, end, rule))
        return out
    n = len(u)
    out = prefix[:]
    for rule in p.rules_by_last.get(u[-1], ()):
        lhs = rule.lhs
        if u[-len(lhs):] == lhs:
            out.append((n - len(lhs), n, rule))
    k = len(prefix)
    if 0 < k < len(out) and out[k][0] <= prefix[-1][0]:
        out.sort(key=lambda r: (r[0], p.rule_index(r[2].name)))
    return out


def enumerate_steps(p: Polygraph, u: Word) -> list[RewriteStep]:
    """All forward steps out of u, one per redex, in the order of
    ``redexes``."""
    return [RewriteStep(u[:pos], rule, u[end:])
            for pos, end, rule in redexes(p, u)]


@dataclass(frozen=True)
class ExplorationBudget:
    max_word_len: int = 10
    max_states: int = 10000
    max_depth: int = 200


class _StepRows(dict):
    """``ReductionGraph.out``: every explored word, in id order, to the tuple
    of steps out of it.  Iteration, ``len``, ``in``, ``get`` and the views
    cover every explored word; the dict itself holds only the rows stored so
    far.  Exploration stores the rows of the words a budget cut; the row of
    a complete word is ``tuple(enumerate_steps(p, u))``, built by
    ``__missing__`` when first read and kept, so reading a stored row stays
    a plain dict lookup."""

    def __init__(self, polygraph: Polygraph, ids: dict[Word, int]):
        super().__init__()
        self._polygraph = polygraph
        self._ids = ids

    def __missing__(self, u: Word) -> tuple[RewriteStep, ...]:
        if u not in self._ids:
            raise KeyError(u)
        row = self[u] = tuple(enumerate_steps(self._polygraph, u))
        return row

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)

    def __contains__(self, u):
        return u in self._ids

    def get(self, u, default=None):
        return self[u] if u in self._ids else default

    def keys(self):
        return KeysView(self)

    def items(self):
        return ItemsView(self)

    def values(self):
        return ValuesView(self)


class ReductionGraph:
    """The explored part of the reduction graph of a presentation.

    Vertices are words, numbered in the order exploration met them
    (``vertices`` maps each word to its id); edges are forward steps.  A
    vertex is complete (``is_complete``) when every step out of it was
    kept; budget refusals mark the vertex incomplete, record the option
    behind them (``cut_by``) and set the truncated flag.  ``refused``
    counts the seeds --max-states refused, the first of them
    ``first_refused``.

    Exploration walks one depth level after the other, each in id order.
    It reads a word's redexes off those of its prefix ``u[:-1]`` (redexes)
    when the walk reached the prefix first, as it does for every word when
    the seeds are all words shortest first, and scans the word in full
    otherwise.  The redex lists of the words shorter than
    ``max_word_len``, the only ones that can be a prefix, are kept in a
    dict local to the pass and dropped with it.

    Exploration computes each step's target in place and records only its
    id: ``_succ[i]`` holds the ids of the targets of the steps out of the
    vertex of id i, in step order.  ``out[u]`` holds those steps; it is
    built when first read, except for the words a budget cut, whose kept
    steps are stored as they are explored.  Every pass over the edges that
    needs only their targets reads the successor rows, and so does
    ``successor_row``, which pairs a row with its steps' redexes.  After
    exploration, once its prefix redex lists are released, one Tarjan pass
    over the rows numbers the components in the order it closes them and
    sets the component of each id, one int in an array
    (``component_of``); ``scc_sinks`` (the closed components of
    complete words: the quasi-normal forms) and ``scc_cyclic`` (the
    ascending indices of the components that carry a cycle: more than one
    member, or a step from a word to itself).  ``scc_members(i)`` gives
    component i's words in id order: a tuple is kept only for a component
    of more than one word, and a one-word component is read off the id of
    its root.

    Every search is one breadth-first search over id rows
    (_breadth_first).  ``distance`` and ``geodesic`` read one backward
    search from their target, cached per target, over a predecessor index
    built from the successor rows on the first such query, and each
    geodesic found is cached per pair of ids; ``component``
    searches both ways, ``reachable`` and ``quasi_normal_forms`` forward.
    ``reaches`` reads the source's successor row, then one forward search
    kept per source.
    """

    def __init__(self, polygraph: Polygraph, budget: ExplorationBudget):
        self.polygraph = polygraph
        self.budget = budget
        self.vertices: dict[Word, int] = {}
        self.out = _StepRows(polygraph, self.vertices)
        self.truncated = False
        self.refused = 0
        self.first_refused: Word | None = None
        self.scc_sinks: set[int] = set()
        self.scc_cyclic: list[int] = []
        self._succ: list[tuple[int, ...]] = []
        self._cut: dict[int, str] = {}
        self._words: list[Word] = []
        self._comp = array("i")
        self._roots = array("i")
        self._members: dict[int, tuple[Word, ...]] = {}
        self._pred: tuple[list[Word], array, array] | None = None
        self._dist_to: dict[int, dict[int, int]] = {}
        self._geodesics: dict[tuple[int, int], Path] = {}
        self._reach_from: dict[int, dict[int, int]] = {}

    # -- exploration -------------------------------------------------

    def _explore(self, seeds) -> None:
        budget = self.budget
        max_len, max_states = budget.max_word_len, budget.max_states
        p = self.polygraph
        ids = self.vertices
        out = self.out
        succ = self._succ
        cut = self._cut
        level = []
        for w in seeds:
            if w in ids:
                continue
            if len(w) > max_len or len(ids) >= max_states:
                if len(w) <= max_len:
                    if not self.refused:
                        self.first_refused = w
                    self.refused += 1
                self.truncated = True
                continue
            ids[w] = len(ids)
            level.append(w)
        # the redex lists of the words that can be a prefix
        scanned: dict[Word, list] = {}
        depth = 0
        # each level holds the ids that follow the level before, in order,
        # so each word's successor row is appended at its id
        while level:
            following = []
            for u in level:
                found = redexes(p, u, scanned.get(u[:-1]))
                if len(u) < max_len:
                    scanned[u] = found
                if depth >= budget.max_depth and found:
                    out[u] = ()
                    succ.append(())
                    cut[len(succ) - 1] = "--max-depth"
                    continue
                row = []
                refused = None
                for pos, end, rule in found:
                    t = u[:pos] + rule.rhs + u[end:]
                    j = ids.get(t)
                    if j is None:
                        if len(t) > max_len:
                            refused = refused or "--max-word-len"
                        elif len(ids) >= max_states:
                            refused = refused or "--max-states"
                        else:
                            j = ids[t] = len(ids)
                            following.append(t)
                    row.append(j)
                if refused is None:
                    succ.append(tuple(row))
                    continue
                # keep the steps whose target the budget let in
                steps = [RewriteStep(u[:pos], rule, u[end:])
                         for pos, end, rule in found]
                out[u] = tuple(s for s, j in zip(steps, row) if j is not None)
                succ.append(tuple(j for j in row if j is not None))
                cut[len(succ) - 1] = refused
            level = following
            depth += 1
        if cut:
            self.truncated = True

    def _compute_sccs(self) -> None:
        # iterative Tarjan on vertex ids; it closes a component only after
        # every component its steps lead to, so the steps out of a closed
        # component's members lead into it or into components closed before
        succ = self._succ
        n = len(succ)
        words = self._words = list(self.vertices)
        cut = self._cut
        index = [-1] * n
        low = [0] * n
        on_stack = bytearray(n)
        comp = array("i", [-1]) * n
        roots = array("i")
        stack: list[int] = []
        counter = 0
        multi: dict[int, tuple[Word, ...]] = {}
        sinks: set[int] = set()
        cyclic: list[int] = []

        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            work = [(root, iter(succ[root]))]
            while work:
                v, it = work[-1]
                for w in it:
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = 1
                        work.append((w, iter(succ[w])))
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work:
                        pv = work[-1][0]
                        if low[v] < low[pv]:
                            low[pv] = low[v]
                    if low[v] != index[v]:
                        continue
                    i = len(roots)
                    roots.append(v)
                    w = stack.pop()
                    if w == v:
                        on_stack[v] = 0
                        comp[v] = i
                        # one member, the common case: its steps stay
                        # inside when each one goes from v to v
                        row = succ[v]
                        loops = row.count(v)
                        if loops:
                            cyclic.append(i)
                        if loops == len(row) and v not in cut:
                            sinks.add(i)
                        continue
                    members = [w]
                    while w != v:
                        w = stack.pop()
                        members.append(w)
                    cyclic.append(i)
                    # a step out of a member stays inside exactly when its
                    # target is still on the stack: a target below v there
                    # would have lowered low[v]
                    if (all(on_stack[t] for m in members for t in succ[m])
                            and not any(m in cut for m in members)):
                        sinks.add(i)
                    for m in members:
                        on_stack[m] = 0
                        comp[m] = i
                    multi[i] = tuple(words[m] for m in sorted(members))
        self._comp = comp
        self._roots = roots
        self._members = multi
        self.scc_sinks = sinks
        self.scc_cyclic = cyclic

    # -- queries -----------------------------------------------------

    def has_cycle(self) -> bool:
        return bool(self.scc_cyclic)

    def is_complete(self, u: Word) -> bool:
        """Whether u was explored and every step out of it kept."""
        i = self.vertices.get(u)
        return i is not None and i not in self._cut

    def scc_members(self, i: int) -> tuple[Word, ...]:
        """The words of component i, in id order.  Only a component of
        more than one word keeps its tuple; a one-word component is
        answered from its root's id."""
        return self._members.get(i) or (self._words[self._roots[i]],)

    def component_of(self, u: Word) -> int | None:
        """The index of the strongly connected component of u, as
        ``scc_members`` reads it; None when u was not explored."""
        i = self.vertices.get(u)
        return None if i is None else self._comp[i]

    def cut_by(self, u: Word) -> str | None:
        """The budget option that left the explored word u incomplete:
        ``--max-depth`` when u lies at the depth bound, else the option
        behind the first refusal among its steps' targets,
        ``--max-word-len`` or ``--max-states``; None when u is complete."""
        return self._cut.get(self.vertices[u])

    def successor_row(self, u: Word
                      ) -> tuple[list[tuple[int, int, Rule]], tuple[int, ...]]:
        """The kept steps out of u as two rows in step order: their redexes
        as (position, end, rule), and the ids of their targets.  A complete
        word's redexes are scanned, a cut word's read off its stored steps,
        so no step row is built."""
        i = self.vertices.get(u)
        if i is None:
            raise TruncatedRegion(f"{word_str(u)} was not explored")
        if i in self._cut:
            found = [(len(s.left), len(s.left) + len(s.rule.lhs), s.rule)
                     for s in self.out[u]]
        else:
            found = redexes(self.polygraph, u)
        return found, self._succ[i]

    def steps_from(self, u: Word) -> tuple[RewriteStep, ...]:
        if u not in self.vertices:
            raise TruncatedRegion(f"{word_str(u)} was not explored")
        return self.out[u]

    def _reach_ids(self, u: Word, require_complete: bool) -> dict[int, int]:
        """The ids of the words reachable from u, mapped to their distance
        from u, in breadth-first order."""
        i = self.vertices.get(u)
        if i is None:
            raise TruncatedRegion(f"{word_str(u)} was not explored")
        succ, cut = self._succ, self._cut if require_complete else ()

        def row(v):
            if v in cut:
                raise TruncatedRegion(f"{word_str(self._words[v])} is "
                                      f"incomplete in the explored graph")
            return succ[v]
        return _breadth_first(i, row)

    def first_cut(self, u: Word) -> Word | None:
        """The first word that a breadth-first search from u meets and the
        budget left out or incomplete; None when every word u reaches is
        complete."""
        i = self.vertices.get(u)
        if i is None:
            return u
        succ, cut = self._succ, self._cut
        reach = _breadth_first(i, lambda v: () if v in cut else succ[v])
        return next((self._words[v] for v in reach if v in cut), None)

    def reachable(self, u: Word, require_complete: bool = False
                  ) -> dict[Word, int]:
        """Every word reachable from u, mapped to its distance from u."""
        words = self._words
        return {words[v]: d
                for v, d in self._reach_ids(u, require_complete).items()}

    def reaches(self, u: Word, v: Word) -> bool:
        """Whether u rewrites to v in the explored graph, in no step when
        they are equal; False when either was not explored.  A successor
        of u, the common query, is read from u's successor row; otherwise
        from the ids reachable from u, found once per u and kept."""
        ids = self.vertices
        i, j = ids.get(u), ids.get(v)
        if i is None or j is None:
            return False
        if j in self._succ[i]:
            return True
        below = self._reach_from.get(i)
        if below is None:
            below = self._reach_from[i] = self._reach_ids(u, False)
        return j in below

    def _predecessors(self) -> tuple[list[Word], array, array]:
        """Words by id, and the sources of the edges into each id in
        compressed rows: those of id i are ``pred[start[i]:start[i + 1]]``."""
        if self._pred is None:
            succ = self._succ
            start = array("i", [0]) * (len(succ) + 1)
            for row in succ:
                for t in row:
                    start[t + 1] += 1
            for i in range(len(succ)):
                start[i + 1] += start[i]
            pred = array("i", [0]) * start[-1]
            fill = start[:-1]
            for u, row in enumerate(succ):
                for t in row:
                    pred[fill[t]] = u
                    fill[t] += 1
            self._pred = self._words, start, pred
        return self._pred

    def _distances_to(self, v: Word) -> dict[int, int]:
        """The id of every word that reaches v, mapped to its distance to
        v."""
        j = self.vertices.get(v)
        if j is None:
            return {}
        dist = self._dist_to.get(j)
        if dist is None:
            _, start, pred = self._predecessors()
            dist = self._dist_to[j] = _breadth_first(
                j, lambda x: pred[start[x]:start[x + 1]])
        return dist

    def distance(self, u: Word, v: Word) -> int:
        """Length of a shortest rewriting path from u to v."""
        if u not in self.vertices:
            raise TruncatedRegion(f"{word_str(u)} was not explored")
        d = self._distances_to(v).get(self.vertices[u])
        if d is None:
            raise Unreachable(
                f"{word_str(v)} is not reachable from {word_str(u)}")
        return d

    def geodesic(self, u: Word, v: Word) -> Path:
        """A shortest path from u to v: from each word, the first step out
        of it that gets one step closer to v.  Each is kept per pair of
        ids; paths are frozen, so every caller may share it."""
        ids = self.vertices
        i = ids.get(u)
        if i is None:
            raise TruncatedRegion(f"{word_str(u)} was not explored")
        key = i, ids.get(v)
        path = self._geodesics.get(key)
        if path is not None:
            return path
        dist = self._distances_to(v)
        d = dist.get(i)
        if d is None:
            raise Unreachable(
                f"{word_str(v)} is not reachable from {word_str(u)}")
        steps = []
        at = u
        while d:
            d -= 1
            # the search reached ``at`` through a step out of it
            s = next(s for s in self.out[at] if dist.get(ids[s.target]) == d)
            steps.append(s)
            at = s.target
        path = self._geodesics[key] = Path._checked(u, tuple(steps))
        return path

    def quasi_normal_forms(self, u: Word) -> set[Word]:
        """Reachable words in sink strongly connected components."""
        words, comp, sinks = self._words, self._comp, self.scc_sinks
        return {words[v] for v in self._reach_ids(u, True)
                if comp[v] in sinks}

    def component(self, u: Word) -> set[Word]:
        """Undirected component of u: the explored part of its congruence
        class."""
        i = self.vertices.get(u)
        if i is None:
            raise TruncatedRegion(f"{word_str(u)} was not explored")
        words, start, pred = self._predecessors()
        succ = self._succ
        return {words[j] for j in _breadth_first(
            i, lambda v: (*succ[v], *pred[start[v]:start[v + 1]]))}


def _breadth_first(start: int, rows) -> dict[int, int]:
    """Breadth-first search from the id ``start``: every id it reaches
    through ``rows(v)``, the ids one edge from v, mapped to its depth, in
    the order reached.  Every search over the explored graph's id rows is
    one of these."""
    depth = {start: 0}
    queue = [start]
    for v in queue:
        d = depth[v] + 1
        for t in rows(v):
            if t not in depth:
                depth[t] = d
                queue.append(t)
    return depth


def explore(p: Polygraph, seeds, budget: ExplorationBudget | None = None
            ) -> ReductionGraph:
    """Breadth first closure of the seed words under rewriting, within the
    budget.  Deterministic: seeds in the given order, steps by position
    then rule declaration order."""
    g = ReductionGraph(p, budget or ExplorationBudget())
    g._explore(seeds)
    # after exploration, whose prefix redex lists are gone with its frame
    g._compute_sccs()
    return g


TERMINATING = "terminating"
QUASI_TERMINATING_NOT_TERMINATING = "quasi_terminating_not_terminating"
INCONCLUSIVE = "inconclusive"


def classify_termination(g: ReductionGraph) -> str:
    """Classify the explored graph.  Without truncation the answer is exact
    for the explored congruence classes: acyclic means terminating, a cycle
    in a finite closed graph means quasi-terminating but not terminating.
    With truncation the answer is inconclusive."""
    if g.truncated:
        return INCONCLUSIVE
    return (QUASI_TERMINATING_NOT_TERMINATING if g.has_cycle()
            else TERMINATING)
