"""The fast paths of the engine, the diagram search and the CLI against
plain reference implementations kept here."""

import contextlib
import dataclasses
import io
import json
import random
from array import array
from collections import Counter, deque

import pytest

from polyco.branchings import (PEIFFER, LocalBranching, critical_branchings,
                               local_branchings)
from polyco import cli
from polyco.core import (Polygraph, Rule, all_words, parse_polygraph,
                         serialize_polygraph, word_str)
from polyco.decreasing import (UNVERIFIED, VIOLATION, Audit,
                               DecreasingDiagram, PeifferReport,
                               _closability, _compatibility,
                               _cut, _first_splits, _greedy_normalize,
                               _paths_from, _peiffer_audit, _qnf_closes,
                               _read_pair, _strict, audit_seeds,
                               check_decreasing, check_peiffer_decreasing,
                               check_strict, closure_cut, contexts_up_to,
                               decide_peiffer, find_decreasing,
                               governing_option, peiffer_variants)
from polyco.completion import _overlap_closure, _peiffer_closure
from polyco.engine import (ExplorationBudget, Path, RewriteStep,
                           ReductionGraph, TruncatedRegion, Unreachable,
                           ZigzagPath, enumerate_steps, exchange_swap,
                           explore, redexes, zigzags_equal)
from polyco.fixtures import (BUILTIN, abstract_states, braid,
                             convergent_braid, no_fdt, two_letters)
from polyco.labelling import (FinitePosetOrder, LabelOrder, Labelling,
                              LabellingError, NaturalsOrder, QNF,
                              ReachabilityOrder, derived_qnf_map, label_path,
                              label_step, label_target, step_key,
                              validate_qnf_map)
from polyco.loops import (_Component, _cyclic_sccs, class_of,
                          enumerate_elementary_loops, split_loop,
                          strip_whiskers, word_sequence)

from conftest import A3, peiffer_witness, read_a_label_error


# ---------------------------------------------------------------------------
# distances and geodesics against a forward search from each source


def _forward(g, u, require_complete=False):
    """A breadth-first search over the targets of the steps in g.out."""
    dist = {u: 0}
    queue = deque([u])
    while queue:
        v = queue.popleft()
        if require_complete and not g.is_complete(v):
            raise TruncatedRegion(v)
        for s in g.out[v]:
            if s.target not in dist:
                dist[s.target] = dist[v] + 1
                queue.append(s.target)
    return dist


def _reference_geodesic(g, ref, u, v):
    """From each word, the first step out of it that gets one step closer
    to v, measured by forward searches."""
    steps = []
    at = u
    while at != v:
        d = ref[at][v]
        s = next(s for s in g.out[at] if ref[s.target].get(v) == d - 1)
        steps.append(s)
        at = s.target
    return Path(u, tuple(steps))


def _grow_g():
    p = Polygraph("grow", ("a", "b"), (Rule("dup", ("a",), ("a", "a")),
                                       Rule("ab", ("a", "b"), ("b",))))
    return explore(p, all_words(p, 2),
                   budget=ExplorationBudget(max_word_len=4, max_states=100,
                                            max_depth=20))


@pytest.mark.parametrize("name", ["braid_g", "ab_g", "upsilon_g",
                                  "lafont_g", "states_g", "grow"])
def test_distance_and_geodesic_match_forward_search(name, request):
    g = _grow_g() if name == "grow" else request.getfixturevalue(name)
    ref = {u: _forward(g, u) for u in g.vertices}
    for u in g.vertices:
        unreachable = None
        for v in g.vertices:
            want = ref[u].get(v)
            assert g._distances_to(v).get(g.vertices[u]) == want, (u, v)
            if want is None:
                if unreachable is None:
                    unreachable = v
                continue
            assert g.distance(u, v) == want
            assert g.geodesic(u, v) == _reference_geodesic(g, ref, u, v)
        if unreachable is not None:
            with pytest.raises(Unreachable):
                g.distance(u, unreachable)
            with pytest.raises(Unreachable):
                g.geodesic(u, unreachable)
    if name == "grow":
        assert g.truncated and not all(map(g.is_complete, g.vertices))
    explored = next(iter(g.vertices))
    missing = ("z",) * 9
    for u, v in ((missing, explored), (missing, missing)):
        with pytest.raises(TruncatedRegion):
            g.distance(u, v)
        with pytest.raises(TruncatedRegion):
            g.geodesic(u, v)
    with pytest.raises(Unreachable):
        g.distance(explored, missing)
    with pytest.raises(Unreachable):
        g.geodesic(explored, missing)


def test_reachable_maps_words_to_their_distance(upsilon_g):
    for u in list(upsilon_g.vertices)[::7]:
        assert upsilon_g.reachable(u) == _forward(upsilon_g, u)


@pytest.mark.parametrize("name", ["braid_g", "ab_g", "upsilon_g",
                                  "lafont_g", "states_g", "grow"])
def test_component_matches_union_find(name, request):
    g = _grow_g() if name == "grow" else request.getfixturevalue(name)
    root = {u: u for u in g.vertices}

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for u, steps in g.out.items():
        for s in steps:
            root[find(s.target)] = find(u)
    classes = {}
    for u in g.vertices:
        classes.setdefault(find(u), set()).add(u)
    for u in g.vertices:
        assert g.component(u) == classes[find(u)], u


# ---------------------------------------------------------------------------
# splits of a completion pair against the exhaustive loop


def _reference_splits(lab, g, b, p1, p2):
    """Every split of the pair, p1's in the outer loop, each one built and
    passed to check_decreasing."""
    n1, n2 = len(p1), len(p2)
    src1, src2 = p1.source, p2.source
    for i1 in range(n1 + 1):
        for j1 in (0, 1):
            if i1 + j1 > n1:
                continue
            f_prime = Path(src1, p1.steps[:i1])
            g_dprime = Path(f_prime.target, p1.steps[i1:i1 + j1])
            h1 = Path(g_dprime.target, p1.steps[i1 + j1:])
            for i2 in range(n2 + 1):
                for j2 in (0, 1):
                    if i2 + j2 > n2:
                        continue
                    g_prime = Path(src2, p2.steps[:i2])
                    f_dprime = Path(g_prime.target, p2.steps[i2:i2 + j2])
                    h2 = Path(f_dprime.target, p2.steps[i2 + j2:])
                    d = DecreasingDiagram(b, f_prime, g_dprime, h1,
                                          g_prime, f_dprime, h2)
                    ok, _ = check_decreasing(lab, g, d)
                    if ok:
                        return d
    return None


def _split_reading(lab, g, b, p1, p2):
    """The pair cut at the splits that _first_splits reads from the labels
    of _read_pair, as find_decreasing cuts it; None when the pair does not
    close the branching or has no split."""
    labels = _read_pair(lab, g, b, p1, p2)
    splits = labels and _first_splits(lab.order, labels)
    return splits and _cut(b, p1, p2, splits)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LabellingError as e:
        return type(e), str(e)


def _random_labelling(rng, g, labels, missing):
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
             if rng.random() < 0.5]
    table = {step_key(s): rng.choice(labels)
             for steps in g.out.values() for s in steps
             if rng.random() >= missing}
    return Labelling.from_table(table, FinitePosetOrder(labels, pairs))


@pytest.mark.parametrize("seed", range(12))
def test_try_splits_matches_exhaustive_check(seed, braid_p, braid_g,
                                             ab_p, ab_g):
    rng = random.Random(seed)
    p, g = (braid_p, braid_g) if seed % 2 else (ab_p, ab_g)
    lab = _random_labelling(rng, g, list("abcd"[:2 + seed % 3]),
                            missing=0.1 if seed % 3 == 0 else 0.0)
    words = [w for w in g.vertices if 2 <= len(w) <= 6]
    branchings = list(critical_branchings(p))
    for w in rng.sample(words, 4):
        branchings += local_branchings(p, w)
    outcomes = []
    for b in branchings:
        lefts = _paths_from(g, b.first.target, 3)[:30]
        rights = _paths_from(g, b.second.target, 3)[:30]
        meeting = [(x, y) for x in lefts for y in rights
                   if x.target == y.target]
        pairs = rng.sample(meeting, min(len(meeting), 8))
        pairs += [(rng.choice(lefts), rng.choice(rights)) for _ in range(2)]
        pairs.append((rights[0], lefts[0]))
        for p1, p2 in pairs:
            want = _outcome(_reference_splits, lab, g, b, p1, p2)
            assert _outcome(_split_reading, lab, g, b, p1, p2) == want
            outcomes.append(type(want))
    assert DecreasingDiagram in outcomes and type(None) in outcomes
    if seed % 3 == 0:
        assert tuple in outcomes


# ---------------------------------------------------------------------------
# the derived quasi-normal-form map, one query per component


def _reference_qnf_map(g):
    qm = {}
    for w in g.vertices:
        try:
            qs = g.quasi_normal_forms(w)
        except TruncatedRegion:
            continue
        if qs:
            qm[w] = min(qs, key=lambda x: (len(x), x))
    return qm


@pytest.mark.parametrize("name", ["braid_g", "ab_g", "lafont_g",
                                  "truncated_braid"])
def test_derived_qnf_map_per_component_matches_per_word(name, request):
    if name == "truncated_braid":
        p = braid()
        g = explore(p, all_words(p, 7),
                    budget=ExplorationBudget(max_word_len=7, max_states=120,
                                             max_depth=50))
        assert g.truncated
    else:
        g = request.getfixturevalue(name)
    want = _reference_qnf_map(g)
    got = derived_qnf_map(g)
    assert list(got.items()) == list(want.items())


# ---------------------------------------------------------------------------
# steps through the first-letter index of the rules against a plain scan


def _a3():
    return parse_polygraph(A3)


def _prefix_lhs():
    """Left-hand sides that are prefixes of others (a b of a b a), that two
    rules share (a b, b a), and that can start before a redex of the
    word's prefix or at its position (a b a, b a), with rules that shorten
    and lengthen words and pairs that undo each other."""
    rules = [("aba_b", "aba", "b"), ("ab_ba", "ab", "ba"), ("ab_c", "ab", "c"),
             ("c_ba", "c", "ba"), ("ba_1", "ba", ""), ("b_a", "b", "a"),
             ("ba_ab", "ba", "ab")]
    return Polygraph("prefix_lhs", ("a", "b", "c"),
                     tuple(Rule(n, tuple(l), tuple(r)) for n, l, r in rules))


def _scanned_steps(p, u):
    """Every rule tried at every position, by position then declaration."""
    return [RewriteStep(u[:pos], rule, u[pos + len(rule.lhs):])
            for pos in range(len(u) + 1) for rule in p.rules
            if u[pos:pos + len(rule.lhs)] == rule.lhs]


_FIXTURES = [braid, two_letters, convergent_braid, no_fdt, abstract_states,
             _a3, _prefix_lhs]


@pytest.mark.parametrize("make", _FIXTURES)
def test_enumerate_steps_matches_scan_of_every_rule(make):
    p = make()
    rng = random.Random(p.name)
    words = all_words(p, 3) + [
        tuple(rng.choice(p.generators) for _ in range(rng.randrange(4, 11)))
        for _ in range(300)]
    found = 0
    for u in words:
        want = _scanned_steps(p, u)
        assert enumerate_steps(p, u) == want, u
        found += len(want)
    assert found


@pytest.mark.parametrize("make", _FIXTURES)
def test_redexes_read_off_the_prefix_match_a_scan(make):
    """For every word up to length 7, the redexes read off those of its
    prefix are those of the scan, in a list of their own; on prefix_lhs
    some new redexes start before an inherited one or at its position."""
    p = make()
    scanned = {}
    merged = 0
    for u in all_words(p, 7):
        want = scanned[u] = redexes(p, u)
        if not u:
            continue
        prefix = scanned[u[:-1]]
        got = redexes(p, u, prefix)
        assert got == want and got is not prefix, u
        # a new redex goes before an inherited one
        merged += want[:len(prefix)] != prefix
    assert merged or make is not _prefix_lhs


# ---------------------------------------------------------------------------
# the resumed searches of the reachability order against full searches


def test_reachability_order_matches_reachable():
    p = convergent_braid()
    g = explore(p, all_words(p, 3),
                budget=ExplorationBudget(max_word_len=4, max_states=1000,
                                         max_depth=50))
    words = list(g.vertices)
    unexplored = ("s", "t", "s", "t", "s")
    assert unexplored not in g.vertices
    pairs = [(a, b) for a in words + [unexplored]
             for b in words + [unexplored]]
    random.Random(5).shuffle(pairs)
    order = ReachabilityOrder(g)
    below = {b: g.reachable(b) for b in words}
    answers = set()
    for a, b in pairs:
        want = b in below and a != b and a in below[b]
        assert order.less(a, b) == want, (a, b)
        answers.add(want)
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# loop revisits and classes on the trace against a walk over reorderings

_A3 = _a3()


def _reorderings(steps):
    """The reorderings of a loop through exchanges of adjacent steps,
    breadth-first from the loop itself, up to the first that revisits a
    word."""
    seen = {steps}
    queue = deque([steps])
    while queue:
        cur = queue.popleft()
        yield cur
        words = word_sequence(cur)[:-1]
        if len(set(words)) < len(words):
            return
        for i in range(len(cur) - 1):
            pair = exchange_swap(cur[i], cur[i + 1])
            if pair is not None:
                nxt = cur[:i] + pair + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)


def _revisits(steps):
    words = word_sequence(steps)[:-1]
    return len(set(words)) < len(words)


@pytest.mark.parametrize("p,length", [(braid(), 10), (_A3, 7),
                                      (two_letters(), 6)],
                         ids=["braid-10", "a3-7", "two_letters-6"])
def test_trace_decisions_match_a_walk_over_reorderings(p, length):
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    cores = set()
    for members in _cyclic_sccs(g):
        comp = _Component(g, members)
        for ids in comp.fundamental_loops():
            steps = tuple(map(comp.step, ids))
            split = split_loop(steps, word_sequence(steps))
            # the walk ends on its first revisit, or after the whole orbit
            last = deque(_reorderings(steps), maxlen=1)[0]
            assert (split is not None) == _revisits(last)
            if split is None:
                cores.add(strip_whiskers(steps)[1])
                continue
            reordered, words, (i, j) = split
            assert words == word_sequence(reordered) and words[i] == words[j]
            assert zigzags_equal(ZigzagPath(steps[0].source, reordered),
                                 ZigzagPath(steps[0].source, steps))
    assert cores
    for core in cores:
        # every reordering, and the conjugate that moves its first step to
        # the end, is keyed as the core is
        key = class_of(core)[0]
        for r in _reorderings(core):
            assert class_of(r)[0] == class_of(r[1:] + r[:1])[0] == key


def _step_component(g, members):
    """A cyclic component on steps, read off g.out: its internal steps by
    source, then in step order, with the ids of their source and target
    members."""
    index = {w: i for i, w in enumerate(members)}
    steps, src, tgt = [], [], []
    for i, u in enumerate(members):
        for s in g.out[u]:
            if s.target in index:
                steps.append(s)
                src.append(i)
                tgt.append(index[s.target])
    return steps, src, tgt


def _reference_keys(g, members):
    """The class keys of the cores left by peeling the fundamental loops of
    a component, all on steps: a breadth-first tree from the first member
    and geodesics back to it, every loop split by exchange_swap until no
    reordering revisits a word, its whiskers stripped by strip_whiskers."""
    steps, src, tgt = _step_component(g, members)
    n = len(members)
    down = [()] + [None] * (n - 1)
    tree = set()
    queue = [0]
    for u in queue:
        for k in range(len(steps)):
            if src[k] == u and down[tgt[k]] is None:
                down[tgt[k]] = down[u] + (k,)
                tree.add(k)
                queue.append(tgt[k])
    back = [()] + [None] * (n - 1)
    queue = [0]
    for t in queue:
        for k in range(len(steps)):
            if tgt[k] == t and back[src[k]] is None:
                back[src[k]] = (k,) + back[t]
                queue.append(src[k])
    keys = set()
    work = [tuple(steps[k] for k in down[src[s]] + (s,) + back[tgt[s]])
            for s in range(len(steps)) if s not in tree]
    while work:
        loop = work.pop()
        split = split_loop(loop, word_sequence(loop))
        if split is None:
            keys.add(class_of(strip_whiskers(loop)[1])[0])
            continue
        r, _, (i, j) = split
        work += [r[i:j], r[:i] + r[j:]]
    return keys


def _reference_whiskered_copy(g, members):
    steps = _step_component(g, members)[0]
    return any(not any(map(touches, steps))
               and all(g.is_complete(strip(w)) for w in members)
               for touches, strip in ((lambda s: not s.left, lambda w: w[1:]),
                                      (lambda s: not s.right,
                                       lambda w: w[:-1])))


@pytest.mark.parametrize("make,length", [
    (braid, 10), (_a3, 7), (two_letters, 6), (no_fdt, 5), (_prefix_lhs, 6)],
    ids=["braid-10", "a3-7", "two_letters-6", "no_fdt-5", "prefix_lhs-6"])
def test_id_component_matches_the_steps(make, length):
    """The component on ids against the same component on steps: its
    steps, whiskered-copy test, exchanges, core signatures and classes.
    prefix_lhs, whose rules change the length of words, is read on its
    cyclic components of complete words only."""
    p = make()
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    keys = set()
    components = 0
    for members in _cyclic_sccs(g):
        if not all(map(g.is_complete, members)):
            continue
        components += 1
        comp = _Component(g, members)
        steps, src, tgt = _step_component(g, members)
        assert (list(map(comp.step, range(len(comp.src)))), comp.src,
                comp.tgt) == (steps, src, tgt)
        skipped = comp.whiskered_copy(g)
        assert skipped == _reference_whiskered_copy(g, members)
        for a in range(len(steps)):
            for b in comp.out[comp.tgt[a]]:
                pair = comp._swap(a, b)
                want = exchange_swap(steps[a], steps[b])
                assert (pair and tuple(map(comp.step, pair))) == want
        for loop in comp.fundamental_loops():
            for part in comp.elementary_parts(loop):
                core = strip_whiskers(tuple(map(comp.step, part)))[1]
                assert comp.core_steps(comp.core(part)) == core
        got = {class_of(comp.core_steps(c))[0] for c in comp.cores()}
        assert got == _reference_keys(g, members)
        if not skipped:
            keys |= got
    assert components
    if make is not _prefix_lhs:
        classes = enumerate_elementary_loops(g).classes
        assert [c.key for c in classes] == sorted(keys,
                                                  key=lambda k: (len(k), k))


def _narrowed_whiskers(steps):
    """strip_whiskers by narrowing: the longest left and right whiskers
    that every step's context starts or ends with, shortened one letter at
    a time from the shortest context."""
    lefts = [s.left for s in steps]
    rights = [s.right for s in steps]
    nl = min(len(w) for w in lefts)
    while nl and not all(w[:nl] == lefts[0][:nl] for w in lefts):
        nl -= 1
    nr = min(len(w) for w in rights)
    while nr and not all(w[len(w) - nr:] == rights[0][len(rights[0]) - nr:]
                         for w in rights):
        nr -= 1
    core = tuple(RewriteStep(s.left[nl:], s.rule,
                             s.right[:len(s.right) - nr] if nr else s.right,
                             s.forward)
                 for s in steps)
    return lefts[0][:nl], core, rights[0][len(rights[0]) - nr:] if nr else ()


@pytest.mark.parametrize("make,length", [
    (braid, 9), (_a3, 7), (two_letters, 6), (no_fdt, 5)],
    ids=["braid-9", "a3-7", "two_letters-6", "no_fdt-5"])
def test_strip_whiskers_matches_narrowing(make, length):
    """On every fundamental loop and every part peeled off it, the
    whiskers read off the shortest contexts are the narrowed ones, and some
    of those loops have whiskers to strip."""
    p = make()
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    whiskered = 0
    for members in _cyclic_sccs(g):
        comp = _Component(g, members)
        for loop in comp.fundamental_loops():
            for part in (loop, *comp.elementary_parts(loop)):
                steps = tuple(map(comp.step, part))
                got = strip_whiskers(steps)
                assert got == _narrowed_whiskers(steps)
                whiskered += bool(got[0] or got[2])
    assert whiskered


# ---------------------------------------------------------------------------
# narrow exception handlers


class _BrokenOrder(LabelOrder):
    def less(self, a, b):
        raise RuntimeError("broken order")


def test_ill_composed_diagram_is_a_boundary_violation(braid_p, braid_g,
                                                      braid_lab):
    b = critical_branchings(braid_p)[0]
    p1 = Path(b.second.target)
    d = DecreasingDiagram(b, p1, p1, p1, p1, p1, p1)
    ok, violations = check_decreasing(braid_lab, braid_g, d)
    assert not ok and violations[0].condition == "boundary"


def test_label_order_error_propagates_from_closures(braid_p, braid_lab,
                                                    braid_completion):
    lab = Labelling(QNF, _BrokenOrder(), qnf_map=braid_lab.qnf_map)
    broken = dataclasses.replace(braid_completion, labelling=lab)
    w = ("s", "t", "s", "t", "s", "t")
    b = next(b for b in local_branchings(braid_p, w)
             if b.kind == PEIFFER)
    with pytest.raises(RuntimeError, match="broken order"):
        _peiffer_closure(broken, b.first, b.second)
    crit = braid_completion.confluences[0].diagram.branching
    f1, h1 = crit.first.whisker(("t",), ()), crit.second.whisker(("t",), ())
    with pytest.raises(RuntimeError, match="broken order"):
        _overlap_closure(broken, f1, h1)


# ---------------------------------------------------------------------------
# components, cycles, sinks and predecessors against mutual reachability


def _explored(p, length, max_states=10000):
    return explore(p, all_words(p, length),
                   ExplorationBudget(length, max_states))


def _self_loops_g():
    """Steps from a word to itself, which make one-word components carry
    a cycle."""
    p = Polygraph("self_loops", ("a", "b"), (Rule("id", ("a",), ("a",)),
                                             Rule("ab", ("a", "b"), ("b",)),
                                             Rule("ba", ("b",), ("b", "b"))))
    return explore(p, all_words(p, 3), ExplorationBudget(5))


_SCC_GRAPHS = {
    "braid-8": lambda: _explored(braid(), 8),
    "a3-6": lambda: _explored(_A3, 6),
    "two_letters-6": lambda: _explored(two_letters(), 6),
    "no_fdt-5": lambda: _explored(no_fdt(), 5),
    "convergent_braid-7": lambda: _explored(convergent_braid(), 7),
    "braid-8-truncated": lambda: _explored(braid(), 8, max_states=200),
    "self_loops-5": _self_loops_g,
}


@pytest.mark.parametrize("name", [*_SCC_GRAPHS, "upsilon_g"])
def test_sccs_match_mutual_reachability(name, request):
    g = (request.getfixturevalue(name) if name == "upsilon_g"
         else _SCC_GRAPHS[name]())
    reach = {u: set(_forward(g, u)) for u in g.vertices}
    members = [g.scc_members(i) for i in range(len(g._roots))]
    assert sorted(w for m in members for w in m) == sorted(g.vertices)
    cyclic, sinks = set(), set()
    for i, m in enumerate(members):
        u = m[0]
        want = {v for v in reach[u] if u in reach[v]}
        assert set(m) == want and len(m) == len(want), m
        assert all(g.component_of(w) == i for w in m)
        if any(w in reach[s.target] for w in m for s in g.out[w]):
            cyclic.add(i)
        if reach[u] <= want and all(map(g.is_complete, m)):
            sinks.add(i)
    assert g.scc_cyclic == sorted(cyclic)
    assert g.has_cycle() == bool(cyclic)
    assert g.scc_sinks == sinks
    # Tarjan closes a component after every component its steps lead to
    for u, steps in g.out.items():
        assert all(g.component_of(s.target) <= g.component_of(u)
                   for s in steps)
    if name == "braid-8-truncated":
        assert g.truncated and not all(map(g.is_complete, g.vertices))
        assert any(not all(map(g.is_complete, members[i]))
                   and reach[members[i][0]] <= set(members[i])
                   for i in range(len(members)))
    else:
        assert sinks


@pytest.mark.parametrize("name", _SCC_GRAPHS)
def test_components_are_kept_as_ints_and_tuples_of_several_words(name):
    """A word's component is one int in an array, and a tuple of member
    words is kept for exactly the components of more than one word."""
    g = _SCC_GRAPHS[name]()
    assert type(g._comp) is array and g._comp.typecode == "i"
    assert len(g._comp) == len(g.vertices)
    sizes = Counter(g._comp)
    assert sorted(sizes) == list(range(len(g._roots)))
    assert {i: len(m) for i, m in g._members.items()} == \
        {i: k for i, k in sizes.items() if k > 1}


@pytest.mark.parametrize("name", _SCC_GRAPHS)
def test_component_members_come_in_id_order(name):
    """scc_members lists each component's words in id order, which is the
    order the loop enumeration numbers a component's members in."""
    g = _SCC_GRAPHS[name]()
    several = 0
    for i in range(len(g._roots)):
        members = g.scc_members(i)
        assert list(members) == sorted(members, key=g.vertices.__getitem__)
        several += len(members) > 1
    # convergent_braid terminates, and self_loops cycles through one word
    assert several or name in ("convergent_braid-7", "self_loops-5")
    assert _cyclic_sccs(g) == sorted(
        (g.scc_members(i) for i in g.scc_cyclic),
        key=lambda m: (min(map(len, m)), g.vertices[m[0]]))


@pytest.mark.parametrize("name", [*_SCC_GRAPHS, "upsilon_g"])
def test_successor_and_predecessor_rows_match_the_steps(name, request):
    g = (request.getfixturevalue(name) if name == "upsilon_g"
         else _SCC_GRAPHS[name]())
    ids = g.vertices
    assert len(g._succ) == len(ids)
    sources = {u: Counter() for u in ids}
    for u, steps in g.out.items():
        assert g._succ[ids[u]] == tuple(ids[s.target] for s in steps)
        for s in steps:
            sources[s.target][u] += 1
    words, start, pred = g._predecessors()
    assert words == list(ids)
    for i, w in enumerate(words):
        assert Counter(words[y] for y in pred[start[i]:start[i + 1]]) \
            == sources[w], w


# ---------------------------------------------------------------------------
# step rows built on first read, and the searches over successor ids,
# against the enumerated steps and searches over their targets


def _depth_cut_g():
    """The words two steps from the seed are cut by the depth budget."""
    return explore(two_letters(), [("a",) * 6],
                   ExplorationBudget(6, 10000, max_depth=2))


_FIXTURE_GRAPHS = ["braid_g", "ab_g", "upsilon_g", "lafont_g", "states_g"]
_ROW_GRAPHS = {**_SCC_GRAPHS, "grow": _grow_g, "depth-cut": _depth_cut_g,
               "prefix_lhs-4": lambda: explore(
                   _prefix_lhs(), all_words(_prefix_lhs(), 4),
                   ExplorationBudget(6))}
_TRUNCATED = ("braid-8-truncated", "grow", "depth-cut", "prefix_lhs-4")


def _graph(name, request):
    return (request.getfixturevalue(name) if name in _FIXTURE_GRAPHS
            else _ROW_GRAPHS[name]())


def _reference_explore(p, seeds, budget):
    """Exploration as a first-in first-out queue of (word, depth) that scans
    every word in full (_scanned_steps), into a graph whose components the
    graph's own pass then computes."""
    g = ReductionGraph(p, budget)
    ids, succ, cut = g.vertices, g._succ, g._cut
    queue = deque()
    for w in seeds:
        if w in ids:
            continue
        if len(w) > budget.max_word_len or len(ids) >= budget.max_states:
            g.truncated = True
            continue
        ids[w] = len(ids)
        queue.append((w, 0))
    while queue:
        u, d = queue.popleft()
        steps = _scanned_steps(p, u)
        refused = None
        if d >= budget.max_depth and steps:
            steps, refused = [], "--max-depth"
        for s in steps:
            t = s.target
            if t in ids:
                continue
            if len(t) > budget.max_word_len:
                refused = refused or "--max-word-len"
            elif len(ids) >= budget.max_states:
                refused = refused or "--max-states"
            else:
                ids[t] = len(ids)
                queue.append((t, d + 1))
        kept = tuple(s for s in steps if s.target in ids)
        succ.append(tuple(ids[s.target] for s in kept))
        if refused is not None:
            g.truncated = True
            g.out[u] = kept
            cut[ids[u]] = refused
    g._compute_sccs()
    return g


def _seed_orders(p, length):
    """Seed lists and budgets that cut exploration in each way: all words
    up to the length, shortest first and reversed, one word, a state
    budget that runs out in the middle of a depth level, and a depth
    budget."""
    words = all_words(p, length)
    one = [max(words, key=lambda w: len(redexes(p, w)))]
    full = len(explore(p, one, ExplorationBudget(length, 10**6)).vertices)
    return {"all": (words, ExplorationBudget(length, 10**6)),
            "reversed": (words[::-1], ExplorationBudget(length, 10**6)),
            "one": (one, ExplorationBudget(length, 10**6)),
            "one-states": (one, ExplorationBudget(length, full // 2)),
            "all-states": (words, ExplorationBudget(length, len(words) // 2)),
            "one-depth": (one, ExplorationBudget(length, 10**6, 1)),
            "all-depth": (words, ExplorationBudget(length + 1, 10**6, 1))}


@pytest.mark.parametrize("make, length", [
    (braid, 7), (two_letters, 6), (convergent_braid, 5), (no_fdt, 4),
    (abstract_states, 3), (_a3, 5), (_prefix_lhs, 4)],
    ids=lambda x: getattr(x, "__name__", x))
def test_explore_matches_a_queue_that_scans_every_word(make, length):
    """Reading each word's redexes off its prefix's gives the graph of a
    full scan of every word: ids, successor rows, cuts, stored rows,
    complete words and components, whatever the seeds and the cut, and
    whether the seeds come as a list or as a one-shot generator."""
    p = make()
    cuts = Counter()
    for kind, (seeds, budget) in _seed_orders(p, length).items():
        ref = _reference_explore(p, seeds, budget)
        once = (w for w in seeds)
        for g in explore(p, seeds, budget), explore(p, once, budget):
            assert list(g.vertices.items()) == list(ref.vertices.items()), \
                kind
            assert g._succ == ref._succ and g._cut == ref._cut, kind
            assert dict(dict.items(g.out)) == dict(dict.items(ref.out)), kind
            assert g.truncated == ref.truncated
            assert g._comp == ref._comp and g._roots == ref._roots, kind
            assert [g.scc_members(i) for i in range(len(g._roots))] == \
                [ref.scc_members(i) for i in range(len(ref._roots))], kind
            assert (g.scc_sinks, g.scc_cyclic) == \
                (ref.scc_sinks, ref.scc_cyclic)
        cuts.update(g._cut.values())
    assert cuts["--max-states"] and cuts["--max-depth"]
    assert cuts["--max-word-len"] or make is not _prefix_lhs


def test_normal_form_walk_builds_no_step_row():
    """The leftmost-redex walk takes the first step of each word's step
    row without building the row."""
    p = convergent_braid()
    g, ref = _explored(p, 7), _explored(p, 7)
    complete = [u for u in g.vertices if g.is_complete(u)]
    assert complete and not dict.items(g.out)
    for u in complete:
        steps, at = [], u
        while ref.steps_from(at):
            steps.append(ref.steps_from(at)[0])
            at = steps[-1].target
        assert _greedy_normalize(g, u) == Path(u, tuple(steps))
    assert not dict.items(g.out)


@pytest.mark.parametrize("name", [*_FIXTURE_GRAPHS, *_ROW_GRAPHS])
def test_step_rows_are_the_enumerated_steps(name, request):
    g = _graph(name, request)
    p, ids = g.polygraph, g.vertices
    assert list(g.out) == list(g.out.keys()) == list(ids)
    assert len(g.out) == len(ids) and all(u in g.out for u in ids)
    rows = list(g.out.items())
    assert [u for u, _ in rows] == list(ids)
    assert list(g.out.values()) == [row for _, row in rows]
    for u, row in rows:
        steps = tuple(enumerate_steps(p, u))
        assert g.out[u] is row and g.out.get(u) is row
        assert g.steps_from(u) is row
        if g.is_complete(u):
            assert row == steps and g.cut_by(u) is None
        elif name == "depth-cut":
            assert row == () and steps
            assert g.cut_by(u) == "--max-depth"
        else:
            # the budget refused the other targets for good
            assert row == tuple(s for s in steps if s.target in ids)
            assert row != steps
            refused = next(s.target for s in steps if s.target not in ids)
            assert g.cut_by(u) == (
                "--max-word-len" if len(refused) > g.budget.max_word_len
                else "--max-states")
        assert g._succ[ids[u]] == tuple(ids[s.target] for s in row)
    if name in _TRUNCATED:
        assert g.truncated and not all(map(g.is_complete, ids))
    missing = ("z",) * 9
    assert missing not in g.out and g.out.get(missing, ()) == ()
    with pytest.raises(KeyError):
        g.out[missing]
    with pytest.raises(TruncatedRegion):
        g.steps_from(missing)


@pytest.mark.parametrize("name", ["convergent_braid-7", "prefix_lhs-6",
                                  "braid-8-truncated", "grow", "depth-cut"])
def test_successor_rows_pair_the_redexes_with_their_targets(name):
    """A word's successor row pairs each kept step's redex with the id of
    its target: every redex, in position order, for a complete word, and
    only the kept ones for a cut word.  It stores no step row, and an
    unexplored word raises TruncatedRegion."""
    g = (explore(_prefix_lhs(), all_words(_prefix_lhs(), 6),
                 ExplorationBudget(6)) if name == "prefix_lhs-6"
         else _ROW_GRAPHS[name]())
    p, words = g.polygraph, list(g.vertices)
    rows = set(dict.keys(g.out))
    read = Counter()
    for u in g.vertices:
        found, targets = g.successor_row(u)
        assert [words[t] for t in targets] == [
            u[:pos] + rule.rhs + u[end:] for pos, end, rule in found], u
        full = redexes(p, u)
        if g.is_complete(u):
            assert found == full, u
        else:
            assert found != full and all(r in full for r in found), u
        read[g.is_complete(u)] += 1
    missing = ("z",) * 9
    with pytest.raises(TruncatedRegion):
        g.successor_row(missing)
    assert not g.is_complete(missing) and g.component_of(missing) is None
    assert set(dict.keys(g.out)) == rows
    assert all(u in g.vertices and not g.is_complete(u) for u in rows)
    assert read[True]
    if name != "convergent_braid-7":
        assert read[False]


@pytest.mark.parametrize("p, budget", [
    (convergent_braid(), ExplorationBudget(6)),
    (braid(), ExplorationBudget(8, max_states=200))],
    ids=["convergent_braid-6", "braid-8-truncated"])
def test_explore_builds_no_step_out_of_a_complete_word(monkeypatch, p,
                                                       budget):
    built = []
    init = RewriteStep.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.source)

    monkeypatch.setattr(RewriteStep, "__init__", counting)
    g = explore(p, all_words(p, budget.max_word_len), budget)
    assert not any(map(g.is_complete, built))
    if g.truncated:
        assert set(built) == {u for u in g.vertices if not g.is_complete(u)}
    else:
        assert built == []
    # a complete word's steps are built on its first read only
    u = next(u for u, i in g.vertices.items()
             if g.is_complete(u) and len(g._succ[i]) > 1)
    before = len(built)
    row = g.out[u]
    assert built[before:] == [u] * len(row)
    assert g.out[u] is row and len(built) == before + len(row)


@pytest.mark.parametrize("name", [*_FIXTURE_GRAPHS, *_ROW_GRAPHS])
def test_reachable_matches_a_search_over_step_targets(name, request):
    g = _graph(name, request)
    words = list(g.vertices)
    raised = 0
    for u in words[::max(1, len(words) // 300)]:
        for require_complete in (False, True):
            try:
                want = _forward(g, u, require_complete)
            except TruncatedRegion as e:
                with pytest.raises(TruncatedRegion) as got:
                    g.reachable(u, require_complete)
                raised += 1
                assert str(got.value) == (f"{word_str(e.args[0])} is "
                                          f"incomplete in the explored graph")
                continue
            assert list(g.reachable(u, require_complete).items()) \
                == list(want.items())
            if require_complete:
                assert g.quasi_normal_forms(u) == {
                    w for w in want if g.component_of(w) in g.scc_sinks}
    assert raised == 0 or g.truncated
    if name in _TRUNCATED:
        assert raised
    for require_complete in (False, True):
        with pytest.raises(TruncatedRegion):
            g.reachable(("z",) * 9, require_complete)


@pytest.mark.parametrize("name", ["convergent_braid-7", "braid-8-truncated",
                                  "grow", "depth-cut"])
def test_reachability_order_matches_a_search_over_step_targets(name):
    g = _ROW_GRAPHS[name]()
    words = list(g.vertices)[:120]
    unexplored = ("z",) * 9
    below = {b: _forward(g, b) for b in words}
    pairs = [(a, b) for a in words + [unexplored]
             for b in words + [unexplored]]
    random.Random(7).shuffle(pairs)
    order = ReachabilityOrder(g)
    answers = set()
    for a, b in pairs:
        want = b in below and a != b and a in below[b]
        assert order.less(a, b) == want, (a, b)
        answers.add(want)
    assert answers == {True, False}


@pytest.mark.parametrize("name", ["convergent_braid-7", "braid-8-truncated",
                                  "grow", "depth-cut"])
def test_reachability_order_answers_direct_successors_from_the_row(name):
    """``less`` answers a word's direct successors from its successor row,
    and agrees with a forward search there, on the words a budget cut and
    on an unexplored word, whether each query has a fresh order or all
    share one."""
    g = _ROW_GRAPHS[name]()
    words = list(g.vertices)
    cut = [u for u in words if not g.is_complete(u)]
    unexplored = ("z",) * 9
    pairs = [(s.target, u) for u in words[:200] for s in g.out[u]]
    for c in cut[:20] + [unexplored]:
        for x in words[:30]:
            pairs += [(c, x), (x, c)]
    below = {}
    shared = ReachabilityOrder(g)
    answers = Counter()
    for a, b in pairs:
        if b not in below:
            below[b] = _forward(g, b) if b in g.vertices else {}
        want = a != b and a in below[b]
        assert shared.less(a, b) == want, (a, b)
        assert ReachabilityOrder(g).less(a, b) == want, (a, b)
        answers[want] += 1
    assert answers[True] and answers[False]
    assert cut or name == "convergent_braid-7"


# ---------------------------------------------------------------------------
# the Peiffer decision on labels against the decision on built paths


def _reference_decide(lab, g, p, b):
    """Every variant of peiffer_variants built and its steps labelled
    through label_step, psi(f) and psi(h) once: the first variant that
    reads strict, else the first that reads decreasing, else UNDECIDED,
    with the variants read before the first decreasing one as attempts.
    Returns (status, variant, strict, attempts, diagram, witness_loops)."""
    attempts, sides = [], None
    variants = peiffer_variants(p, b)
    for name, cf, ch, witnesses in variants:
        try:
            sides = sides or (label_step(lab, g, b.first),
                              label_step(lab, g, b.second))
            labels = sides + (label_path(lab, g, cf), label_path(lab, g, ch))
        except (LabellingError, TruncatedRegion) as e:
            attempts.append({"variant": name, "ok": False, "error": str(e)})
            continue
        if _strict(lab.order, labels):
            return ("PASS", name, True, attempts, _cut(b, cf, ch),
                    witnesses)
        splits = _first_splits(lab.order, labels)
        if splits is not None:
            d = _cut(b, cf, ch, splits)
            break
        attempts.append({
            "variant": name, "ok": False,
            "labels": {"sides": list(sides),
                       "completions": [list(labels[2]), list(labels[3])]}})
    else:
        return "UNDECIDED", None, False, attempts, None, []
    for later, cf, ch, loops in variants:
        try:
            if _strict(lab.order, sides + (label_path(lab, g, cf),
                                           label_path(lab, g, ch))):
                return ("PASS", later, True, attempts, _cut(b, cf, ch),
                        loops)
        except (LabellingError, TruncatedRegion):
            continue
    return "PASS", name, False, attempts, d, witnesses


def _audited(p, length, bound=None, label="qnf", max_len=None,
             max_states=100000, max_depth=200):
    """p explored from every word up to ``length`` (words up to
    ``max_len``, the length by default, at most ``max_states`` and
    ``max_depth`` steps from the seeds), its labelling, and the Peiffer
    bound to audit it at (the length by default)."""
    g = explore(p, all_words(p, length),
                ExplorationBudget(max_len or length, max_states, max_depth))
    lab = (Labelling.nf(g) if label == "nf"
           else Labelling.qnf(derived_qnf_map(g)))
    return p, g, lab, bound or length


def _tables(p, length, seed):
    """Random table labellings of p explored up to the length, some steps
    without a label, audited at the length."""
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    rng = random.Random(seed)
    return p, g, _random_labelling(rng, g, list("abc"), missing=0.05), length


def _undecided_at(p, length, word):
    """p explored up to the length under a table labelling that labels each
    step out of ``word`` 0 and every other step one more than its rule's
    declaration index, audited at the length.  A square at another word
    reads its plain confluence as decreasing, each completion one step at
    or below the label of the other side, and some read strict through
    their reverse rules; a square at ``word`` reads labels above its own in
    every variant and is UNDECIDED.  So the audit's first UNDECIDED report
    is the first square at ``word`` in its order.  The table covers the
    words two letters past the length: a square reads the steps out of the
    word where both its steps are applied."""
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    table = {step_key(s): 0 if w == word else p.rule_index(s.rule.name) + 1
             for w in all_words(p, length + 2) for s in enumerate_steps(p, w)}
    return p, g, Labelling.from_table(table, NaturalsOrder()), length


def _mixed_reverses():
    """Two rules undoing each other and two that no rule undoes: squares
    with the same labels but other reverse rules are decided apart."""
    rules = [("b_a", "b", "a"), ("a_b", "a", "b"), ("ba_b", "ba", "b"),
             ("ab_bb", "ab", "bb")]
    return Polygraph("mixed_reverses", ("a", "b"),
                     tuple(Rule(n, tuple(l), tuple(r)) for n, l, r in rules))


def _lengthening():
    """A terminating presentation whose rule lengthens words: b a rewrites
    to a b b, so the sides of a square at the length bound are cut by it,
    and c c vanishes."""
    rules = [("ba_abb", "ba", "abb"), ("cc_1", "cc", "")]
    return Polygraph("lengthening", ("a", "b", "c"),
                     tuple(Rule(n, tuple(l), tuple(r)) for n, l, r in rules))


_PEIFFER_AUDITS = {
    "braid-8": lambda: _audited(braid(), 8),
    "two_letters-6": lambda: _audited(two_letters(), 6),
    "a3-6": lambda: _audited(_A3, 6),
    "no_fdt-5": lambda: _audited(no_fdt(), 5),
    "convergent_braid-7-nf": lambda: _audited(convergent_braid(), 7,
                                              label="nf"),
    # nf squares the successor rows cannot decide: at unexplored words, at
    # words a budget cut, and with a side the length bound cut
    "convergent_braid-5-at-6-nf": lambda: _audited(
        convergent_braid(), 5, bound=6, label="nf"),
    "convergent_braid-6-states-nf": lambda: _audited(
        convergent_braid(), 6, label="nf", max_states=400),
    "lengthening-5-nf": lambda: _audited(_lengthening(), 5, label="nf"),
    # squares at complete words with one side complete and the other cut
    # by the depth budget, which are decreasing but not strict
    "lengthening-4-depth-nf": lambda: _audited(
        _lengthening(), 4, label="nf", max_len=5, max_depth=1),
    # both reverse some of their rules and not others
    "abstract_states-4": lambda: _audited(abstract_states(), 4),
    "mixed_reverses-4": lambda: _audited(_mixed_reverses(), 4, max_len=6),
    "prefix_lhs-4": lambda: _audited(_prefix_lhs(), 4, max_len=6),
    # the first square at c a b a pairs c with a b a, a redex that starts
    # before the b and at the a b that c a b has: the squares at c a b a
    # come in the audit's order only once its redexes are sorted by position
    "prefix_lhs-4-undecided-at-caba": lambda: _undecided_at(
        _prefix_lhs(), 4, tuple("caba")),
    # the lafont graph audited one letter past its bound: label errors
    "lafont-5-at-6": lambda: _audited(no_fdt(), 4, bound=6, max_len=5),
    "braid-7-table": lambda: _tables(braid(), 7, 0),
    "two_letters-5-table": lambda: _tables(two_letters(), 5, 1),
    "abstract_states-4-table": lambda: _tables(abstract_states(), 4, 2),
}


def _peiffer_pairs(p, bound):
    """Every Peiffer branching on words up to the bound, through
    local_branchings, in both step orders."""
    out = []
    for u in all_words(p, bound):
        for b in local_branchings(p, u):
            if b.kind == PEIFFER:
                out += [b, LocalBranching(b.second, b.first)]
    return out


@pytest.fixture(scope="module", params=list(_PEIFFER_AUDITS))
def peiffer_audit(request):
    """A fixture of _PEIFFER_AUDITS, every Peiffer branching on it in both
    step orders, the decide_peiffer report of each, and its audit: the
    enumeration that check_peiffer_decreasing skips under nf labels."""
    p, g, lab, bound = _PEIFFER_AUDITS[request.param]()
    pairs = _peiffer_pairs(p, bound)
    audit = _peiffer_audit if lab.whisker_stable else check_peiffer_decreasing
    return (request.param, p, g, lab, bound, pairs,
            [decide_peiffer(lab, g, p, b) for b in pairs],
            audit(lab, g, p, bound))


def test_peiffer_decision_on_labels_matches_decision_on_paths(peiffer_audit):
    name, p, g, lab, bound, pairs, reports, audit = peiffer_audit
    assert pairs and len(reports) == len(pairs)
    statuses, errors = Counter(), 0
    for b, r in zip(pairs, reports):
        want = _reference_decide(lab, g, p, b)
        assert (r.branching, r.status, r.variant, r.strict, r.attempts) \
            == (b, *want[:4]), (b.first, b.second)
        assert (r.diagram, r.witness_loops) == want[4:]
        statuses[r.status] += 1
        errors += any("error" in a for a in r.attempts)
    # the audit's own enumeration lists the branchings in one step order:
    # it tallies the variants of the PASS ones and reports the others
    listed = reports[::2]
    assert audit.checked == len(audit) == len(pairs) // 2
    assert audit.detail == {
        "variants": Counter(r.variant for r in listed if r.status == "PASS")}
    # an UNDECIDED branching is unverified when it read a label error, a
    # violation otherwise, and the audit gives the first of each
    undecided = [r for r in listed if r.status == "UNDECIDED"]
    by_status = {"violation": [r for r in undecided
                               if not read_a_label_error(r)],
                 "unverified": [r for r in undecided
                                if read_a_label_error(r)]}
    assert audit.counts == Counter({s: len(rs) for s, rs in by_status.items()
                                    if rs})
    assert {s: w for s, (w, _) in audit.firsts.items()} == {
        s: peiffer_witness(rs[0]) for s, rs in by_status.items() if rs}
    assert audit.ok == (not undecided)
    assert audit.status == ("violation" if by_status["violation"]
                            else "unverified" if undecided else "ok")
    assert statuses["PASS"]
    if name in ("no_fdt-5", "lafont-5-at-6"):
        assert statuses["UNDECIDED"]
    if name.endswith("-nf"):
        # the nf cases hold squares at complete words whose sides are
        # complete and, but for convergent_braid-7, squares the explored
        # words do not settle
        settled = Counter(all(map(g.is_complete, (
            b.source, b.first.target, b.second.target))) for b in pairs)
        assert settled[True]
        assert settled[False] or name == "convergent_braid-7-nf"
    if name == "lafont-5-at-6" or name.endswith("-table"):
        assert errors
    if name == "prefix_lhs-4-undecided-at-caba":
        w = audit.witness
        assert (w["first"], w["second"]) == ("1|c_ba|a b a", "c|aba_b|1")


def test_lazily_built_peiffer_diagrams_pass_their_checks(peiffer_audit):
    """Each PASS report builds, on first read, a diagram of its branching
    that passes check_strict when the report reads strict and
    check_decreasing otherwise, and witness loops that close."""
    name, p, g, lab, bound, pairs, reports, audit = peiffer_audit
    strictness = set()
    for r in reports:
        if r.status != "PASS":
            assert r.diagram is None and r.witness_loops == []
            continue
        d = r.diagram
        assert d.branching == r.branching
        assert d.strict == r.strict
        ok, violations = (check_strict if r.strict
                          else check_decreasing)(lab, g, d)
        assert ok, (r.branching.first, r.branching.second, violations)
        for loop in r.witness_loops:
            assert len(loop) and loop.source == loop.target
        strictness.add(r.strict)
    assert True in strictness


@pytest.mark.parametrize("system, length, label", [
    (convergent_braid, 6, "nf"), (convergent_braid, 6, "qnf"),
    (no_fdt, 5, "qnf")],
    ids=["convergent_braid-6-nf", "convergent_braid-6-qnf", "no_fdt-5"])
def test_peiffer_audit_builds_nothing_for_a_pass_square(monkeypatch, system,
                                                        length, label):
    """The audit builds the two steps and the branching of the first
    UNDECIDED Peiffer square of each status for its witness, and no report,
    and it stores no step row in the graph."""
    p, g, lab, bound = _audited(system(), length, label=label)
    enumerate_squares = (_peiffer_audit if label == "nf"
                         else check_peiffer_decreasing)
    rows = set(dict.keys(g.out))
    built = Counter()
    for cls in (RewriteStep, LocalBranching, PeifferReport):
        def counting(self, *args, init=cls.__init__, name=cls.__name__,
                     **kwargs):
            init(self, *args, **kwargs)
            built[name] += 1
        monkeypatch.setattr(cls, "__init__", counting)
    audit = enumerate_squares(lab, g, p, bound)
    n = sum(audit.counts.values())
    assert audit.checked > n and (n > 0) == (system is no_fdt)
    # the first UNDECIDED square of each status only has its steps and
    # branching built
    k = len(audit.counts)
    assert built == Counter({"RewriteStep": 2 * k, "LocalBranching": k}
                            if k else {})
    assert set(dict.keys(g.out)) == rows


# ---------------------------------------------------------------------------
# complete and check-decreasing explored from the words their audits label
# against the same commands explored from every word up to the cap


# Presentations with a cycle that no critical branching reaches, only the
# words up to the Peiffer bound: on letters, alone or beside the terminating
# convergent_braid, and on 4-letter words, which no word of two disjoint
# redexes up to the bound holds
CYCLES = {
    "cycle": """\
polygraph cycle
gens a b
rule r1 : a => b
rule r2 : b => a
""",
    "long_cycle": """\
polygraph long_cycle
gens a b c d
rule r1 : a a a b => c c c d
rule r2 : c c c d => a a a b
""",
    "convergent_braid_cycle": """\
polygraph convergent_braid_cycle
gens s t a x y
rule r1 : s t s => a
rule r2 : t s t => a
rule r3 : s a => a t
rule r4 : t a => a s
rule r5 : x => y
rule r6 : y => x
""",
}


def _poly_text(system: str) -> str:
    if system == "A3":
        return A3
    return CYCLES.get(system) or serialize_polygraph(BUILTIN[system]())


def _both_seedings(monkeypatch, tmp_path, capsys, command, system, options):
    """The exit code and JSON of the command explored from the audits'
    words, then from every word up to --max-word-len."""
    poly = tmp_path / f"{system}.poly"
    poly.write_text(_poly_text(system))
    argv = [command, str(poly), *options, "--format", "json"]
    out = []
    for every_word in (False, True):
        if every_word:
            monkeypatch.setattr(cli, "audit_seeds",
                                lambda p, criticals, max_word_len, *_:
                                list(all_words(p, max_word_len)))
        code = cli.main(argv)
        out.append((code, json.loads(capsys.readouterr().out)))
    monkeypatch.undo()
    return out


SEEDED_CASES = (
    [("complete", "braid", ("--max-word-len", str(n))) for n in range(6, 13)]
    + [("complete", "convergent_braid", ("--label", "nf", "--max-word-len",
                                         str(n))) for n in (4, 9)]
    + [("complete", "two_letters", ("--max-word-len", str(n)))
       for n in (5, 8)]
    + [("complete", "no_fdt", ("--max-word-len", str(n))) for n in (4, 5, 6)]
    # the option sets of the audit benchmark workload
    + [("check-decreasing", "braid", ("--max-word-len", "9", "--ctx-bound",
                                      "4", "--peiffer-len-bound", "9")),
       ("check-decreasing", "convergent_braid",
        ("--label", "nf", "--max-word-len", "8", "--ctx-bound", "3",
         "--peiffer-len-bound", "8")),
       ("check-decreasing", "two_letters",
        ("--max-word-len", "8", "--peiffer-len-bound", "8")),
       ("check-decreasing", "A3", ("--max-word-len", "7"))]
    + [("complete", "braid", ("--label", "singleton", "--max-word-len", "9"))]
    + [("complete", system, ("--max-word-len", "5")) for system in CYCLES]
    # singleton labels close no critical branching of convergent_braid
    + [("complete", system, ("--label", "singleton", "--max-word-len", "5"))
       for system in ("cycle", "long_cycle")])


@pytest.mark.parametrize(
    "command, system, options", SEEDED_CASES,
    ids=[f"{c}-{s}-{'-'.join(o[1:-1:2])}{o[-1]}"
         for c, s, o in SEEDED_CASES])
def test_audits_read_the_same_from_their_seeds(monkeypatch, tmp_path, capsys,
                                               command, system, options):
    """Every label, geodesic, reachability test and sink an audit reads
    depends only on the words reachable from where it is read, so the
    output is the one every word up to the cap gives, but for the region
    it states, which is never larger."""
    (code, seeded), (every_code, every) = _both_seedings(
        monkeypatch, tmp_path, capsys, command, system, options)
    region, every_region = seeded.pop("explored"), every.pop("explored")
    assert (code, seeded) == (every_code, every)
    assert region["words"] <= every_region["words"]


@pytest.mark.parametrize("system", CYCLES)
def test_nf_refuses_a_cycle_no_critical_branching_reaches(
        monkeypatch, tmp_path, capsys, system):
    """nf labels rest on termination, checked on the explored words.  The
    words up to the Peiffer bound are explored under every labelling, so
    the seeded run meets the cycle and refuses, as the run over every
    word does."""
    poly = tmp_path / f"{system}.poly"
    poly.write_text(_poly_text(system))
    argv = ["complete", str(poly), "--label", "nf", "--max-word-len", "5"]
    assert cli.main(argv) == cli.EXIT_INPUT
    error = capsys.readouterr().err
    assert "needs a terminating explored graph" in error
    monkeypatch.setattr(cli, "audit_seeds",
                        lambda p, criticals, max_word_len, *_:
                        list(all_words(p, max_word_len)))
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == error


def _homology(tmp_path, system, cells) -> str:
    ext = tmp_path / "cells.txt"
    ext.write_text("".join(f"cell {name} : {c['source']} => {c['target']}\n"
                           for name, c in cells.items()))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["homology", str(tmp_path / f"{system}.poly"),
                  "--cells", str(ext)])
    return buf.getvalue()


@pytest.mark.parametrize("label, n", [("qnf", 6), ("qnf", 7), ("qnf", 8),
                                      ("singleton", 7)])
def test_a3_keeps_its_confluences_audits_and_homology(monkeypatch, tmp_path,
                                                      capsys, label, n):
    """On A3 only the loop cells depend on the explored region: the
    confluence cells, the audits, the verdict and the homology of the
    cells are those of the run over every word up to the cap."""
    (code, seeded), (every_code, every) = _both_seedings(
        monkeypatch, tmp_path, capsys, "complete", "A3",
        ("--label", label, "--max-word-len", str(n)))
    assert code == every_code
    for key in ("audits", "verdict", "budget"):
        assert seeded[key] == every[key]

    def confluences(data):
        return {name: c for name, c in data["cells"].items()
                if c["kind"] == "confluence"}
    assert confluences(seeded) == confluences(every)
    assert _homology(tmp_path, "A3", seeded["cells"]) == \
        _homology(tmp_path, "A3", every["cells"])


# ---------------------------------------------------------------------------
# the context audits decided from labels against the audits that build each
# whiskered branching, whiskered path and record


def _reference_context_audit(lab, g, items, ctx_bound, fails):
    """The loop over contexts that builds, in every context, the whiskered
    branching wb and the record, then reads ``fails(wb, item, u1, u2)``."""
    violations = []
    audit = Audit(detail={"violations": violations})
    for head, b, item in items:
        for u1, u2 in contexts_up_to(g.polygraph, ctx_bound):
            audit.checked += 1
            wb = LocalBranching(b.first.whisker(u1, u2),
                                b.second.whisker(u1, u2))
            record = {**head, "context": [word_str(u1), word_str(u2)]}
            try:
                failed = fails(wb, item, u1, u2)
            except (LabellingError, TruncatedRegion) as e:
                audit.add(UNVERIFIED, lambda: (
                    {**record, "error": str(e)},
                    governing_option(lab, g, wb, e)))
                continue
            if failed:
                violations.append(record)
                audit.add(VIOLATION, lambda: (record, None))
    return audit


def _searched_closability(lab, g, branchings, ctx_bound):
    """The context audit of complete searching every whiskered branching:
    find_decreasing(strict=True), else closure_cut."""

    def fails(wb, _, u1, u2):
        if find_decreasing(lab, g, wb, strict=True) is not None:
            return False
        cut = closure_cut(g, wb)
        if cut is not None:
            raise TruncatedRegion(cut[0])
        return True

    return _reference_context_audit(
        lab, g, (({"branching": i}, b, None)
                 for i, b in enumerate(branchings)), ctx_bound, fails)


def _whiskered_compatibility(lab, g, diagrams, ctx_bound):
    """The context audit of check-decreasing reading the whiskered
    completions, built with Path.whisker."""

    def fails(wb, completions, u1, u2):
        c1, c2 = (c.whisker(u1, u2) for c in completions)
        labels = _read_pair(lab, g, wb, c1, c2)
        return labels is None or not _first_splits(lab.order, labels)

    return _reference_context_audit(
        lab, g, (({"diagram": i}, d.branching, d.completions)
                 for i, d in enumerate(diagrams)), ctx_bound, fails)


def _read_or_error(read):
    try:
        return read()
    except (LabellingError, TruncatedRegion) as e:
        return type(e), str(e)


# each (system, --max-word-len, --max-states) explored as complete explores
# it at --ctx-bound 2; two_letters has no critical branching, so its
# branchings at the words of length 2 stand in
CONTEXT_CASES = {"braid-8": (braid, 8, 10000), "A3-7": (None, 7, 10000),
                 "two_letters-6": (two_letters, 6, 10000),
                 "braid-7-200": (braid, 7, 200)}


def _context_case(name, drop):
    """The presentation, its branchings, its graph and its qnf labelling:
    the derived map, or when ``drop`` the derived map without the second
    word of the first geodesic of two steps or more from a whiskered
    target, a map validate_qnf_map accepts as it accepts a --qnf-map
    file."""
    make, length, states = CONTEXT_CASES[name]
    p = make() if make else parse_polygraph(A3)
    branchings = (critical_branchings(p) if make is not two_letters
                  else [b for w in all_words(p, 2)
                        for b in local_branchings(p, w)])
    g = explore(p, audit_seeds(p, critical_branchings(p), length, 2, 6),
                ExplorationBudget(length, states))
    qm = derived_qnf_map(g)
    if drop:
        qm = dict(qm)
        targets = (u1 + t + u2 for b in branchings
                   for u1, u2 in contexts_up_to(p, 2)
                   for t in (b.first.target, b.second.target))
        path = next(path for path in (g.geodesic(t, qm[t])
                                      for t in targets if t in qm)
                    if len(path) > 1)
        del qm[path.steps[0].target]
    lab = Labelling.qnf(qm)
    validate_qnf_map(lab, g)
    return p, branchings, g, lab


@pytest.mark.parametrize("drop", [False, True], ids=["derived", "dropped"])
@pytest.mark.parametrize("name", CONTEXT_CASES)
def test_context_closability_from_labels_matches_the_search(name, drop):
    """Each whiskered branching reads the status, witness and option that
    searching it gives (find_decreasing, strict, then closure_cut)
    wherever both targets lie at most 8 steps, find_decreasing's depth,
    from their chosen quasi-normal form, and reads ok past it (A3 7 has
    such targets 9 and 10 steps away).  The audit over every context up to
    2 is the searching audit when the search closes those too.  A map
    without a word on a geodesic falls back to the search for the form
    whose class it leaves partly unmapped; the derived map never does
    here."""
    p, branchings, g, lab = _context_case(name, drop)
    far_open = fell_back = 0
    for b in branchings:
        for u1, u2 in contexts_up_to(p, 2):
            wb = LocalBranching(b.first.whisker(u1, u2),
                                b.second.whisker(u1, u2))
            try:
                psi = [label_target(lab, g, s.target)
                       for s in (wb.first, wb.second)]
            except (LabellingError, TruncatedRegion):
                psi = []
            fell_back += (len(psi) == 2
                          and lab.qnf_map[wb.first.target]
                          == lab.qnf_map[wb.second.target]
                          and not _qnf_closes(lab, g, wb.first.target,
                                              wb.second.target, {}))
            audit = _closability(lab, g, [wb], 0)
            searched = _searched_closability(lab, g, [wb], 0)
            if max(psi, default=0) > 8:
                assert audit.ok
                far_open += not searched.ok
                continue
            assert audit == searched
    assert (fell_back > 0) == drop
    audit = _closability(lab, g, branchings, 2)
    assert audit.checked == len(branchings) * len(list(contexts_up_to(p, 2)))
    if not far_open:
        assert audit == _searched_closability(lab, g, branchings, 2)


@pytest.mark.parametrize("drop", [False, True], ids=["derived", "dropped"])
@pytest.mark.parametrize("name", CONTEXT_CASES)
def test_compatibility_labels_from_whiskered_words(name, drop):
    """The labels of a diagram read in a context from its steps' whiskered
    targets, or keys under a table, are those of the diagram whiskered with
    Path.whisker, errors included, and the audit over every context up to
    2 is the one that whiskers the paths: under qnf labels and under a
    table that labels 95 % of the explored steps."""
    p, branchings, g, qnf = _context_case(name, drop)
    diagrams = [d for d in (find_decreasing(qnf, g, b) for b in branchings)
                if d is not None]
    assert diagrams
    table = _random_labelling(random.Random(len(g.vertices)), g,
                              list("abc"), missing=0.05)
    for lab in (qnf, table):
        read = Counter()
        for d in diagrams:
            b, (c1, c2) = d.branching, d.completions
            for u1, u2 in contexts_up_to(p, 2):
                labels = _read_or_error(
                    lambda: _read_pair(lab, g, b, c1, c2, u1, u2))
                read[isinstance(labels, tuple) and not
                     isinstance(labels[0], type)] += 1
                assert labels == _read_or_error(lambda: _read_pair(
                    lab, g, LocalBranching(b.first.whisker(u1, u2),
                                           b.second.whisker(u1, u2)),
                    c1.whisker(u1, u2), c2.whisker(u1, u2)))
        assert read[True]
        assert (_compatibility(lab, g, diagrams, 2)
                == _whiskered_compatibility(lab, g, diagrams, 2))
