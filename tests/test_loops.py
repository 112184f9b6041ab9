import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import polyco
from polyco.core import Polygraph, Rule, all_words, parse_polygraph
from polyco.engine import (ExplorationBudget, Path, ZigzagPath, explore,
                           parse_step, zigzags_equal)
from polyco.expressions import LOOP, ThreeCell, check_boundary, contract_loop
from polyco.loops import (Loop, class_of, enumerate_elementary_loops,
                          fundamental_factors, is_context_minimal,
                          is_elementary, is_minimal_for_composition,
                          split_loop, word_sequence)

from conftest import A3


def _loop(p, *steps_text):
    steps = tuple(parse_step(p, t) for t in steps_text)
    return Loop(Path(steps[0].source, steps))


def test_braid_has_one_elementary_loop_class(braid_g):
    enum = enumerate_elementary_loops(braid_g)
    assert enum.complete
    assert len(enum.classes) == 1
    cls = enum.classes[0]
    assert cls.key == ("1|alpha|1", "1|beta|1")
    assert cls.representative.base == ("s", "t", "s")


def test_lafont_has_one_elementary_loop_class(lafont_g):
    enum = enumerate_elementary_loops(lafont_g)
    assert enum.complete
    assert len(enum.classes) == 1
    names = [k.split("|")[1] for k in enum.classes[0].key]
    assert sorted(names) == ["r2", "r3", "r4"]


def test_loop_classes_identify_rotations(braid_p):
    f = _loop(braid_p, "1|alpha|1", "1|beta|1")
    e = _loop(braid_p, "1|beta|1", "1|alpha|1")
    key, rep, _ = class_of(f.steps)
    assert class_of(e.steps)[:2] == (key, rep)
    assert key == ("1|alpha|1", "1|beta|1") and rep == f.steps


def test_whiskered_loop_is_not_elementary(braid_p):
    inner = _loop(braid_p, "t|alpha|1", "t|beta|1")
    assert not is_context_minimal(inner)
    assert not is_elementary(inner)
    core = _loop(braid_p, "1|alpha|1", "1|beta|1")
    assert is_context_minimal(core) and is_elementary(core)


def test_repeated_loop_is_not_minimal(braid_p):
    twice = _loop(braid_p, "1|alpha|1", "1|beta|1",
                  "1|alpha|1", "1|beta|1")
    assert not is_minimal_for_composition(twice)
    assert not is_elementary(twice)


def test_enumerated_representatives_are_elementary(braid_g, lafont_g):
    for g in (braid_g, lafont_g):
        for cls in enumerate_elementary_loops(g).classes:
            assert is_elementary(cls.representative)


def test_rotate_conjugators(braid_p):
    # the conjugator k of a rotation: f = k^-1 . representative . k
    f = _loop(braid_p, "1|beta|1", "1|alpha|1")
    _, rep, path = class_of(f.steps)
    assert rep == (f.steps[1], f.steps[0])
    k = Path(rep[0].source, path)
    assert k.target == f.base
    e = Path(rep[0].source, rep)
    composite = k.zigzag().inverse().compose(e.zigzag()).compose(k.zigzag())
    assert zigzags_equal(f.path.zigzag(), composite)
    assert (Counter(s.rule.name for s in f.steps)
            == Counter(s.rule.name for s in e.steps))


def test_rotate_conjugators_rejects_non_rotation(braid_p):
    f = _loop(braid_p, "1|alpha|1", "1|beta|1")
    other = _loop(braid_p, "t|alpha|1", "t|beta|1")
    assert class_of(f.steps)[0] != class_of(other.steps)[0]


# -- loop coverage and determinism --------------------------------

BRAID = """\
polygraph braid
gens s t
rule alpha : s t s => t s t
rule beta : t s t => s t s
"""

def _cyclic_components(n, mult):
    """Strongly connected components of a digraph on 0..n-1 with edge
    multiplicities ``mult[(u, v)]`` that carry a cycle, each as (number of
    members, number of internal edges counted with multiplicity)."""
    reach = [{u} for u in range(n)]
    changed = True
    while changed:
        changed = False
        for (u, v) in mult:
            new = reach[v] - reach[u]
            if new:
                reach[u] |= new
                changed = True
    out = []
    for c in {frozenset(v for v in reach[u] if u in reach[v])
              for u in range(n)}:
        edges = sum(m for (u, v), m in mult.items() if u in c and v in c)
        if edges:
            out.append((len(c), edges))
    return out


def _rank(rows):
    """Rank over the rationals, by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_cycle_search_matches_brute_force():
    # A digraph on one-letter words: every rewriting step is a whole-word
    # edge, so the loops carry no exchanges and no whiskers, and the
    # classes must be a basis of the cycle space: one per fundamental
    # cycle, |E| - |V| + 1 per cyclic component, linearly independent.
    rng = random.Random(20161229)
    letters = "abcdefgh"
    for _ in range(300):
        n = rng.randint(1, 8)
        density = rng.choice((0.15, 0.25, 0.35))
        mult = {}
        for u in range(n):
            for v in range(n):
                if rng.random() < density:
                    mult[(u, v)] = 2 if rng.random() < 0.15 else 1
        rules = [Rule(f"r{u}_{v}_{k}", (letters[u],), (letters[v],))
                 for (u, v), m in mult.items() for k in range(m)]
        p = Polygraph("digraph", tuple(letters[:n]), tuple(rules))
        g = explore(p, all_words(p, 1), ExplorationBudget(max_word_len=1))
        betti = sum(e - v + 1 for v, e in _cyclic_components(n, mult))
        enum = enumerate_elementary_loops(g)
        assert enum.complete
        assert len(enum.classes) == betti
        vectors = [[sum(s.rule == r for s in c.representative.steps)
                    for r in rules] for c in enum.classes]
        assert _rank(vectors) == betti


def test_parallel_steps_expand_into_separate_loops():
    p = parse_polygraph("polygraph par\ngens a b\nrule x : a => b\n"
                        "rule y : a => b\nrule z : b => a\n")
    g = explore(p, all_words(p, 1), ExplorationBudget(max_word_len=1))
    enum = enumerate_elementary_loops(g)
    assert enum.complete
    assert [c.key for c in enum.classes] == [("1|x|1", "1|z|1"),
                                             ("1|y|1", "1|z|1")]


def test_acyclic_graph_has_no_loop_classes(upsilon_g):
    assert not upsilon_g.has_cycle()
    enum = enumerate_elementary_loops(upsilon_g)
    assert enum.complete
    assert enum.classes == []


def _half_twist_loop(p):
    # a 14-step elementary loop around the half twist of the 4-strand
    # braid monoid; its exchange orbit has 4 reorderings
    return _loop(p, "1|r1|c b a", "b a|r3|a", "b a c b|r6|1", "b|r5|b a c",
                 "b c|r1|c", "1|r3|a b c", "c b|r6|b c", "c b a|r4|1",
                 "c|r2|c b", "1|r6|b a c b", "a c b|r5|b", "a|r4|a b",
                 "a b c|r2|1", "a b|r6|b a")


def _loop_cells(enum):
    """The loop cells of a completion with these classes, and the map from
    class keys to cell names that contract_loop reads."""
    cells, names = {}, {}
    for j, cls in enumerate(enum.classes):
        name = f"E{j + 1}"
        rep = cls.representative
        cells[name] = ThreeCell(name, rep.path.zigzag(),
                                ZigzagPath(rep.base), LOOP)
        names[cls.key] = name
    return cells, names


def _assert_contracts(cells, names, path, g=None):
    src, tgt = check_boundary(contract_loop(cells, names, path, g), cells)
    assert zigzags_equal(src, path.zigzag())
    assert tgt == ZigzagPath(path.source)


def test_reorder_exposes_the_first_revisit_in_breadth_first_order(braid_p):
    # alpha and beta on each half of sts sts, interleaved: no word repeats
    # along the loop, but a reordering revisits one
    loop = _loop(braid_p, "1|alpha|s t s", "t s t|alpha|1",
                 "1|beta|t s t", "s t s|beta|1")
    assert is_context_minimal(loop)
    assert len(set(word_sequence(loop.steps))) == len(loop)
    steps, words, (i, j) = split_loop(loop.steps, word_sequence(loop.steps))
    assert words == word_sequence(steps) and words[i] == words[j]
    assert 0 < j - i < len(loop)
    assert zigzags_equal(ZigzagPath(loop.base, steps), loop.path.zigzag())
    assert not is_elementary(loop)


def test_half_twist_loop_is_elementary_and_contracts():
    p = parse_polygraph(A3)
    loop = _half_twist_loop(p)
    assert is_elementary(loop)
    g = explore(p, [loop.base], ExplorationBudget(max_word_len=6))
    enum = enumerate_elementary_loops(g)
    assert enum.complete
    _assert_contracts(*_loop_cells(enum), loop.path)


# system, longest word length and the lengths of the loop classes there
_COMPLETE = ([("braid", n) for n in range(1, 11)]
             + [("two_letters", n) for n in range(1, 9)]
             + [("a3", n) for n in range(1, 9)]
             + [("no_fdt", n) for n in range(1, 6)])
_CLASS_LENGTHS = {("two_letters", 7): [2], ("two_letters", 8): [2],
                  ("a3", 8): [2, 2, 2, 14, 14, 20, 20, 20, 24, 24, 26, 26, 26,
                              28]}


@pytest.mark.parametrize("name,length", _COMPLETE,
                         ids=[f"{s}-{n}" for s, n in _COMPLETE])
def test_loop_enumeration_is_complete_at_every_length(name, length):
    # no budget but the word length bounds the enumeration, so raising it
    # never leaves the loop audit incomplete
    p = parse_polygraph(A3) if name == "a3" else getattr(polyco.fixtures,
                                                           name)()
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    enum = enumerate_elementary_loops(g)
    assert enum.complete
    want = _CLASS_LENGTHS.get((name, length))
    if want is not None:
        assert [len(c.key) for c in enum.classes] == want


def _env(**extra):
    src = os.path.dirname(os.path.dirname(polyco.__file__))
    return dict(os.environ, PYTHONPATH=src, **extra)


def _complete_json(path, hash_seed):
    out = subprocess.run(
        [sys.executable, "-m", "polyco.cli", "complete", str(path),
         "--max-word-len", "9", "--format", "json"],
        env=_env(PYTHONHASHSEED=str(hash_seed)), capture_output=True,
        text=True, check=False)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_braid_9_is_certified_under_any_hash_seed(tmp_path):
    path = tmp_path / "braid.poly"
    path.write_text(BRAID)
    first = _complete_json(path, 0)
    assert _complete_json(path, 7) == first
    data = json.loads(first)
    assert data["verdict"] == "CERTIFIED"
    assert data["audits"]["loops"]["complete"] is True
    loops = [c for c in data["cells"].values() if c["kind"] == "loop"]
    assert loops == [{"kind": "loop", "source": "1|alpha|1 ; 1|beta|1",
                      "target": "id s t s"}]


def _simple_cycles(g):
    """Every simple cycle of the explored graph once, as a path from its
    first explored word, expanded over parallel steps."""
    order = g.vertices
    for start in g.vertices:
        def extend(path, seen):
            for s in g.out[path[-1].target if path else start]:
                t = s.target
                if t == start:
                    yield Path(start, tuple(path) + (s,))
                elif t not in seen and order[t] > order[start]:
                    seen.add(t)
                    yield from extend(path + [s], seen)
                    seen.discard(t)
        yield from extend([], {start})


@pytest.mark.parametrize("text,length,cycles",
                         [(BRAID, 8, 591), (A3, 5, 250), (A3, 6, 2043)],
                         ids=["braid-8", "a3-5", "a3-6"])
def test_every_simple_cycle_contracts_onto_the_classes(text, length, cycles):
    p = parse_polygraph(text)
    g = explore(p, all_words(p, length), ExplorationBudget(length))
    enum = enumerate_elementary_loops(g)
    assert enum.complete
    cells, names = _loop_cells(enum)
    count = 0
    for path in _simple_cycles(g):
        _assert_contracts(cells, names, path, g)
        count += 1
    assert count == cycles


def test_fundamental_factors_rebuild_the_loop():
    p = parse_polygraph(A3)
    g = explore(p, all_words(p, 6), ExplorationBudget(6))
    cells, names = _loop_cells(enumerate_elementary_loops(g))
    for path in itertools.islice(_simple_cycles(g), 0, None, 20):
        pre, factors = fundamental_factors(g, path.steps)
        z = pre.zigzag().inverse()
        for loop, sign in factors:
            # each factor peels onto the classes without the graph
            _assert_contracts(cells, names, loop)
            z = z.compose(loop.zigzag() if sign > 0
                          else loop.zigzag().inverse())
        assert zigzags_equal(z.compose(pre.zigzag()), path.zigzag())


def test_import_does_not_load_networkx():
    code = ("import sys, polyco, polyco.cli; "
            "sys.exit('networkx' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code],
                          env=_env()).returncode == 0
