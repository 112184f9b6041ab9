import json
import os
import random
import subprocess
import sys

import pytest

import polyco
import polyco.expressions as expressions_module
import polyco.loops as loops_module
from polyco.core import Polygraph, Rule, all_words, parse_polygraph
from polyco.engine import (ExplorationBudget, Path, explore, parse_step,
                           support, zigzags_equal)
from polyco.expressions import MissingLoopClass, contract_loop
from polyco.loops import (Loop, OrbitCapHit, canonical_rotation,
                          enumerate_elementary_loops, is_context_minimal,
                          is_elementary, is_minimal_for_composition,
                          loop_class_key, reorder_to_expose_subloop,
                          rotate_conjugators)


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
    assert loop_class_key(f) == loop_class_key(e)
    assert canonical_rotation(f.steps) == canonical_rotation(e.steps)


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
    f = _loop(braid_p, "1|alpha|1", "1|beta|1")
    e = _loop(braid_p, "1|beta|1", "1|alpha|1")
    out = rotate_conjugators(f, e)
    assert out is not None
    h, k = out
    assert zigzags_equal(h, k.zigzag().inverse())
    composite = h.compose(e.path.zigzag()).compose(k.zigzag())
    assert zigzags_equal(f.path.zigzag(), composite)
    assert support(f.path) == support(e.path)


def test_rotate_conjugators_rejects_non_rotation(braid_p):
    f = _loop(braid_p, "1|alpha|1", "1|beta|1")
    other = _loop(braid_p, "t|alpha|1", "t|beta|1")
    assert rotate_conjugators(f, other) is None


# -- cycle search, orbit cap and determinism --------------------------------

A3 = """\
polygraph A3
gens a b c
rule r1 : a b a => b a b
rule r2 : b a b => a b a
rule r3 : b c b => c b c
rule r4 : c b c => b c b
rule r5 : a c => c a
rule r6 : c a => a c
"""


def _brute_force_cycles(n, mult):
    """Simple cycles of a digraph on 0..n-1 with edge multiplicities
    ``mult[(u, v)]``: vertex sequences with their least vertex first, each
    weighted by the number of ways to pick parallel edges."""
    vertex_cycles = loops = 0

    def extend(path, weight):
        nonlocal vertex_cycles, loops
        last = path[-1]
        for v in range(path[0], n):
            m = mult.get((last, v), 0)
            if not m:
                continue
            if v == path[0]:
                vertex_cycles += 1
                loops += weight * m
            elif v not in path:
                extend(path + [v], weight * m)

    for s in range(n):
        extend([s], 1)
    return vertex_cycles, loops


def test_cycle_search_matches_brute_force():
    # A digraph on one-letter words: every rewriting step is a whole-word
    # edge, so every simple cycle, expanded over parallel steps, is an
    # elementary loop of its own class.
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
        vertex_cycles, expanded = _brute_force_cycles(n, mult)
        enum = enumerate_elementary_loops(g)
        assert enum.complete
        assert len(enum.classes) == expanded
        if vertex_cycles:
            capped = enumerate_elementary_loops(g, cap=vertex_cycles - 1)
            assert not capped.complete
            assert enumerate_elementary_loops(g, cap=vertex_cycles).complete


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


def test_orbit_cap_hit_is_reported(monkeypatch):
    p = parse_polygraph(A3)
    loop = _half_twist_loop(p)
    assert is_minimal_for_composition(loop)
    with pytest.raises(OrbitCapHit):
        is_minimal_for_composition(loop, cap=1)
    with pytest.raises(OrbitCapHit):
        reorder_to_expose_subloop(loop.steps, cap=1)

    g = explore(p, [loop.base], ExplorationBudget(max_word_len=6))
    enum = enumerate_elementary_loops(g)
    assert enum.complete and loop_class_key(loop) in {
        c.key for c in enum.classes}
    orbit = loops_module.is_minimal_for_composition
    monkeypatch.setattr(loops_module, "is_minimal_for_composition",
                        lambda lp: orbit(lp, cap=1))
    capped = enumerate_elementary_loops(g)
    assert not capped.complete
    assert loop_class_key(loop) not in {c.key for c in capped.classes}


def test_contract_loop_names_the_orbit_cap(monkeypatch):
    loop = _half_twist_loop(parse_polygraph(A3))
    reorder = expressions_module.reorder_to_expose_subloop
    monkeypatch.setattr(expressions_module, "reorder_to_expose_subloop",
                        lambda steps: reorder(steps, cap=1))
    with pytest.raises(MissingLoopClass, match="more than 1 reorderings"):
        contract_loop({}, {}, loop.path)


def test_reorder_exposes_the_first_revisit_in_breadth_first_order(braid_p):
    # alpha and beta on each half of sts sts, interleaved: swapping the
    # first two steps already revisits a word
    loop = _loop(braid_p, "1|alpha|s t s", "t s t|alpha|1",
                 "1|beta|t s t", "s t s|beta|1")
    assert is_context_minimal(loop)
    out = reorder_to_expose_subloop(loop.steps)
    assert [str(s) for s in out] == ["s t s|alpha|1", "1|alpha|t s t",
                                     "1|beta|t s t", "s t s|beta|1"]
    assert not is_elementary(loop)


def _env(**extra):
    src = os.path.dirname(os.path.dirname(polyco.__file__))
    return dict(os.environ, PYTHONPATH=src, **extra)


def _complete_json(path, hash_seed):
    out = subprocess.run(
        [sys.executable, "-m", "polyco.cli", "complete", str(path),
         "--max-word-len", "9", "--format", "json"],
        env=_env(PYTHONHASHSEED=str(hash_seed)), capture_output=True,
        text=True, check=False)
    assert out.returncode == 3, out.stderr
    return out.stdout


def test_capped_enumeration_does_not_depend_on_hash_seed(tmp_path):
    path = tmp_path / "braid.poly"
    path.write_text("polygraph braid\ngens s t\n"
                    "rule alpha : s t s => t s t\n"
                    "rule beta : t s t => s t s\n")
    first = _complete_json(path, 0)
    assert _complete_json(path, 7) == first
    data = json.loads(first)
    assert data["verdict"] == "PARTIAL"
    assert data["audits"]["loops"]["complete"] is False
    assert data["cells"]["E1"]["source"] == "1|alpha|1 ; 1|beta|1"


def test_import_does_not_load_networkx():
    code = ("import sys, polyco, polyco.cli; "
            "sys.exit('networkx' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code],
                          env=_env()).returncode == 0
