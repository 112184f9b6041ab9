import dataclasses
import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import polyco
from polyco.core import all_words, Polygraph, Rule
from polyco.engine import (ExplorationBudget, IllComposed, Path, RewriteStep,
                           ZigzagPath, classify_termination, enumerate_steps,
                           exchange_swap, explore,
                           normalize_zigzag, parse_step, zigzag,
                           zigzags_equal, INCONCLUSIVE,
                           QUASI_TERMINATING_NOT_TERMINATING, TERMINATING)


def test_step_roundtrip(braid_p):
    s = parse_step(braid_p, "s|alpha|t")
    assert s.source == ("s", "s", "t", "s", "t")
    assert s.target == ("s", "t", "s", "t", "t")
    assert str(s) == "s|alpha|t"
    inv = s.inverse()
    assert inv.source == s.target and inv.target == s.source
    assert str(inv) == "s|alpha|t-"
    assert inv.inverse() == s


def test_step_whisker_shifts_position(braid_p):
    s = parse_step(braid_p, "1|alpha|1")
    w = s.whisker(("t", "t"), ("s",))
    assert w.position == 2
    assert w.source == ("t", "t", "s", "t", "s", "s")


def test_step_is_a_frozen_value(braid_p):
    alpha = braid_p.rule("alpha")
    s = RewriteStep(("t",), alpha, ("s", "s"))
    k = RewriteStep(left=("t",), rule=alpha, right=("s", "s"), forward=True)
    assert s.forward is True
    assert s == k and hash(s) == hash(k)
    assert s != s.inverse() and s.inverse() == RewriteStep(
        ("t",), alpha, ("s", "s"), False)
    for field in ("left", "rule", "right", "forward"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, getattr(s, field))
    assert repr(s) == (
        "RewriteStep(left=('t',), rule=Rule(name='alpha', "
        "lhs=('s', 't', 's'), rhs=('t', 's', 't')), right=('s', 's'), "
        "forward=True)")
    assert repr(s.inverse()) == repr(s)[:-len("True)")] + "False)"
    assert str(s) == "t|alpha|s s" and str(s.inverse()) == "t|alpha|s s-"
    r = dataclasses.replace(s, forward=False, left=())
    assert r == RewriteStep((), alpha, ("s", "s"), False)
    assert dataclasses.replace(s) == s
    assert not hasattr(s, "__dict__")


def test_path_composition_checks_endpoints(braid_p):
    a = parse_step(braid_p, "1|alpha|1")
    b = parse_step(braid_p, "1|beta|1")
    p = Path(a.source, (a, b))
    assert p.target == a.source and len(p) == 2
    with pytest.raises(IllComposed):
        Path(a.source, (a, a))
    with pytest.raises(IllComposed):
        Path(a.source, (a.inverse(),))
    with pytest.raises(IllComposed):
        Path(a.source).compose(Path(a.target, (b,)))


def test_composed_and_whiskered_paths_equal_checked_ones(braid_p):
    a = parse_step(braid_p, "1|alpha|1")
    b = parse_step(braid_p, "1|beta|1")
    p = Path(a.source, (a,)).compose(Path(a.target, (b,)))
    assert p == Path(a.source, (a, b))
    w = p.whisker(("t",), ("s", "s"))
    assert w == Path(("t",) + a.source + ("s", "s"),
                     tuple(s.whisker(("t",), ("s", "s")) for s in p.steps))


def test_path_operations_keep_the_class(braid_p):
    """A Path is a ZigzagPath whose steps are all forward: its operations
    give a Path, except its inverse, which is a zigzag, and it never
    equals the zigzag on the same steps."""
    a = parse_step(braid_p, "1|alpha|1")
    b = parse_step(braid_p, "1|beta|1")
    p, z = Path(a.source, (a, b)), ZigzagPath(a.source, (a, b))
    assert isinstance(p, ZigzagPath)
    for cls, x in ((Path, p), (ZigzagPath, z)):
        made = (x.prefix(1), x.compose(type(x)(x.target, (a,))),
                x.whisker(("t",), ()), x.whisker((), ()),
                cls._checked(x.source, x.steps))
        assert all(type(y) is cls for y in made), [type(y) for y in made]
    assert type(p.inverse()) is ZigzagPath
    assert p.inverse() == z.inverse()
    assert type(p.zigzag()) is ZigzagPath and p.zigzag() == z
    assert type(z.forward_path()) is Path and z.forward_path() == p
    assert p != z and z != p
    assert (str(p), len(p), p.target) == (str(z), len(z), z.target)


def test_path_composed_with_a_zigzag_is_a_zigzag(braid_p):
    """Composing gives a Path only when both operands are Paths, so an
    inverse step never ends up in a Path."""
    s = parse_step(braid_p, "1|alpha|1")
    p = Path(s.source, (s,))
    back = ZigzagPath(s.target, (s.inverse(),))
    on = ZigzagPath(s.target, (parse_step(braid_p, "1|beta|1"),))
    for x, y in ((p, back), (p, on), (back, p)):
        made = x.compose(y)
        assert type(made) is ZigzagPath
        assert made == ZigzagPath(x.source, x.steps + y.steps)
    assert type(p.compose(Path(s.target))) is Path


def test_checked_zigzags_cost_no_more_than_public_ones():
    """A zigzag or path built from checked parts holds its fields as one
    from the public constructor does, without a dict of its own.  Measured
    in a fresh interpreter, public ones first: a per-instance dict made
    earlier in the process also raises the cost of later public ones."""
    code = textwrap.dedent("""
        import tracemalloc
        from polyco import fixtures
        from polyco.engine import Path, ZigzagPath, parse_step
        a = parse_step(fixtures.braid(), "1|alpha|1")
        u, steps = a.source, (a,)

        def per_zigzag(make, n=2000):
            kept = [make(u, steps) for _ in range(n)]
            del kept
            before = tracemalloc.get_traced_memory()[0]
            kept = [make(u, steps) for _ in range(n)]
            return (tracemalloc.get_traced_memory()[0] - before) / n

        tracemalloc.start()
        for cls in (ZigzagPath, Path):
            print(per_zigzag(cls), per_zigzag(cls._checked))
        """)
    src = os.path.dirname(os.path.dirname(polyco.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    for line in out.stdout.splitlines():
        public, checked = map(float, line.split())
        assert checked <= public, (checked, public)


def test_zigzag_cancellation(braid_p):
    f = parse_step(braid_p, "1|alpha|1")
    z1 = zigzag(f.source, f)
    z2 = zigzag(f.source, f, f.inverse(), f)
    assert normalize_zigzag(z2).steps == z1.steps
    assert zigzags_equal(z1, z2)
    assert zigzags_equal(z1.compose(z1.inverse()), ZigzagPath(f.source))


def test_zigzags_with_different_endpoints_differ(braid_p):
    f = parse_step(braid_p, "1|alpha|1")
    g = parse_step(braid_p, "1|alpha|t")
    assert not zigzags_equal(zigzag(f.source, f), zigzag(g.source, g))


def test_exchange_swap_disjoint_redexes(braid_p):
    # alpha at 0 then alpha at 3 on ststst; swapping applies them in the
    # other order and lands on the same word
    s1 = parse_step(braid_p, "1|alpha|s t s")
    s2 = parse_step(braid_p, "t s t|alpha|1")
    assert s2.source == s1.target
    swapped = exchange_swap(s1, s2)
    assert swapped is not None
    t1, t2 = swapped
    assert t1.source == s1.source
    assert t2.source == t1.target
    assert t2.target == s2.target
    assert (Counter(s.rule.name for s in (s1, s2))
            == Counter(s.rule.name for s in (t1, t2)))


def test_exchange_swap_rejects_overlap(braid_p):
    s1 = parse_step(braid_p, "1|alpha|t s")
    nxt = [s for s in enumerate_steps(braid_p, s1.target)
           if s.position == 0][0]
    assert exchange_swap(s1, nxt) is None


def test_braid_is_quasi_terminating_not_terminating(braid_g):
    assert classify_termination(braid_g) == QUASI_TERMINATING_NOT_TERMINATING
    assert braid_g.has_cycle() and not braid_g.truncated


def test_convergent_presentation_terminates(upsilon_g):
    assert classify_termination(upsilon_g) == TERMINATING
    assert not upsilon_g.has_cycle()


def test_truncated_exploration_is_inconclusive():
    p = Polygraph("grow", ("a",), (Rule("dup", ("a",), ("a", "a")),))
    g = explore(p, all_words(p, 2),
                budget=ExplorationBudget(max_word_len=4, max_states=100,
                                         max_depth=20))
    assert g.truncated
    assert classify_termination(g) == INCONCLUSIVE


def test_quasi_normal_forms_of_abstract_states(states_g):
    assert states_g.quasi_normal_forms(("d",)) == {("a",), ("b",)}
    assert states_g.quasi_normal_forms(("c",)) == {("a",), ("b",)}
    assert ("c",) not in states_g.quasi_normal_forms(("c",))


def test_distance_and_geodesic(braid_g):
    sts = ("s", "t", "s")
    tst = ("t", "s", "t")
    assert braid_g.distance(sts, tst) == 1
    geo = braid_g.geodesic(sts, tst)
    assert geo.source == sts and geo.target == tst and len(geo) == 1
    assert braid_g.distance(sts, sts) == 0
