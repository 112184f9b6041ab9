"""Acceptance suite: the worked examples of the four bundled presentations
plus randomized property checks, one test per claim."""

import random
from collections import Counter

import sympy

from polyco.branchings import (PEIFFER, critical_branchings,
                               local_branchings)
from polyco.core import all_words, word_str
from polyco.decreasing import (check_context_compatibility,
                               decide_peiffer, find_decreasing)
from polyco.engine import (Path, enumerate_steps, exchange_swap, parse_step,
                           zigzag, zigzags_equal)
from polyco.expressions import check_boundary
from polyco.homology import (abelianize, homology,
                             smith_normal_form as invariant_factors)
from polyco.labelling import (Labelling, NaturalsOrder, filter_word,
                              label_step, measure_branching, measure_word,
                              multiset_less)
from snf_reference import diagonal, identity, matmul, smith_normal_form


def test_01_braid_critical_branchings(braid_p):
    sources = sorted(word_str(b.source)
                     for b in critical_branchings(braid_p))
    assert sources == sorted(["s t s t", "t s t s",
                              "s t s t s", "t s t s t"])


def test_02_braid_qnf_label_values(braid_p, braid_g, braid_lab):
    expected = {
        "1|alpha|t": 1, "s|beta|1": 1, "1|beta|t": 0, "s|alpha|1": 0,
        "1|beta|s": 0, "t|alpha|1": 2, "t|beta|1": 1, "1|alpha|t s": 1,
        "s t|alpha|1": 1, "1|beta|t s": 0, "s t|beta|1": 0,
        "1|beta|s t": 0, "t s|beta|1": 2, "t s|alpha|1": 1,
    }
    got = {text: label_step(braid_lab, braid_g, parse_step(braid_p, text))
           for text in expected}
    assert got == expected


def test_03_braid_completion_certified(braid_completion):
    kinds = [c.kind for c in braid_completion.cell_list]
    assert len(kinds) == 5
    assert kinds.count("confluence") == 4 and kinds.count("loop") == 1
    assert braid_completion.verdict == "CERTIFIED"


def test_04_peiffer_square_on_aa(ab_p, ab_g, ab_lab):
    bs = [b for b in local_branchings(ab_p, ("a", "a"))
          if b.kind == PEIFFER]
    rep = decide_peiffer(ab_lab, ab_g, ab_p, bs[0])
    naive = [a for a in rep.attempts if a["variant"] == "peiffer"]
    assert naive[0]["labels"]["sides"] == [1, 1]
    assert naive[0]["labels"]["completions"] == [[2], [2]]
    assert rep.status == "PASS" and rep.variant != "peiffer"
    from polyco.labelling import label_path
    assert list(label_path(ab_lab, ab_g, rep.diagram.f_prime)) == [0]
    assert list(label_path(ab_lab, ab_g, rep.diagram.g_prime)) == [0]


def test_05_alternate_qnf_map_context_violation(ab_p, ab_g, ab_alt_lab):
    b = [x for x in local_branchings(ab_p, ("a", "a"))
         if x.kind == PEIFFER][0]
    d = find_decreasing(ab_alt_lab, ab_g, b, depth=6)
    rep = check_context_compatibility(ab_alt_lab, ab_g, [d], ctx_bound=1)
    assert rep.status == "violation"
    # a context of one letter, its words in JSON form ("1" is empty)
    assert any(sum(len(u.split()) for u in v["context"] if u != "1") == 1
               for v in rep.detail["violations"])


def test_06_quasi_normal_forms_of_abstract_system(states_g):
    assert states_g.quasi_normal_forms(("d",)) == {("a",), ("b",)}
    qnfs_of_c = states_g.quasi_normal_forms(("c",))
    assert ("c",) not in qnfs_of_c


def test_07_lafont_loop_class_and_branchings(lafont_p, lafont_g):
    from polyco.loops import enumerate_elementary_loops
    enum = enumerate_elementary_loops(lafont_g)
    assert enum.complete and len(enum.classes) == 1
    rules = sorted(k.split("|")[1] for k in enum.classes[0].key)
    assert rules == ["r2", "r3", "r4"]
    assert len(critical_branchings(lafont_p)) == 4


def test_08_convergent_completion_equals_squier(upsilon_p, upsilon_g):
    from polyco.completion import build_completion

    def squier_normalize(w):
        steps = []
        current = w
        while True:
            options = enumerate_steps(upsilon_p, current)
            if not options:
                return Path(w, tuple(steps))
            nxt = min(options, key=lambda s: (s.position,
                                              upsilon_p.rule_index(
                                                  s.rule.name)))
            steps.append(nxt)
            current = nxt.target

    c = build_completion(upsilon_p, Labelling.nf(upsilon_g), upsilon_g)
    criticals = critical_branchings(upsilon_p)
    assert c.verdict == "CERTIFIED"
    assert len(c.cell_list) == len(criticals) == 6
    for b, rec in zip(criticals, c.confluences):
        cell = c.cells[rec.name]
        left = zigzag(b.source, b.first, squier_normalize(b.first.target))
        right = zigzag(b.source, b.second,
                       squier_normalize(b.second.target))
        assert zigzags_equal(cell.source, left)
        assert zigzags_equal(cell.target, right)


def test_09_reduced_braid_homology(braid_p):
    res = homology(abelianize(braid_p, []))
    for grp in (res.h0, res.h1, res.h2):
        assert grp.rank == 1 and grp.torsion == ()


def test_10a_measure_law():
    order = NaturalsOrder()
    rnd = random.Random(0)
    for _ in range(10000):
        w1 = tuple(rnd.randrange(8) for _ in range(rnd.randrange(8)))
        w2 = tuple(rnd.randrange(8) for _ in range(rnd.randrange(8)))
        assert measure_word(w1 + w2, order) == (
            measure_word(w1, order)
            + measure_word(filter_word(w2, w1, order), order))


def test_10b_strict_diagram_inequality(braid_p, braid_g, braid_lab):
    """For every strict closure (f1.f1', g1.g1') of a local branching and
    every short continuation f2 of f1, the measure of (f1', f2) sits
    strictly below the measure of (g1, f1.f2)."""
    checked = 0
    for u in all_words(braid_p, 7):
        for b in local_branchings(braid_p, u):
            d = find_decreasing(braid_lab, braid_g, b, depth=6,
                                strict=True)
            if d is None:
                continue
            f1 = Path(b.source, (b.first,))
            g1 = Path(b.source, (b.second,))
            continuations = [Path(f1.target)]
            continuations += [Path(f1.target, (s,))
                              for s in braid_g.steps_from(f1.target)]
            for f2 in continuations:
                lhs = measure_branching(braid_lab, braid_g, d.f_prime, f2)
                rhs = measure_branching(braid_lab, braid_g, g1,
                                        f1.compose(f2))
                assert multiset_less(lhs, rhs, braid_lab.order), \
                    (str(b.first), str(b.second), str(f2))
                checked += 1
    assert checked > 100


def _random_walk(g, rnd, w, length):
    steps = []
    current = w
    for _ in range(length):
        options = g.steps_from(current)
        if not options:
            break
        s = rnd.choice(options)
        steps.append(s)
        current = s.target
    return Path(w, tuple(steps))


def test_10c_sphere_filling_boundary_soundness(braid_p, braid_g, braid_lab,
                                               braid_completion):
    from polyco.completion import fill_parallel_sphere, fill_zigzag_sphere
    rnd = random.Random(0)
    words = [w for w in all_words(braid_p, 7)
             if 3 <= len(w) and braid_g.steps_from(w)]
    filled = 0
    while filled < 350:
        w = rnd.choice(words)
        f = _random_walk(braid_g, rnd, w, rnd.randrange(1, 6))
        h = _random_walk(braid_g, rnd, w, rnd.randrange(0, 5))
        g2 = h.compose(braid_g.geodesic(h.target, f.target))
        if len(g2) > 6:
            continue
        e = fill_parallel_sphere(braid_completion, braid_lab, braid_g,
                                 f, g2)
        src, tgt = check_boundary(e, braid_completion.cells)
        assert zigzags_equal(src, f.zigzag())
        assert zigzags_equal(tgt, g2.zigzag())
        filled += 1
    def random_zigzag(w, length):
        steps = []
        current = w
        for _ in range(length):
            options = braid_g.steps_from(current)
            if not options:
                break
            s = rnd.choice(options)
            if rnd.random() < 0.4:
                # a detour: step out and back, leaving an inverse step
                steps += [s, s.inverse()]
            else:
                steps.append(s)
                current = s.target
        from polyco.engine import ZigzagPath
        return ZigzagPath(w, tuple(steps))

    zig_filled = 0
    while zig_filled < 150:
        w = rnd.choice(words)
        z1 = random_zigzag(w, rnd.randrange(1, 4))
        c = random_zigzag(w, rnd.randrange(0, 3))
        z2 = c.compose(braid_g.geodesic(c.target, z1.target).zigzag())
        if len(z1) > 6 or len(z2) > 6:
            continue
        e = fill_zigzag_sphere(braid_completion, braid_lab, braid_g,
                               z1, z2)
        src, tgt = check_boundary(e, braid_completion.cells)
        assert zigzags_equal(src, z1)
        assert zigzags_equal(tgt, z2)
        zig_filled += 1


def test_10d_support_invariance_under_exchange(braid_p, braid_g):
    rnd = random.Random(0)
    pairs = []
    for u in all_words(braid_p, 7):
        for b in local_branchings(braid_p, u):
            if b.kind == PEIFFER:
                pairs.append(b)
    assert pairs
    done = 0
    while done < 1000:
        b = rnd.choice(pairs)
        first, second = b.first, b.second
        # both rules preserve length, so the second redex sits at the same
        # position after the first fires
        tail = [s for s in enumerate_steps(braid_p, first.target)
                if s.rule.name == second.rule.name
                and s.position == second.position]
        if not tail:
            continue
        seq = Path(first.source, (first, tail[0]))
        swapped = exchange_swap(first, tail[0])
        assert swapped is not None
        other = Path(swapped[0].source, swapped)
        assert (Counter(s.rule.name for s in seq.steps)
                == Counter(s.rule.name for s in other.steps))
        assert other.source == seq.source and other.target == seq.target
        done += 1


def test_10e_smith_normal_form_unimodularity():
    rnd = random.Random(0)
    for _ in range(1000):
        n = rnd.randrange(1, 7)
        m = rnd.randrange(1, 7)
        a = [[rnd.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        u, d, v, vinv = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(int(sympy.Matrix(u).det())) == 1
        assert abs(int(sympy.Matrix(v).det())) == 1
        assert matmul(v, vinv) == identity(m)
        assert invariant_factors(a) == diagonal(d)
