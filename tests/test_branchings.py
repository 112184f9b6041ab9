import itertools

from polyco.core import all_words, word_str
from polyco.branchings import (ASPHERICAL, CRITICAL, OVERLAPPING, PEIFFER,
                               classify_branching, critical_branchings,
                               local_branchings, match_critical)
from polyco.engine import enumerate_steps


def test_branching_kinds(braid_p):
    u = ("s", "t", "s", "t", "s")
    steps = enumerate_steps(braid_p, u)
    by_pos = {(s.position, s.rule.name): s for s in steps}
    a0 = by_pos[(0, "alpha")]
    a2 = by_pos[(2, "alpha")]
    assert classify_branching(a0, a0) == ASPHERICAL
    assert classify_branching(a0, a2) == CRITICAL
    v = ("s", "t", "s", "s", "t", "s")
    vs = enumerate_steps(braid_p, v)
    left = [s for s in vs if s.position == 0][0]
    right = [s for s in vs if s.position == 3][0]
    assert classify_branching(left, right) == PEIFFER
    w = ("t",) + u
    ws = enumerate_steps(braid_p, w)
    w1 = [s for s in ws if s.position == 1][0]
    w3 = [s for s in ws if s.position == 3][0]
    assert classify_branching(w1, w3) == OVERLAPPING


def test_local_branchings_pair_distinct_steps_once(braid_p, ab_p):
    for p in (braid_p, ab_p):
        for u in all_words(p, 6):
            n = len(enumerate_steps(p, u))
            bs = local_branchings(p, u)
            assert all(b.first != b.second and b.kind != ASPHERICAL
                       for b in bs)
            assert len(bs) == n * (n - 1) // 2
            assert len({(b.first, b.second) for b in bs}
                       | {(b.second, b.first) for b in bs}) == 2 * len(bs)


def test_critical_branching_sources():
    from polyco.fixtures import braid, convergent_braid, no_fdt
    assert sorted(word_str(b.source) for b in critical_branchings(braid())) \
        == sorted(["s t s t", "t s t s", "s t s t s", "t s t s t"])
    assert sorted(word_str(b.source)
                  for b in critical_branchings(convergent_braid())) \
        == sorted(["s t s t s", "s t s t", "s t s a",
                   "t s t s", "t s t s t", "t s t a"])
    assert sorted(word_str(b.source) for b in critical_branchings(no_fdt())) \
        == sorted(["d a b", "d a c", "d' a b", "d' a c"])


def _brute_force_critical_cores(p, max_len):
    """Every overlapping or critical local branching, with the largest
    common whiskers stripped; the distinct cores are the critical
    branchings."""
    cores = set()
    for u in all_words(p, max_len):
        for b in local_branchings(p, u):
            if b.kind not in (CRITICAL, OVERLAPPING):
                continue
            f, g = b.first, b.second
            lo = min(f.position, g.position)
            hi = max(f.position + len(f.rule.lhs),
                     g.position + len(g.rule.lhs))
            key = (u[lo:hi], f.position - lo, f.rule.name,
                   g.position - lo, g.rule.name)
            cores.add(key)
    return cores


def test_overlap_oracle_pins_critical_counts():
    from polyco.fixtures import braid, convergent_braid, no_fdt
    for p, max_len in ((braid(), 6), (convergent_braid(), 6), (no_fdt(), 5)):
        cores = _brute_force_critical_cores(p, max_len)
        assert len(cores) == len(critical_branchings(p)), p.name


def test_match_critical_recognizes_whiskered(braid_p):
    criticals = critical_branchings(braid_p)
    for i, b in enumerate(criticals):
        f = b.first.whisker(("t",), ("s", "s"))
        g = b.second.whisker(("t",), ("s", "s"))
        m = match_critical(braid_p, f, g, criticals)
        assert m is not None
        idx, u1, u2, swapped = m
        assert idx == i and u1 == ("t",) and u2 == ("s", "s")


def test_every_overlap_is_a_whiskered_critical(braid_p):
    criticals = critical_branchings(braid_p)
    for u in all_words(braid_p, 7):
        for b in local_branchings(braid_p, u):
            if b.kind in (CRITICAL, OVERLAPPING):
                assert match_critical(braid_p, b.first, b.second,
                                      criticals) is not None
