import random

import sympy

from polyco.completion import CERTIFIED, build_completion
from polyco.core import all_words
from polyco.engine import ExplorationBudget, explore
from polyco.fixtures import braid, convergent_braid
from polyco.homology import (abelianize, homology, identity, matmul,
                             smith_normal_form)
from polyco.labelling import Labelling, derived_qnf_map


def _random_matrix(rnd, max_dim=6, lo=-5, hi=5):
    n = rnd.randrange(1, max_dim + 1)
    m = rnd.randrange(1, max_dim + 1)
    return [[rnd.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def _det(mat):
    return int(sympy.Matrix(mat).det())


def test_smith_normal_form_factorization():
    rnd = random.Random(0)
    for _ in range(200):
        a = _random_matrix(rnd)
        u, d, v, vinv = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1
        assert matmul(v, vinv) == identity(len(v))
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        for row_i, row in enumerate(d):
            for col_j, x in enumerate(row):
                if row_i != col_j:
                    assert x == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0


def test_smith_invariants_match_sympy():
    rnd = random.Random(42)
    for _ in range(100):
        a = _random_matrix(rnd, max_dim=5)
        _, d, _, _ = smith_normal_form(a)
        ours = [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i]]
        from sympy.matrices.normalforms import smith_normal_form as snf
        sd = snf(sympy.Matrix(a))
        theirs = sorted(abs(int(x)) for x in sd.diagonal() if x)
        ours = sorted(ours)
        assert ours == theirs


def test_chain_complex_squares_to_zero(braid_p, braid_completion):
    c = abelianize(braid_p, braid_completion.cell_list)
    comp = matmul(c.delta2, c.delta3)
    assert all(x == 0 for row in comp for x in row)


def test_reduced_braid_homology_is_z_z_z(braid_p):
    res = homology(abelianize(braid_p, []))
    for grp in (res.h0, res.h1, res.h2):
        assert grp.rank == 1 and grp.torsion == ()


def test_full_basis_kills_h2(braid_p, braid_completion):
    res = homology(abelianize(braid_p, braid_completion.cell_list))
    assert res.h0.rank == 1 and res.h1.rank == 1
    assert res.h2.rank == 0 and res.h2.torsion == ()


def test_convergent_braid_homology(upsilon_p, upsilon_g):
    from polyco.completion import build_completion
    from polyco.labelling import Labelling
    c = build_completion(upsilon_p, Labelling.nf(upsilon_g), upsilon_g)
    res = homology(abelianize(upsilon_p, c.cell_list))
    assert res.h0.rank == 1


def _certified_homology(p, labelling, length):
    """Homology of the completion that ``polyco complete`` builds at this
    word length, which must be CERTIFIED."""
    g = explore(p, all_words(p, length), ExplorationBudget(length, 100000))
    c = build_completion(p, labelling(g), g)
    assert c.verdict == CERTIFIED
    return homology(abelianize(p, c.cell_list))


def test_braid_and_convergent_braid_have_equal_homology():
    """Two presentations of the positive braid monoid on three strands,
    each completed at word length 8, give the monoid's H1 and H2."""
    a = _certified_homology(braid(),
                            lambda g: Labelling.qnf(derived_qnf_map(g)), 8)
    b = _certified_homology(convergent_braid(), Labelling.nf, 8)
    assert (a.h1, a.h2) == (b.h1, b.h2)
    assert str(a.h1) == "Z" and str(a.h2) == "0"

