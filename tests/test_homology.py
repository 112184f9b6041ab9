import random

import pytest
import sympy

from polyco.completion import CERTIFIED, build_completion
from polyco.core import all_words
from polyco.engine import ExplorationBudget, explore
from polyco.fixtures import braid, convergent_braid
from polyco.homology import (ChainComplexZ, HomologyGroup, abelianize,
                             homology, smith_normal_form as invariant_factors)
from polyco.labelling import Labelling, derived_qnf_map
from snf_reference import identity, matmul, smith_normal_form


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
        assert invariant_factors(a) == nonzero


def _edge_matrices(rnd):
    """Matrices of the shapes an elimination gets wrong first, each with
    its invariant factors where they are known by hand: zero matrices,
    zero rows and columns, single rows and columns, a least pivot that does
    not divide the rest, and scaled matrices."""
    yield [[0, 0, 0], [0, 0, 0]], []
    yield [[0, 0], [4, 6], [0, 0]], [2]
    yield [[0, 3, 0], [0, 5, 0]], [1]
    yield [[6, 10, 15]], [1]
    yield [[4], [6], [0]], [2]
    yield [[-7]], [7]
    yield [[2, 0], [0, 3]], [1, 6]
    yield [[4, 0, 0], [0, 6, 0], [0, 0, 0]], [2, 12]
    yield [[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]
    for _ in range(200):
        n, m = rnd.randrange(1, 6), rnd.randrange(1, 6)
        a = [[rnd.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        k = rnd.choice([2, 3, 4, 6, 12])
        if rnd.random() < 0.5:
            a = [[k * x for x in row] for row in a]
        else:
            a = [[rnd.choice([1, k]) * x for x in row] for row in a]
        yield a, None


def test_smith_invariants_match_sympy():
    from sympy.matrices.normalforms import smith_normal_form as snf
    rnd = random.Random(42)
    cases = [(_random_matrix(rnd, max_dim=5), None) for _ in range(100)]
    for a, expected in cases + list(_edge_matrices(random.Random(5))):
        ours = invariant_factors(a)
        sd = snf(sympy.Matrix(a))
        assert ours == sorted(abs(int(x)) for x in sd.diagonal() if x), a
        assert all(y % x == 0 for x, y in zip(ours, ours[1:])), a
        if expected is not None:
            assert ours == expected, a


def _reference_h2(c):
    """H2 = ker d2 / im d3 read in a basis of ker d2: the columns of V
    beyond the rank of d2, with d3 written through V^-1."""
    _, d2, _, v2inv = smith_normal_form(c.delta2)
    r2 = sum(1 for i in range(min(len(d2), len(d2[0]))) if d2[i][i])
    kdim = len(c.rules) - r2
    if kdim == 0:
        return HomologyGroup(0, ())
    if not c.cells3:
        return HomologyGroup(kdim, ())
    y = matmul(v2inv, c.delta3)
    assert not any(y[i][j] for i in range(r2) for j in range(len(c.cells3)))
    _, dx, _, _ = smith_normal_form(y[r2:])
    inv = [abs(dx[i][i]) for i in range(min(kdim, len(c.cells3)))
           if dx[i][i]]
    return HomologyGroup(kdim - len(inv), tuple(t for t in inv if t > 1))


def test_h2_from_the_invariant_factors_of_d3_matches_a_kernel_basis():
    """On random complexes with d2 . d3 = 0, H2 read off the Smith normal
    form of d3 is the one computed in a basis of ker d2."""
    rnd = random.Random(3)
    torsion = 0
    for _ in range(300):
        d2 = _random_matrix(rnd, max_dim=4, lo=-3, hi=3)
        n1, n2 = len(d2), len(d2[0])
        if rnd.random() < 0.3:
            # a d2 of smaller rank, so that ker d2 is larger
            d2 = [d2[0]] * n1
        _, d, v, _ = smith_normal_form(d2)
        r2 = sum(1 for i in range(min(n1, n2)) if d[i][i])
        kernel = [row[r2:] for row in v]            # n2 x kdim
        n3 = rnd.randrange(1, 5)
        if n2 == r2:
            d3 = [[0] * n3 for _ in range(n2)]
        else:
            mix = [[rnd.randint(-4, 4) for _ in range(n3)]
                   for _ in range(n2 - r2)]
            d3 = matmul(kernel, mix)
        c = ChainComplexZ([f"x{i}" for i in range(n1)],
                          [f"r{i}" for i in range(n2)],
                          [f"e{i}" for i in range(n3)], d2, d3)
        h2 = homology(c).h2
        assert h2 == _reference_h2(c)
        torsion += bool(h2.torsion)
    assert torsion


def test_homology_rejects_d3_outside_the_kernel_of_d2():
    """A complex built by hand is checked for d2 . d3 = 0."""
    c = ChainComplexZ(["a"], ["r"], ["e"], [[1]], [[1]])
    with pytest.raises(ValueError, match="kernel of d2"):
        homology(c)


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

