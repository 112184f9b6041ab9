"""The oracles accept the known-good bundled examples and reject corrupted
inputs, and each workload's check tells ok, failed and wrong apart.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import polyco  # noqa: E402
import polyco.cli  # noqa: E402,F401
import workloads  # noqa: E402
from oracles import (WrongOutput, critical_count,  # noqa: E402
                     expect_abelian_boundary, expect_critical,
                     expect_homology, expect_loop_cells)
from workloads import POLY  # noqa: E402


def _completion(name: str, n: int, nf: bool = False):
    p = polyco.parse_polygraph(POLY[name])
    g = polyco.explore(p, polyco.all_words(p, n),
                       polyco.ExplorationBudget(n, 100000, 200))
    if nf:
        lab = polyco.Labelling.nf(g)
    else:
        lab = polyco.Labelling.qnf(
            {w: min(g.quasi_normal_forms(w), key=lambda x: (len(x), x))
             for w in g.vertices})
    return p, g, lab, polyco.build_completion(p, lab, g)


@pytest.fixture(scope="module")
def braid():
    return _completion("braid", 7)


@pytest.fixture(scope="module")
def fill_round(tmp_path_factory):
    rnd = workloads.fill(polyco, 1, tmp_path_factory.mktemp("fill"))
    return {name: (run, check) for name, run, check in rnd.ops}


def test_brute_force_counts_of_the_examples():
    counts = {name: critical_count(text) for name, text in POLY.items()}
    assert counts == {"braid": 4, "convergent_braid": 6, "two_letters": 0,
                      "a3": 16}
    for name, text in POLY.items():
        p = polyco.parse_polygraph(text)
        assert counts[name] == len(polyco.critical_branchings(p))


def test_critical_oracle_rejects_a_wrong_count():
    expect_critical(POLY["braid"], 4, "braid")
    with pytest.raises(WrongOutput):
        expect_critical(POLY["braid"], 3, "braid")


def test_homology_oracle_accepts_certified_completions(braid):
    for name, (p, _, _, c) in {
            "braid": braid,
            "convergent_braid": _completion("convergent_braid", 7, nf=True),
    }.items():
        assert c.verdict == polyco.CERTIFIED
        h = polyco.homology(polyco.abelianize(p, c.cell_list))
        expect_homology(name, (str(h.h0), str(h.h1), str(h.h2)), name)


def test_homology_oracle_rejects_the_2_skeleton(braid):
    p = braid[0]
    h = polyco.homology(polyco.abelianize(p, []))
    with pytest.raises(WrongOutput):
        expect_homology("braid", (str(h.h0), str(h.h1), str(h.h2)), "braid")


def test_loop_cell_oracle(braid):
    kinds = [cell.kind for cell in braid[3].cell_list]
    expect_loop_cells("braid", kinds.count(polyco.LOOP), "braid")
    with pytest.raises(WrongOutput):
        expect_loop_cells("braid", 0, "braid")


def test_abelian_oracle_rejects_a_flipped_sign_and_an_unknown_cell(braid):
    p, g, lab, c = braid
    alpha, beta = p.rule("alpha"), p.rule("beta")
    loop = polyco.ZigzagPath(("s", "t", "s"),
                             (polyco.RewriteStep((), alpha, ()),
                              polyco.RewriteStep((), beta, ())) * 3)
    ident = polyco.ZigzagPath(("s", "t", "s"))
    expr = polyco.fill_zigzag_sphere(c, lab, g, loop, ident)
    expect_abelian_boundary(expr, c.cells, loop, ident, "loop")
    first = expr.atoms[0]
    flipped = dataclasses.replace(
        expr, atoms=(dataclasses.replace(first, sign=-first.sign),)
        + expr.atoms[1:])
    with pytest.raises(WrongOutput):
        expect_abelian_boundary(flipped, c.cells, loop, ident, "loop")
    renamed = dataclasses.replace(
        expr, atoms=(dataclasses.replace(first, cell="X1"),)
        + expr.atoms[1:])
    with pytest.raises(WrongOutput):
        expect_abelian_boundary(renamed, c.cells, loop, ident, "loop")


def test_fill_check_passes_random_spheres_and_fails_the_known_fault(
        fill_round):
    for name in ("parallel-0", "zigzag-0", "loop-60"):
        run, check = fill_round[name]
        assert check(run()) is False
    run, check = fill_round["fault-sphere"]
    assert check(run()) is True


def test_fill_check_rejects_a_wrong_expression(fill_round):
    run, check = fill_round["loop-60"]
    expr, boundary = run()
    atoms = expr.atoms[:-1]
    with pytest.raises(WrongOutput):
        check((dataclasses.replace(expr, atoms=atoms), boundary))


def test_complete_check(tmp_path):
    ops = {name: (run, check) for name, run, check
           in workloads.complete(polyco, 1, tmp_path).ops}
    run, check = ops["braid-7"]
    rc, data, hrc, hout = run()
    assert check((rc, data, hrc, hout)) is False
    del data["cells"]["D1"]
    with pytest.raises(WrongOutput):
        check((rc, data, hrc, hout))
    run, check = ops["a3-6"]
    assert check(run()) is True


def test_audit_check(tmp_path):
    ops = {name: (run, check) for name, run, check
           in workloads.audit(polyco, 1, tmp_path).ops}
    run, check = ops["braid-9"]
    rc, out = run()
    assert check((rc, out)) is False
    with pytest.raises(WrongOutput):
        check((0, out))
    lost = out.replace('"status": "strict"', '"status": "NOT FOUND"', 1)
    with pytest.raises(WrongOutput):
        check((rc, lost))
