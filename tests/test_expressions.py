import dataclasses

import pytest

from polyco.engine import (IllComposed, Path, ZigzagPath, parse_step,
                           zigzag, zigzags_equal)
from polyco.expressions import (Atom, MissingLoopClass, ThreeCellExpression,
                                check_boundary, conjugate, contract_loop,
                                invert)


def concat(*exprs: ThreeCellExpression) -> ThreeCellExpression:
    """The expressions pasted one after the other, unchecked."""
    if not exprs:
        raise ValueError("nothing to compose")
    atoms = tuple(a for e in exprs for a in e.atoms)
    return ThreeCellExpression(exprs[0].source, atoms)


def test_identity_expression_boundary(braid_p, braid_completion):
    f = parse_step(braid_p, "1|alpha|1")
    z = zigzag(f.source, f)
    e = ThreeCellExpression(z)
    src, tgt = check_boundary(e, braid_completion.cells)
    assert src == tgt


def test_atom_boundary_matches_cell(braid_completion):
    cell = braid_completion.cells["D1"]
    a = Atom(ZigzagPath(cell.source.source), (), "D1", 1, (),
             ZigzagPath(cell.source.target))
    src, tgt = a.boundary(braid_completion.cells)
    assert zigzags_equal(src, cell.source)
    assert zigzags_equal(tgt, cell.target)
    e = ThreeCellExpression(src, (a,))
    check_boundary(e, braid_completion.cells)


def test_invert_swaps_boundaries(braid_completion):
    cell = braid_completion.cells["D1"]
    a = Atom(ZigzagPath(cell.source.source), (), "D1", 1, (),
             ZigzagPath(cell.source.target))
    e = ThreeCellExpression(a.boundary(braid_completion.cells)[0], (a,))
    inv = invert(e, braid_completion.cells)
    s1, t1 = check_boundary(e, braid_completion.cells)
    s2, t2 = check_boundary(inv, braid_completion.cells)
    assert zigzags_equal(s1, t2) and zigzags_equal(t1, s2)


def test_concat_pastes_vertically(braid_completion):
    cell = braid_completion.cells["D1"]
    a = Atom(ZigzagPath(cell.source.source), (), "D1", 1, (),
             ZigzagPath(cell.source.target))
    e = ThreeCellExpression(a.boundary(braid_completion.cells)[0], (a,))
    back = invert(e, braid_completion.cells)
    both = concat(e, back)
    src, tgt = check_boundary(both, braid_completion.cells)
    assert zigzags_equal(src, tgt)


def test_concat_rejects_bad_pasting(braid_p, braid_completion):
    cell = braid_completion.cells["D1"]
    a = Atom(ZigzagPath(cell.source.source), (), "D1", 1, (),
             ZigzagPath(cell.source.target))
    e = ThreeCellExpression(a.boundary(braid_completion.cells)[0], (a,))
    with pytest.raises(IllComposed):
        check_boundary(concat(e, e), braid_completion.cells)


def test_conjugate_whiskers_the_boundary(braid_completion):
    cell = braid_completion.cells["D1"]
    a = Atom(ZigzagPath(cell.source.source), (), "D1", 1, (),
             ZigzagPath(cell.source.target))
    e = ThreeCellExpression(a.boundary(braid_completion.cells)[0], (a,))
    w = conjugate(e, left_word=("t",), right_word=("s",))
    src, tgt = check_boundary(w, braid_completion.cells)
    assert src.source == ("t",) + cell.source.source + ("s",)
    assert zigzags_equal(src, cell.source.whisker(("t",), ("s",)))


def test_contract_loop_reaches_identity(braid_p, braid_g, braid_completion):
    a = parse_step(braid_p, "1|alpha|1")
    b = parse_step(braid_p, "1|beta|1")
    loop = Path(a.source, (a, b))
    e = contract_loop(braid_completion.cells, braid_completion.loop_classes,
                      loop)
    src, tgt = check_boundary(e, braid_completion.cells)
    assert zigzags_equal(src, loop.zigzag())
    assert not tgt.steps and tgt.source == loop.source


def test_contract_rotated_and_whiskered_loop(braid_p, braid_completion):
    a = parse_step(braid_p, "t|beta|1")
    b = parse_step(braid_p, "t|alpha|1")
    loop = Path(a.source, (a, b))
    e = contract_loop(braid_completion.cells, braid_completion.loop_classes,
                      loop)
    src, tgt = check_boundary(e, braid_completion.cells)
    assert zigzags_equal(src, loop.zigzag())
    assert not tgt.steps


def test_contract_loop_needs_a_class(braid_p, braid_g):
    a = parse_step(braid_p, "1|alpha|1")
    b = parse_step(braid_p, "1|beta|1")
    loop = Path(a.source, (a, b))
    with pytest.raises(MissingLoopClass):
        contract_loop({}, {}, loop)


def test_contract_long_loop(braid_loop, braid_completion,
                            default_recursion_limit):
    loop = braid_loop(1000)
    e = braid_completion.contract(loop)
    assert len(e) == 1000
    src, tgt = check_boundary(e, braid_completion.cells)
    assert zigzags_equal(src, loop.zigzag())
    assert not tgt.steps and tgt.source == loop.source


def _broken(e, i, **change):
    """e with atom i removed, or changed by the given fields."""
    atoms = list(e.atoms)
    if change:
        atoms[i] = dataclasses.replace(atoms[i], **change)
    else:
        del atoms[i]
    return ThreeCellExpression(e.source, tuple(atoms))


@pytest.mark.parametrize("n", [30, 600])
def test_check_boundary_rejects_a_broken_long_loop_expression(
        braid_loop, braid_completion, n):
    """Comparing atoms only where their boundaries differ still finds a
    missing atom or a flipped one in the middle of a long expression."""
    cells = braid_completion.cells
    e = braid_completion.contract(braid_loop(n))
    check_boundary(e, cells)
    mid = len(e) // 2
    with pytest.raises(IllComposed):
        check_boundary(_broken(e, mid), cells)
    with pytest.raises(IllComposed):
        check_boundary(_broken(e, mid, sign=-e.atoms[mid].sign), cells)


@pytest.mark.parametrize("n", [1, 30])
def test_invert_reads_its_source_off_the_last_atom(braid_loop,
                                                   braid_completion, n):
    """The inverse's 2-source is the last atom's 2-target as pasted, equal
    to the 2-target check_boundary evaluates; inverting an expression whose
    middle atom is flipped still leaves check_boundary to reject it."""
    cells = braid_completion.cells
    e = braid_completion.contract(braid_loop(n))
    inv = invert(e, cells)
    src, tgt = check_boundary(e, cells)
    assert zigzags_equal(inv.source, tgt)
    inv_src, inv_tgt = check_boundary(inv, cells)
    assert zigzags_equal(inv_src, tgt) and zigzags_equal(inv_tgt, src)
    identity = ThreeCellExpression(e.source)
    assert invert(identity, cells).source == e.source
    if n > 1:
        mid = len(e) // 2
        bad = invert(_broken(e, mid, sign=-e.atoms[mid].sign), cells)
        with pytest.raises(IllComposed):
            check_boundary(bad, cells)
