import pytest

from polyco.branchings import critical_branchings
from polyco.completion import (CERTIFIED, PARTIAL, build_completion,
                               fill_parallel_sphere, fill_zigzag_sphere,
                               format_extension, parse_extension,
                               parse_sphere, parse_zigzag)
from polyco.engine import Path, enumerate_steps, parse_step, zigzag, \
    zigzags_equal
from polyco.expressions import check_boundary
from polyco.labelling import Labelling


def test_braid_completion_is_certified(braid_completion):
    c = braid_completion
    assert c.verdict == CERTIFIED
    assert sorted(c.cells) == ["D1", "D2", "D3", "D4", "E1"]
    kinds = [cell.kind for cell in c.cell_list]
    assert kinds.count("confluence") == 4 and kinds.count("loop") == 1
    assert c.audits["strict"]["ok"]
    assert c.audits["context"].ok
    assert c.audits["peiffer"]["ok"]
    assert c.audits["loops"]["complete"]


def test_completion_cells_are_parallel_confluences(braid_completion,
                                                   braid_p):
    sources = {b.source for b in critical_branchings(braid_p)}
    for rec in braid_completion.confluences:
        cell = braid_completion.cells[rec.name]
        assert cell.source.source in sources
        assert cell.source.target == cell.target.target
        assert rec.strict


def _leftmost_normalize(p, w):
    """Squier's normalization strategy: reduce the leftmost redex with the
    first applicable rule, in declaration order."""
    steps = []
    current = w
    while True:
        options = enumerate_steps(p, current)
        if not options:
            break
        nxt = min(options,
                  key=lambda s: (s.position, p.rule_index(s.rule.name)))
        steps.append(nxt)
        current = nxt.target
    return Path(w, tuple(steps))


def test_convergent_completion_matches_squier_oracle(upsilon_p, upsilon_g):
    lab = Labelling.nf(upsilon_g)
    c = build_completion(upsilon_p, lab, upsilon_g)
    assert c.verdict == CERTIFIED
    criticals = critical_branchings(upsilon_p)
    assert len(c.confluences) == len(criticals) == 6
    assert not c.loop_classes
    for b, rec in zip(criticals, c.confluences):
        cell = c.cells[rec.name]
        left = _leftmost_normalize(upsilon_p, b.first.target)
        right = _leftmost_normalize(upsilon_p, b.second.target)
        assert left.target == right.target
        assert zigzags_equal(cell.source,
                             zigzag(b.source, b.first, left))
        assert zigzags_equal(cell.target,
                             zigzag(b.source, b.second, right))


def test_lafont_completion_is_partial(lafont_p, lafont_g):
    from polyco.cli import _derived_qnf_map
    lab = Labelling.qnf(_derived_qnf_map(lafont_g))
    c = build_completion(lafont_p, lab, lafont_g)
    assert c.verdict == PARTIAL
    assert not c.audits["peiffer"]["ok"]
    assert len([x for x in c.cells.values() if x.kind == "loop"]) == 1


def test_fill_parallel_sphere(braid_p, braid_g, braid_lab,
                              braid_completion):
    a = parse_step(braid_p, "1|alpha|t")
    b = parse_step(braid_p, "s|beta|1")
    c = parse_step(braid_p, "s|alpha|1")
    f = Path(a.source, (a,))
    g = Path(a.source, (b, c, a))
    e = fill_parallel_sphere(braid_completion, braid_lab, braid_g, f, g)
    src, tgt = check_boundary(e, braid_completion.cells)
    assert zigzags_equal(src, f.zigzag())
    assert zigzags_equal(tgt, g.zigzag())


def test_fill_zigzag_sphere(braid_p, braid_g, braid_lab, braid_completion):
    a = parse_step(braid_p, "1|alpha|t")
    b = parse_step(braid_p, "s|beta|1")
    z1 = zigzag(a.source, a)
    z2 = zigzag(a.source, b, b.inverse(), a)
    e = fill_zigzag_sphere(braid_completion, braid_lab, braid_g, z1, z2)
    src, tgt = check_boundary(e, braid_completion.cells)
    assert zigzags_equal(src, z1)
    assert zigzags_equal(tgt, z2)


def test_zigzag_file_roundtrip(braid_p):
    text = "1|alpha|t ; 1|alpha|t- ; s|beta|1"
    z = parse_zigzag(braid_p, text)
    assert parse_zigzag(braid_p, str(z)).steps == z.steps


def test_extension_file_roundtrip(braid_p, braid_completion):
    text = format_extension(braid_completion)
    cells = parse_extension(braid_p, text)
    assert sorted(cells) == sorted(braid_completion.cells)
    for name, cell in cells.items():
        orig = braid_completion.cells[name]
        assert cell.source.steps == orig.source.steps
        assert cell.target.steps == orig.target.steps
        assert cell.kind == orig.kind


def test_parse_sphere(braid_p):
    text = "sphere : 1|alpha|t => s|beta|1 ; s|alpha|1 ; 1|alpha|t"
    left, right = parse_sphere(braid_p, text)
    assert left.source == right.source
    assert left.target == right.target
