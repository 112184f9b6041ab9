import contextlib
import dataclasses
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from polyco.branchings import (PEIFFER, LocalBranching, critical_branchings,
                               local_branchings)
from polyco.completion import (CERTIFIED, PARTIAL, _peiffer_closure,
                               build_completion, fill_parallel_sphere,
                               fill_zigzag_sphere, format_extension,
                               parse_extension, parse_sphere, parse_zigzag)
from polyco.core import ParseError, all_words, parse_polygraph
from polyco.decreasing import (SearchExhausted, audit_seeds,
                               check_context_closability, decide_peiffer,
                               peiffer_variants)
from polyco.engine import (ExplorationBudget, IllComposed, Path,
                           ZigzagPath, enumerate_steps, explore,
                           normalize_zigzag, parse_step, zigzag,
                           zigzags_equal)
from polyco.expressions import ThreeCellExpression, check_boundary
from polyco.fixtures import (braid, convergent_braid, no_fdt,
                             two_letters)
from polyco.labelling import Labelling, derived_qnf_map
from conftest import A3, B3, peiffer_witness, read_a_label_error
from test_golden import SPHERES as GOLDEN_SPHERES


def test_braid_completion_is_certified(braid_completion):
    c = braid_completion
    assert c.verdict == CERTIFIED
    assert sorted(c.cells) == ["D1", "D2", "D3", "D4", "E1"]
    kinds = [cell.kind for cell in c.cell_list]
    assert kinds.count("confluence") == 4 and kinds.count("loop") == 1
    assert sorted(c.audits) == ["context", "loops", "peiffer", "strict"]
    assert all(a.status == "ok" and not a.counts for a in c.audits.values())
    assert c.audits["loops"].detail["complete"]


def test_completion_cells_are_parallel_confluences(braid_completion,
                                                   braid_p):
    sources = {b.source for b in critical_branchings(braid_p)}
    for rec in braid_completion.confluences:
        cell = braid_completion.cells[rec.name]
        assert cell.source.source in sources
        assert cell.source.target == cell.target.target
        assert rec.diagram.strict


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
    lab = Labelling.qnf(derived_qnf_map(lafont_g))
    c = build_completion(lafont_p, lab, lafont_g)
    assert c.verdict == PARTIAL
    assert not c.audits["peiffer"].ok
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


def test_fill_long_loop_sphere(braid_loop, braid_g, braid_lab,
                               braid_completion, default_recursion_limit):
    loop = braid_loop(600).zigzag()
    ident = ZigzagPath(loop.source)
    e = fill_zigzag_sphere(braid_completion, braid_lab, braid_g, loop,
                           ident)
    src, tgt = check_boundary(e, braid_completion.cells)
    assert zigzags_equal(src, loop) and zigzags_equal(tgt, ident)
    # check_boundary compares atoms only where their boundaries differ;
    # a missing or flipped atom in the middle is still found
    mid = len(e) // 2
    for atoms in (e.atoms[:mid] + e.atoms[mid + 1:],
                  e.atoms[:mid] + (dataclasses.replace(
                      e.atoms[mid], sign=-e.atoms[mid].sign),)
                  + e.atoms[mid + 1:]):
        with pytest.raises(IllComposed):
            check_boundary(ThreeCellExpression(e.source, atoms),
                           braid_completion.cells)


@pytest.fixture(scope="module")
def braid8(braid_p):
    """The braid completion over all words up to length 8, labelled by
    each word's least quasi-normal form, as the CLI derives it; and its
    classes of at least two words, that of s t s first."""
    g = explore(braid_p, all_words(braid_p, 8),
                ExplorationBudget(8, 100000, 200))
    lab = Labelling.qnf(derived_qnf_map(g))
    c = build_completion(braid_p, lab, g)
    assert c.verdict == CERTIFIED
    classes: dict = {}
    for w in g.vertices:
        classes.setdefault(lab.qnf_map[w], []).append(w)
    classes = sorted((m for m in classes.values() if len(m) >= 2),
                     key=lambda m: STS not in m)
    return g, lab, c, classes


STS = ("s", "t", "s")


def _draw_geodesic(data, g, w, hat) -> ZigzagPath:
    """A shortest path from w to hat, each step drawn among those that get
    one step closer."""
    steps = []
    while w != hat:
        d = g.distance(w, hat)
        s = data.draw(st.sampled_from(
            [s for s in g.out[w] if g.distance(s.target, hat) == d - 1]))
        steps.append(s)
        w = s.target
    return Path(steps[0].source if steps else w, tuple(steps)).zigzag()


def _draw_side(data, braid_loop, g, hat, members, u, v) -> ZigzagPath:
    """A zigzag from u to v: down to hat, detours up to members of the
    class and back, up to v, with a loop power (alpha;beta)^j spliced in
    where it passes through s t s."""
    z = _draw_geodesic(data, g, u, hat)
    for x in data.draw(st.lists(st.sampled_from(members), max_size=2)):
        z = z.compose(_draw_geodesic(data, g, x, hat).inverse())
        z = z.compose(_draw_geodesic(data, g, x, hat))
    z = z.compose(_draw_geodesic(data, g, v, hat).inverse())
    at = [i for i, s in enumerate(z.steps) if s.source == STS]
    if z.target == STS:
        at.append(len(z))
    if not at:
        return z
    i = data.draw(st.sampled_from(at))
    loop = braid_loop(data.draw(st.integers(0, 40))).steps
    return ZigzagPath(z.source, z.steps[:i] + loop + z.steps[i:])


def _draw_sphere(data, braid_loop, braid8) -> tuple[ZigzagPath, ZigzagPath]:
    """Two sides drawn by _draw_side between members of one class of the
    braid-8 completion, that of s t s or any."""
    g, lab, c, classes = braid8
    members = data.draw(st.one_of(st.just(classes[0]),
                                  st.sampled_from(classes)))
    u, v = data.draw(st.sampled_from(members)), data.draw(
        st.sampled_from(members))
    hat = lab.qnf_map[u]
    f = _draw_side(data, braid_loop, g, hat, members, u, v)
    h = _draw_side(data, braid_loop, g, hat, members, u, v)
    return f, h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_zigzag_spheres_fill(braid_loop, braid8, data):
    """Spheres built from geodesics, detours through members of one class
    and loop powers fill, and the filling's boundary is the sphere."""
    g, lab, c, _ = braid8
    f, h = _draw_sphere(data, braid_loop, braid8)
    e = fill_zigzag_sphere(c, lab, g, f, h)
    src, tgt = check_boundary(e, c.cells)
    assert zigzags_equal(src, f) and zigzags_equal(tgt, h)


@pytest.mark.xfail(raises=SearchExhausted, strict=True,
                   reason="fill_parallel_sphere exhausts its depth when the "
                          "two sides differ by a loop (ROADMAP item 2)")
def test_fill_sphere_with_a_whiskered_loop(braid_p, braid8):
    """Loop powers spliced in whiskered, not only at s t s, break filling:
    this is the smallest such sphere, its sides differing by alpha;beta
    whiskered by t s s."""
    g, lab, c, _ = braid8
    f, h = parse_sphere(braid_p, (
        "sphere : t s s|alpha|1 ; t s|alpha|t ; 1|beta|s t t => "
        "t s s|alpha|1 ; t s s|beta|1 ; t s s|alpha|1 ; t s|alpha|t ; "
        "1|beta|s t t"))
    fill_zigzag_sphere(c, lab, g, f, h)


# kept fillings: a completion keeps each parallel sphere it fills, and
# reuses it under the same labelling and graph objects


FAULT_SPHERE = (
    "sphere : t s s|alpha|1 ; t s|alpha|t ; 1|beta|s t t => "
    "t s s|alpha|1 ; t s s|beta|1 ; t s s|alpha|1 ; t s|alpha|t ; "
    "1|beta|s t t")
# a parallel sphere of braid 8 whose filling splits three levels deep
DEEP_SPHERE = (
    "sphere : 1|beta|s t s s ; s t s|alpha|s ; s|beta|s t s ; "
    "s s t s|alpha|1 ; s s|beta|s t => t s t|alpha|s ; 1|beta|t s t s ; "
    "s t s t|alpha|1 ; s|beta|t s t ; s s|beta|s t")


def _fresh(c):
    """The same completion, with no filling kept."""
    return dataclasses.replace(c)


def _fill(c, lab, g, f, h):
    """Fill as ``polyco fill-sphere`` does: two forward sides through
    fill_parallel_sphere, any other through fill_zigzag_sphere."""
    if all(s.forward for s in f.steps + h.steps):
        return fill_parallel_sphere(c, lab, g, f.forward_path(),
                                    h.forward_path())
    return fill_zigzag_sphere(c, lab, g, f, h)


def _filled(c, lab, g, f, h):
    e = _fill(c, lab, g, f, h)
    return str(e), check_boundary(e, c.cells)


@pytest.fixture(scope="module")
def fixed_spheres(braid_p, braid_loop):
    """The spheres of the fill-sphere goldens, then the 60-step loop
    (alpha;beta)^30 at s t s against the identity as a zigzag sphere."""
    spheres = [parse_sphere(braid_p, f"sphere : {text}")
               for text in GOLDEN_SPHERES.values()]
    loop = braid_loop(30).zigzag()
    return spheres + [(loop, ZigzagPath(loop.source))]


@pytest.fixture(scope="module")
def cold_fixed(braid8, fixed_spheres):
    """Each fixed sphere's filling and boundary, filled in a completion of
    its own."""
    g, lab, c, _ = braid8
    return [_filled(_fresh(c), lab, g, f, h) for f, h in fixed_spheres]


@pytest.fixture(scope="module")
def warm(braid8, fixed_spheres, cold_fixed):
    """A completion that has filled every fixed sphere, each as a
    completion of its own fills it."""
    g, lab, c, _ = braid8
    c = _fresh(c)
    assert [_filled(c, lab, g, f, h) for f, h in fixed_spheres] == cold_fixed
    return c


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_warm_fillings_equal_cold_ones(braid_loop, braid8, fixed_spheres,
                                       cold_fixed, warm, data):
    """A sphere filled after others, or before them, gives the expression
    and boundary it gets in a completion of its own, and so do they."""
    g, lab, c, _ = braid8
    f, h = _draw_sphere(data, braid_loop, braid8)
    cold = _filled(_fresh(c), lab, g, f, h)
    # after the fixed spheres and every sphere drawn before this one
    assert _filled(warm, lab, g, f, h) == cold
    assert _filled(warm, lab, g, f, h) == cold
    # before the fixed spheres, each again as in a completion of its own
    first = _fresh(c)
    assert _filled(first, lab, g, f, h) == cold
    assert [_filled(first, lab, g, f2, h2)
            for f2, h2 in reversed(fixed_spheres)] == cold_fixed[::-1]


def test_fillings_are_kept_under_the_completions_own_objects(
        braid_p, braid8, fixed_spheres, cold_fixed, monkeypatch):
    """A completion fills under the labelling and graph it was built from:
    a warm one fills nothing anew for them, and an equal labelling or graph
    built apart raises ValueError along both of the filler's entry points
    and fills nothing."""
    import polyco.completion as completion
    g, lab, c, _ = braid8
    anew = []
    fill_anew = completion._fill_anew
    monkeypatch.setattr(completion, "_fill_anew",
                        lambda *a: anew.append(a[1:3]) or fill_anew(*a))

    def fill_all(c, lab, g):
        del anew[:]
        assert [_filled(c, lab, g, f, h)
                for f, h in fixed_spheres] == cold_fixed
        return list(anew)

    c = _fresh(c)
    assert c.labelling is lab and c.graph is g
    cold = fill_all(c, lab, g)
    assert cold and fill_all(c, lab, g) == []
    other_lab = Labelling.qnf(dict(lab.qnf_map))
    other_g = explore(braid_p, all_words(braid_p, 8),
                      ExplorationBudget(8, 100000, 200))
    fresh = _fresh(c)
    f, h = fixed_spheres[0]
    for lab2, g2 in ((other_lab, g), (lab, other_g)):
        for c2 in (c, fresh):
            with pytest.raises(ValueError):
                fill_zigzag_sphere(c2, lab2, g2, f, h)
            with pytest.raises(ValueError):
                fill_parallel_sphere(c2, lab2, g2, f.forward_path(),
                                     h.forward_path())
    assert anew == [] and fresh._fillings == {}
    assert fill_all(c, lab, g) == []


def _least_depth(p, lab, g, f, h) -> int:
    """The least depth at which a completion of its own fills the parallel
    sphere; every smaller one raises SearchExhausted."""
    d = 0
    while True:
        try:
            fill_parallel_sphere(build_completion(p, lab, g), lab, g, f, h,
                                 depth=d)
            return d
        except SearchExhausted:
            d += 1


def test_kept_filling_needs_the_depth_it_used(braid_p, braid8):
    """A kept filling of height k raises SearchExhausted below depth k, as
    a cold call does, and gives the cold expression from depth k on,
    whether the table holds the sphere, only its residual spheres, or
    nothing."""
    g, lab, c, _ = braid8
    f, h = (z.forward_path() for z in parse_sphere(braid_p, DEEP_SPHERE))
    k = _least_depth(braid_p, lab, g, f, h)
    assert k >= 2
    cold = str(fill_parallel_sphere(build_completion(braid_p, lab, g), lab,
                                    g, f, h, depth=k))
    full = build_completion(braid_p, lab, g)
    assert str(fill_parallel_sphere(full, lab, g, f, h)) == cold
    # a call that ran out of depth keeps the residual spheres it filled
    partial = build_completion(braid_p, lab, g)
    with pytest.raises(SearchExhausted):
        fill_parallel_sphere(partial, lab, g, f, h, depth=k - 1)
    for warm in (full, partial):
        for d in range(k):
            with pytest.raises(SearchExhausted):
                fill_parallel_sphere(warm, lab, g, f, h, depth=d)
        for d in (k, k + 1):
            assert str(fill_parallel_sphere(warm, lab, g, f, h,
                                            depth=d)) == cold


def test_fault_sphere_raises_in_a_warm_completion(braid_p, braid8,
                                                  fixed_spheres):
    """Failures are not kept and do not turn into successes: the fault
    sphere raises before and after a completion has filled the fixed
    spheres, along both of the filler's entry points."""
    g, lab, _, _ = braid8
    c = build_completion(braid_p, lab, g)
    f, h = parse_sphere(braid_p, FAULT_SPHERE)
    for _ in range(2):
        with pytest.raises(SearchExhausted):
            fill_zigzag_sphere(c, lab, g, f, h)
        with pytest.raises(SearchExhausted):
            fill_parallel_sphere(c, lab, g, f.forward_path(),
                                 h.forward_path())
        for f2, h2 in fixed_spheres:
            _fill(c, lab, g, f2, h2)


@pytest.mark.parametrize("text, n", [(None, 8), ("A3", 6)],
                         ids=["braid-8", "A3-6"])
def test_kept_geodesics_equal_a_fresh_graphs(braid_p, text, n):
    """Every word's geodesic to each of its quasi-normal forms, asked of a
    graph that keeps them, once and again, is the one a fresh graph finds
    when asked in the other order."""
    p = parse_polygraph(A3) if text else braid_p

    def graph():
        return explore(p, all_words(p, n), ExplorationBudget(n, 100000, 200))

    kept, fresh = graph(), graph()
    pairs = [(w, q) for w in kept.vertices
             for q in sorted(kept.quasi_normal_forms(w))]
    assert len(pairs) > len(kept.vertices)
    first = [kept.geodesic(w, q) for w, q in pairs]
    again = [kept.geodesic(w, q) for w, q in pairs]
    assert all(a is b for a, b in zip(first, again))
    assert first == [fresh.geodesic(w, q) for w, q in pairs[::-1]][::-1]


@pytest.fixture(scope="module")
def peiffer_closures(braid_p, braid8):
    """Every Peiffer branching on words up to length 6 of the braid-8,
    two_letters-6 and A3-6 completions, in both step orders, with its
    system and the closure _peiffer_closure pastes for it."""
    systems = [(braid_p, *braid8[:3])]
    for p in (two_letters(), parse_polygraph(A3)):
        g = explore(p, all_words(p, 6), ExplorationBudget(6, 100000, 200))
        lab = Labelling.qnf(derived_qnf_map(g))
        systems.append((p, g, lab, build_completion(p, lab, g)))
    out = []
    for p, g, lab, c in systems:
        for u in all_words(p, 6):
            for b in local_branchings(p, u):
                if b.kind != PEIFFER:
                    continue
                for f1, h1 in ((b.first, b.second), (b.second, b.first)):
                    out.append((p, g, lab, c, LocalBranching(f1, h1),
                                _peiffer_closure(c, f1, h1)))
    return out


def _pasted_variant(p, b, c_f, c_h):
    return next(name for name, cf, ch, _ in peiffer_variants(p, b)
                if (cf, ch) == (c_f, c_h))


def test_peiffer_closures_pass_check_boundary(peiffer_closures):
    """Every Peiffer closure closes with an expression from f1;c_f to
    h1;c_h; between them the closures paste all four variants."""
    pasted = set()
    for p, g, lab, c, b, (c_f, c_h, e, _) in peiffer_closures:
        src, tgt = check_boundary(e, c.cells)
        assert src == normalize_zigzag(zigzag(b.source, b.first, c_f))
        assert tgt == normalize_zigzag(zigzag(b.source, b.second, c_h))
        pasted.add(_pasted_variant(p, b, c_f, c_h))
    assert pasted == {"peiffer", "reverse_both", "around_left",
                      "around_right"}


def test_peiffer_closures_paste_the_audited_variant(peiffer_closures):
    """Sphere filling closes each Peiffer branching with the variant and
    the strictness the Peiffer audit reports for it."""
    assert len(peiffer_closures) == 8 + 2808 + 864
    for p, g, lab, c, b, (c_f, c_h, _, strict) in peiffer_closures:
        report = decide_peiffer(lab, g, p, b)
        assert report.status == "PASS"
        assert (_pasted_variant(p, b, c_f, c_h), strict) == (
            report.variant, report.strict), (b.first, b.second)


def test_undecided_peiffer_closures_paste_the_square(lafont_p, lafont_g):
    """A Peiffer branching the audit leaves UNDECIDED closes with the plain
    Peiffer square, which needs no cell, and not strictly."""
    lab = Labelling.qnf(derived_qnf_map(lafont_g))
    c = build_completion(lafont_p, lab, lafont_g, peiffer_len_bound=4)
    reports = [decide_peiffer(lab, lafont_g, lafont_p, b)
               for u in all_words(lafont_p, 4)
               for b in local_branchings(lafont_p, u) if b.kind == PEIFFER]
    undecided = [r.branching for r in reports if r.status == "UNDECIDED"]
    audit = c.audits["peiffer"]
    reports = [r for r in reports if r.status == "UNDECIDED"]
    assert undecided and sum(audit.counts.values()) == len(undecided)
    assert audit.firsts["violation"][0] == peiffer_witness(
        next(r for r in reports if not read_a_label_error(r)))
    for b in undecided:
        c_f, c_h, e, strict = _peiffer_closure(c, b.first, b.second)
        assert _pasted_variant(lafont_p, b, c_f, c_h) == "peiffer"
        assert not strict and not e.atoms


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


def test_parse_sphere_rejects_ill_composed_and_unparallel_sides(braid_p):
    with pytest.raises(ParseError, match=re.escape(
            "line 2: step 1|alpha|t does not start at t s t t")):
        parse_sphere(braid_p, "# steps that do not compose\n"
                              "sphere : 1|alpha|t ; 1|alpha|t => s|beta|1")
    with pytest.raises(ParseError, match="line 1: .* not parallel"):
        parse_sphere(braid_p, "sphere : 1|alpha|t => 1|beta|s")


_braid_steps = st.builds(
    lambda left, rule, right, forward: (
        f"{' '.join(left) or '1'}|{rule}|{' '.join(right) or '1'}"
        + ("" if forward else "-")),
    st.lists(st.sampled_from("st"), max_size=3), st.sampled_from(
        ["alpha", "beta"]), st.lists(st.sampled_from("st"), max_size=3),
    st.booleans())
_braid_zigzags = st.lists(_braid_steps, min_size=1, max_size=4).map(
    " ; ".join)


_sphere_heads = st.sampled_from(["sphere", "sphereXYZ", "spheres",
                                 "sphere two", "", "cell X"])
_cell_heads = st.sampled_from(["cell X", "cell E1", "cell", "cell ",
                               "cell two words", "cellX", "sphere"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(src=_braid_zigzags, tgt=_braid_zigzags, sphere_head=_sphere_heads,
       cell_heads=st.lists(_cell_heads, min_size=1, max_size=3))
def test_sphere_and_extension_parsers_fail_only_with_parse_error(
        braid_p, src, tgt, sphere_head, cell_heads):
    """Zigzags of random braid steps, in either orientation and whether
    they compose or not, under heads of either file, parse or raise
    ParseError.  A parsed sphere has the head ``sphere`` and parallel
    sides; parsed cells have heads ``cell NAME``, one word per name, each
    name given once."""
    with contextlib.suppress(ParseError):
        f, h = parse_sphere(braid_p, f"{sphere_head} : {src} => {tgt}")
        assert sphere_head == "sphere"
        assert (f.source, f.target) == (h.source, h.target)
    with contextlib.suppress(ParseError):
        cells = parse_extension(braid_p, "\n".join(
            f"{head} : {src} => {tgt}" for head in cell_heads))
        assert [f"cell {name}" for name in cells] == cell_heads


@pytest.mark.parametrize("p,longest", [
    (braid(), 8), (two_letters(), 8), (convergent_braid(), 8),
    (parse_polygraph(A3), 8),
    (no_fdt(), 6)], ids=lambda x: getattr(x, "name", x))
def test_certified_verdict_is_monotone_in_the_word_length(p, longest):
    """The completion ``polyco complete`` builds, at each --max-word-len
    from 1: once CERTIFIED, it stays CERTIFIED at every longer length.  A
    search that gives up counts as not CERTIFIED."""
    verdicts = []
    for n in range(1, longest + 1):
        g = explore(p, all_words(p, n), ExplorationBudget(n, 100000, 200))
        lab = (Labelling.nf(g) if p.name == "convergent_braid"
               else Labelling.qnf(derived_qnf_map(g)))
        try:
            verdicts.append(build_completion(p, lab, g).verdict)
        except SearchExhausted:
            verdicts.append("exhausted")
    first = verdicts.index(CERTIFIED) if CERTIFIED in verdicts else longest
    assert all(v == CERTIFIED for v in verdicts[first:]), verdicts


def test_a_critical_source_past_the_cap_gets_no_cell():
    """B3 explored from the words its audits label at length 6: the two
    critical branchings on 7-letter words get no cell, the others keep
    their names, and the context audit reads each of the two, in the empty
    context, as unverified with the word and the option."""
    p = parse_polygraph(B3)
    crits = critical_branchings(p)
    g = explore(p, audit_seeds(p, crits, 6, 2, 6),
                ExplorationBudget(6, 100000, 200))
    c = build_completion(p, Labelling.qnf(derived_qnf_map(g)), g)
    left = [i for i, b in enumerate(crits) if len(b.source) > 6]
    assert len(left) == 2 and c.verdict == PARTIAL
    assert [name for name in c.cells if name.startswith("D")] == [
        f"D{i + 1}" for i in range(len(crits)) if i not in left]
    strict = c.audits["strict"]
    assert strict.counts == Counter(unverified=len(left))
    assert (strict.witness, strict.option) == (
        {"branching": left[0], "error": f"{' '.join(crits[left[0]].source)}"
                                        " is longer than --max-word-len"},
        "--max-word-len")
    assert c.audits["context"].status == "unverified"
    for i in left:
        # the context audit of that branching alone, at the empty context
        ctx = check_context_closability(c.labelling, g, [crits[i]], 0)
        assert (ctx.counts, ctx.option) == (Counter(unverified=1),
                                            "--max-word-len")
        assert ctx.witness == {
            "branching": 0, "context": ["1", "1"],
            "error": f"{' '.join(crits[i].source)} is longer than "
                     "--max-word-len"}
