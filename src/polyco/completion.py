"""Decreasing completions and constructive filling of 2-spheres.

The completion of a quasi-terminating presentation under a labelling has
one confluence 3-cell per critical branching (closed by a decreasing
diagram, strict when possible) and one extension 3-cell per elementary
loop class.  Audits record strictness, compatibility with contexts up to
a bound, Peiffer decreasingness up to a length bound and the loops;
CERTIFIED means every audit reads ok (audit_status), PARTIAL completions
are still produced with their audits attached.

Sphere filling pastes those generator cells into an expression between
two parallel 2-cells, by induction on the branching measure for parallel
forward paths and through paths to a common quasi-normal form for
zigzags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (ParseError, Polygraph, Word, file_lines, parse_word,
                   word_str)
from .branchings import (PEIFFER, LocalBranching, classify_branching,
                         critical_branchings, match_critical)
from .decreasing import (CTX_BOUND, OK, PEIFFER_LEN_BOUND, UNVERIFIED,
                         VIOLATION, Audit, MeasureError, SearchExhausted,
                         DecreasingDiagram, audit_status, canonical_target,
                         check_context_closability,
                         check_peiffer_decreasing, closure_cut,
                         decide_peiffer, find_decreasing, reads_strict)
from .engine import (IllComposed, Path, ReductionGraph, RewriteStep,
                     ZigzagPath, exchange_swap, parse_step, zigzag)
from .expressions import (Atom, ThreeCell, ThreeCellExpression, conjugate,
                          contract_loop, invert, CONFLUENCE, LOOP)
from .labelling import Labelling, measure_branching, multiset_less
from .loops import enumerate_elementary_loops, word_sequence


@dataclass
class ConfluenceRecord:
    name: str
    diagram: DecreasingDiagram


@dataclass
class CoherentPresentation:
    polygraph: Polygraph
    cells: dict[str, ThreeCell]
    confluences: list[ConfluenceRecord]
    loop_classes: dict[tuple, str]
    audits: dict
    verdict: str
    # the labelling and explored graph the completion was built from: the
    # filler reads both, and contract_loop reads the graph's fundamental
    # loops
    labelling: Labelling
    graph: ReductionGraph
    # the parallel spheres filled so far, by _sphere_key, with their
    # heights (fill_parallel_sphere)
    _fillings: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def cell_list(self) -> list[ThreeCell]:
        return list(self.cells.values())

    def contract(self, loop: Path) -> ThreeCellExpression:
        return contract_loop(self.cells, self.loop_classes, loop, self.graph)


CERTIFIED = "CERTIFIED"
PARTIAL = "PARTIAL"


def build_completion(p: Polygraph, lab: Labelling, g: ReductionGraph, *,
                     ctx_bound: int = CTX_BOUND,
                     peiffer_len_bound: int = PEIFFER_LEN_BOUND
                     ) -> CoherentPresentation:
    """One confluence cell per critical branching plus one extension cell
    per elementary loop class of the explored words, with audits.

    A critical branching with no strict closure is unverified in the
    strictness audit when the budget cut a word its closure may need
    (closure_cut), and a violation otherwise.  One with no closure gets no
    cell, and raises SearchExhausted when the budget cut no such word."""
    criticals = critical_branchings(p)
    cells: dict[str, ThreeCell] = {}
    records: list[ConfluenceRecord] = []
    non_strict: list[str] = []
    strictness = Audit(len(criticals), {"non_strict_cells": non_strict})
    for i, cb in enumerate(criticals):
        d = find_decreasing(lab, g, cb)
        strict = d is not None and d.strict
        cut = None if strict else closure_cut(g, cb)
        if cut is not None:
            strictness.add(UNVERIFIED, lambda: (
                {"branching": i, "error": cut[0]}, cut[1]))
        if d is None:
            if cut is None:
                raise SearchExhausted(
                    f"no decreasing diagram for the critical branching at "
                    f"{word_str(cb.source)}")
            continue
        c1, c2 = d.completions
        name = f"D{i + 1}"
        cells[name] = ThreeCell(name, zigzag(cb.source, cb.first, c1),
                                zigzag(cb.source, cb.second, c2),
                                CONFLUENCE)
        records.append(ConfluenceRecord(name, d))
        if not strict:
            non_strict.append(name)
            if cut is None:
                strictness.add(VIOLATION, lambda: ({"cell": name}, None))

    classes, loops = loop_audit(g)
    loop_classes: dict[tuple, str] = {}
    for j, cls in enumerate(classes):
        name = f"E{j + 1}"
        rep = cls.representative
        cells[name] = ThreeCell(name, rep.path.zigzag(),
                                ZigzagPath(rep.base), LOOP)
        loop_classes[cls.key] = name

    # The certificate asks every whiskered critical branching to stay
    # strictly closable, not a fixed completion to stay decreasing.  Under
    # qnf and table labels the filler pastes the recorded completion
    # whiskered and re-checks only its strictness, so it may close
    # non-strictly what this audit closes strictly.
    audits = {
        "strict": strictness,
        "context": check_context_closability(lab, g, criticals, ctx_bound),
        "peiffer": check_peiffer_decreasing(lab, g, p, peiffer_len_bound),
        "loops": loops,
    }
    verdict = CERTIFIED if audit_status(audits.values()) == OK else PARTIAL
    return CoherentPresentation(p, cells, records, loop_classes,
                                audits, verdict, lab, g)


def loop_audit(g: ReductionGraph) -> tuple[list, Audit]:
    """The elementary loop classes of the explored words and the loop
    audit, which checks each word the budget left incomplete and, as one
    check, the seeds --max-states refused.  A cut by --max-states or
    --max-depth hides the cycles through the words it kept out, and so
    does a cut by --max-word-len on a cycle, where enumeration would raise;
    each is unverified.  Any other cut by --max-word-len keeps out only
    cycles past the cap.  ``complete`` is whether no check is unverified."""
    cut = [w for w in g.vertices if not g.is_complete(w)]
    audit = Audit(len(cut) + bool(g.refused))
    cyclic = set(g.scc_cyclic)
    on_cycle = False
    for w in cut:
        option, cycle = g.cut_by(w), g.component_of(w) in cyclic
        on_cycle = on_cycle or cycle
        if option != "--max-word-len" or cycle:
            audit.add(UNVERIFIED, lambda: ({"word": word_str(w), "error": (
                "on a cycle, " if cycle else "")
                + f"left incomplete by {option}"}, option))
    if g.refused:
        audit.add(UNVERIFIED, lambda: ({
            "word": word_str(g.first_refused),
            "error": f"{g.refused} seeds not explored within --max-states"},
            "--max-states"))
    audit.detail["complete"] = audit.ok
    return ([] if on_cycle else enumerate_elementary_loops(g).classes,
            audit)


# ---------------------------------------------------------------------------
# closing one local branching with a witness expression


def _overlap_closure(c: CoherentPresentation, f1: RewriteStep,
                     h1: RewriteStep):
    criticals = [r.diagram.branching for r in c.confluences]
    m = match_critical(c.polygraph, f1, h1, criticals)
    if m is None:
        raise SearchExhausted(
            f"overlapping branching at {word_str(f1.source)} matches no "
            f"critical branching of the completion")
    idx, wl, wr, swapped = m
    rec = c.confluences[idx]
    c_f, c_h = (side.whisker(wl, wr) for side in rec.diagram.completions)
    if swapped:
        c_f, c_h = c_h, c_f
    strict = rec.diagram.strict
    if strict and (wl or wr):
        # strictness of the recorded diagram does not survive whiskering
        # in general; re-check the instance actually used
        strict = reads_strict(c.labelling, c.graph, LocalBranching(f1, h1),
                              c_f, c_h)
    src = zigzag(f1.source, f1, c_f)
    atom = Atom(ZigzagPath(f1.source), wl, rec.name, -1 if swapped else +1,
                wr, ZigzagPath(c_f.target))
    return c_f, c_h, ThreeCellExpression(src, (atom,)), strict


def _peiffer_closure(c: CoherentPresentation, f1: RewriteStep,
                     h1: RewriteStep):
    """Close a Peiffer branching with the variant the Peiffer audit decides
    on (decide_peiffer), or with the plain Peiffer square, which needs no
    witness, when it decides none.  The variant's equivalence with the
    square is witnessed by loop cells.

    A witness loop at the source undoes f1 or h1 and is contracted, or
    inverted when it starts with h1; a detour loop closes after the step
    whose completion is empty and is conjugated by that step."""
    report = decide_peiffer(c.labelling, c.graph, c.polygraph,
                            LocalBranching(f1, h1))
    if report.diagram is None:
        # the plain square: each step exchanged past the other
        c_f = Path._checked(f1.target, exchange_swap(f1.inverse(), h1)[:1])
        c_h = Path._checked(h1.target, exchange_swap(h1.inverse(), f1)[:1])
    else:
        c_f, c_h = report.diagram.completions
    atoms = []
    for loop in report.witness_loops:
        if c_f.steps and c_h.steps:
            e, flip = c.contract(loop), loop.steps[0] == h1
        else:
            step = h1 if c_f.steps else f1
            e = conjugate(c.contract(loop), pre=zigzag(step.source, step))
            flip = step == f1
        atoms += (invert(e, c.cells) if flip else e).atoms
    src = zigzag(f1.source, f1, c_f)
    return c_f, c_h, ThreeCellExpression(src, tuple(atoms)), report.strict


# ---------------------------------------------------------------------------
# filling spheres


def _check_objects(c: CoherentPresentation, lab: Labelling,
                   g: ReductionGraph) -> None:
    if lab is not c.labelling or g is not c.graph:
        raise ValueError("a completion fills spheres under the labelling "
                         "and graph it was built from")


def fill_parallel_sphere(c: CoherentPresentation, lab: Labelling,
                         g: ReductionGraph, f: Path, h: Path,
                         depth: int = 64) -> ThreeCellExpression:
    """An expression from f to h, two parallel forward paths, pasted from
    the completion's cells.  The head local branching is closed by a
    confluence cell, a Peiffer exchange or an audited variant, and the two
    residual spheres are filled recursively; their branching measures
    strictly decrease when the closures are strict (checked at runtime).
    Where the head closure is not strict and f, or else h, revisits a
    word, its first loop is cut out instead: the loop is contracted
    (``CoherentPresentation.contract``) under the side's prefix and
    suffix, and the sphere without it is filled one level deeper.

    ``lab`` and ``g`` must be the labelling and graph the completion was
    built from (``c.labelling`` and ``c.graph``); any other object raises
    ValueError.  Fillings are kept on the completion, keyed by the two
    paths' values, with the height of each: the number of recursion levels
    it used, 0 when no sphere was split.  A residual sphere met again, in
    this filling or a later one, is a lookup.  Filling is deterministic,
    and a kept filling passed every measure check of its tree, so a call
    with less depth than its height would walk the same tree and run out
    at the same level: a kept sphere is returned when its height is at
    most ``depth`` and raises SearchExhausted otherwise.  Only successes
    are kept; a sphere that raised is filled anew."""
    _check_objects(c, lab, g)
    if f.source != h.source or f.target != h.target:
        raise IllComposed("the two paths are not parallel")
    return _fill(c, f, h, depth)[0]


def _sphere_key(f: Path, h: Path) -> tuple:
    """Two parallel forward paths by value: their source, then the position
    and rule name of each step, which with the word they apply to
    determine it.  Hashing it does not hash the steps' rules."""
    key = [f.source]
    for s in f.steps:
        key += len(s.left), s.rule.name
    key.append(None)
    for s in h.steps:
        key += len(s.left), s.rule.name
    return tuple(key)


def _fill(c: CoherentPresentation, f: Path, h: Path, depth: int
          ) -> tuple[ThreeCellExpression, int]:
    """The filling of fill_parallel_sphere and its height, read from the
    completion's kept fillings or filled anew and kept."""
    key = _sphere_key(f, h)
    kept = c._fillings.get(key)
    if kept is None:
        if depth < 0:
            raise SearchExhausted("sphere filling recursion depth exhausted")
        kept = c._fillings[key] = _fill_anew(c, f, h, depth)
    elif kept[1] > depth:
        raise SearchExhausted("sphere filling recursion depth exhausted")
    return kept


def _fill_anew(c: CoherentPresentation, f: Path, h: Path, depth: int
               ) -> tuple[ThreeCellExpression, int]:
    if f.steps == h.steps:
        return ThreeCellExpression(f.zigzag()), 0
    if not h.steps:
        return c.contract(f), 0
    if not f.steps:
        return ThreeCellExpression(
            f.zigzag(), invert(c.contract(h), c.cells).atoms), 0
    f1, h1 = f.steps[0], h.steps[0]
    f2 = Path._checked(f1.target, f.steps[1:])
    h2 = Path._checked(h1.target, h.steps[1:])
    if f1 == h1:
        sub, height = _fill(c, f2, h2, depth - 1)
        atoms = conjugate(sub, pre=zigzag(f.source, f1)).atoms
        return ThreeCellExpression(f.zigzag(), atoms), height + 1
    close = (_peiffer_closure if classify_branching(f1, h1) == PEIFFER
             else _overlap_closure)
    c_f, c_h, a_expr, strict = close(c, f1, h1)
    if not strict:
        cut = _cut_loop(c, f, h, depth)
        if cut is not None:
            return cut
    lab, g = c.labelling, c.graph
    w = c_f.target
    hat = canonical_target(lab, g, f.target)
    k = g.geodesic(f.target, hat)
    hbar = g.geodesic(w, hat)
    left_b = f2.compose(k), c_f.compose(hbar)
    right_b = c_h.compose(hbar), h2.compose(k)
    if strict:
        outer = measure_branching(lab, g, f, h)
        for inner in (left_b, right_b):
            m = measure_branching(lab, g, inner[0], inner[1])
            if not multiset_less(m, outer, lab.order):
                raise MeasureError(
                    f"residual sphere measure {m!r} is not strictly below "
                    f"{outer!r}")
    bexp, bh = _fill(c, left_b[0], left_b[1], depth - 1)
    cexp, ch = _fill(c, right_b[0], right_b[1], depth - 1)
    k_inv = k.inverse()
    atoms = (conjugate(bexp, pre=zigzag(f.source, f1), post=k_inv).atoms
             + conjugate(a_expr, post=hbar.compose(k_inv)).atoms
             + conjugate(cexp, pre=zigzag(h.source, h1), post=k_inv).atoms)
    return ThreeCellExpression(f.zigzag(), atoms), max(bh, ch) + 1


def _cut_loop(c: CoherentPresentation, f: Path, h: Path, depth: int
              ) -> tuple[ThreeCellExpression, int] | None:
    """The filling of f and h through the first loop f revisits, or else
    h: the loop's contraction under the side's prefix and suffix, glued to
    the filling of the sphere with that loop cut out, one level deeper.
    None when neither side revisits a word."""
    for side in (f, h):
        steps, seen = side.steps, {}
        for j, w in enumerate(word_sequence(steps)):
            i = seen.setdefault(w, j)
            if i == j:
                continue
            loop = conjugate(c.contract(Path._checked(w, steps[i:j])),
                             pre=side.prefix(i),
                             post=ZigzagPath._checked(w, steps[j:]))
            rest = Path._checked(side.source, steps[:i] + steps[j:])
            if side is f:
                sub, height = _fill(c, rest, h, depth - 1)
                atoms = loop.atoms + sub.atoms
            else:
                sub, height = _fill(c, f, rest, depth - 1)
                atoms = sub.atoms + invert(loop, c.cells).atoms
            return ThreeCellExpression(f.zigzag(), atoms), height + 1
    return None


def fill_zigzag_sphere(c: CoherentPresentation, lab: Labelling,
                       g: ReductionGraph, f: ZigzagPath, h: ZigzagPath
                       ) -> ThreeCellExpression:
    """An expression from f to h for parallel zigzags: every word along
    either side is sent to a common quasi-normal form by a chosen path,
    each zigzag is straightened against those paths segment by segment
    through parallel sphere fillings, and the two straightened sides are
    glued back to back.  ``lab`` and ``g`` must be the completion's own,
    as for fill_parallel_sphere.

    Straightening is one pass over the steps of a side, last step first:
    each step's patch is filled once and conjugated once by the prefix of
    the side that ends before it, or, for an inverse step, with it.  For a
    side of k steps that is k parallel fillings of one step each, and
    Θ(k²) steps stored in the atoms' conjugators, which the ``Atom``
    representation needs.  The patches are filled through
    fill_parallel_sphere, so a step met again, on either side or in a
    later sphere of the same completion, reuses its kept patch."""
    _check_objects(c, lab, g)
    if f.source != h.source or f.target != h.target:
        raise IllComposed("the two zigzags are not parallel")
    hat = canonical_target(lab, g, f.source)

    def down(w: Word) -> Path:
        return g.geodesic(w, hat)

    def straighten(z: ZigzagPath) -> ThreeCellExpression:
        # an expression from z * down(z.target) to down(z.source): the
        # patch of a forward step s turns s * down(s.target) into
        # down(s.source) under the prefix of z before s; an inverse step
        # s- pastes that patch inverted under the prefix ending with s-,
        # where s- . s . down(s.target) reduces to down(s.target)
        atoms: list[Atom] = []
        for i in range(len(z) - 1, -1, -1):
            s = z.steps[i]
            fwd = s if s.forward else s.inverse()
            patch = fill_parallel_sphere(
                c, lab, g,
                Path._checked(fwd.source, (fwd,)).compose(down(fwd.target)),
                down(fwd.source))
            end = i
            if not s.forward:
                patch, end = invert(patch, c.cells), i + 1
            atoms += conjugate(patch, pre=z.prefix(end)).atoms
        return ThreeCellExpression(z.compose(down(z.target).zigzag()),
                                   tuple(atoms))

    tail = down(f.target).inverse()
    atoms = (conjugate(straighten(f), post=tail).atoms
             + conjugate(invert(straighten(h), c.cells), post=tail).atoms)
    return ThreeCellExpression(f, atoms)


# ---------------------------------------------------------------------------
# extension files and sphere files


def parse_zigzag(p: Polygraph, text: str, line: int | None = None
                 ) -> ZigzagPath:
    text = text.strip()
    if text.startswith("id ") or text == "id":
        return ZigzagPath(parse_word(text[2:].strip(), line))
    steps = [parse_step(p, part, line) for part in text.split(";")]
    try:
        return ZigzagPath(steps[0].source, tuple(steps))
    except IllComposed as e:
        raise ParseError(str(e), line)


def format_extension(c: CoherentPresentation) -> str:
    lines = [f"# completion of {c.polygraph.name}: verdict {c.verdict}"]
    for name, cell in c.cells.items():
        lines.append(f"cell {name} : {cell.source} => {cell.target}")
    return "\n".join(lines) + "\n"


def parse_extension(p: Polygraph, text: str) -> dict[str, ThreeCell]:
    """The ``cell NAME : ZIGZAG => ZIGZAG`` lines of an extension file, by
    name; each NAME is one word, given once."""
    cells: dict[str, ThreeCell] = {}
    for lineno, line in file_lines(text):
        if not line.startswith("cell "):
            raise ParseError(f"unknown extension line {line!r}", lineno)
        body = line[len("cell "):]
        if ":" not in body or "=>" not in body:
            raise ParseError("expected: cell NAME : ZIGZAG => ZIGZAG",
                             lineno)
        name, rest = body.split(":", 1)
        name = name.strip()
        if len(name.split()) != 1:
            raise ParseError(f"a cell name is one word, not {name!r}", lineno)
        if name in cells:
            raise ParseError(f"cell {name!r} is declared twice", lineno)
        srctext, tgttext = rest.split("=>", 1)
        src = parse_zigzag(p, srctext, lineno)
        tgt = parse_zigzag(p, tgttext, lineno)
        kind = LOOP if not tgt.steps and src.source == src.target \
            else CONFLUENCE
        try:
            cells[name] = ThreeCell(name, src, tgt, kind)
        except IllComposed as e:
            raise ParseError(str(e), lineno)
    return cells


def parse_sphere(p: Polygraph, text: str) -> tuple[ZigzagPath, ZigzagPath]:
    """The one ``sphere : ZIGZAG => ZIGZAG`` line of a sphere file; any
    other line that is not blank or a comment is an error."""
    sphere = None
    for lineno, line in file_lines(text):
        if sphere is not None:
            raise ParseError(f"unexpected line after the sphere: {line!r}",
                             lineno)
        head, colon, body = line.partition(":")
        if head.split()[:1] != ["sphere"]:
            raise ParseError(f"unknown sphere line {line!r}", lineno)
        if head.strip() != "sphere" or not colon or "=>" not in body:
            raise ParseError("expected: sphere : ZIGZAG => ZIGZAG", lineno)
        srctext, tgttext = body.split("=>", 1)
        f = parse_zigzag(p, srctext, lineno)
        h = parse_zigzag(p, tgttext, lineno)
        if f.source != h.source or f.target != h.target:
            raise ParseError("the two sides of the sphere are not parallel",
                             lineno)
        sphere = f, h
    if sphere is None:
        raise ParseError("no sphere declaration found")
    return sphere
