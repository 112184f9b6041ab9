"""The three workloads: their inputs, the operations of one round and the
check of every operation's output.

A round is the same list of operations in every interpreter of a run, so a
run attempts whole rounds and its share of failed operations is fixed.  The
workload seed only draws the random spheres of `fill`; `audit` and
`complete` have fixed inputs, and their seed acts through the hash seed of
each round's interpreter (see run.py).

Each workload function receives the imported `polyco` package, the seed and
the work directory, does the set-up and returns a Round.  It reads program
functions through the package at call time, so that a traced interpreter
sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import (WrongOutput, expect_abelian_boundary, expect_critical,
                     expect_homology, expect_loop_cells)

POLY = {
    "braid": """polygraph braid
gens s t
rule alpha : s t s => t s t
rule beta : t s t => s t s
""",
    "convergent_braid": """polygraph convergent_braid
gens s t a
rule r1 : s t s => a
rule r2 : t s t => a
rule r3 : s a => a t
rule r4 : t a => a s
""",
    "two_letters": """polygraph two_letters
gens a b
rule alpha : a => b
rule beta : b => a
""",
    # The Artin presentation of the positive braid monoid on four strands,
    # with both orientations of each relation.
    "a3": """polygraph A3
gens a b c
rule r1 : a b a => b a b
rule r2 : b a b => a b a
rule r3 : b c b => c b c
rule r4 : c b c => b c b
rule r5 : a c => c a
rule r6 : c a => a c
""",
}


@dataclass(frozen=True)
class CliOp:
    """One polyco command on a presentation.  `context_ok` is the expected
    result of check-decreasing's fixed-completion context audit; `fault`
    names the audit that a known fault makes fail every time."""

    name: str
    poly: str
    options: tuple[str, ...]
    context_ok: bool = True
    fault: str | None = None


AUDIT = (
    CliOp("braid-9", "braid", ("--max-word-len", "9", "--ctx-bound", "4",
                               "--peiffer-len-bound", "9"),
          context_ok=False),
    CliOp("convergent_braid-8", "convergent_braid",
          ("--label", "nf", "--max-word-len", "8", "--ctx-bound", "3",
           "--peiffer-len-bound", "8")),
    CliOp("two_letters-8", "two_letters",
          ("--max-word-len", "8", "--peiffer-len-bound", "8")),
    CliOp("a3-7", "a3", ("--max-word-len", "7"), context_ok=False),
)

COMPLETE = (
    CliOp("braid-7", "braid", ("--max-word-len", "7")),
    CliOp("braid-8", "braid", ("--max-word-len", "8")),
    CliOp("convergent_braid-8", "convergent_braid",
          ("--label", "nf", "--max-word-len", "8")),
    CliOp("convergent_braid-9", "convergent_braid",
          ("--label", "nf", "--max-word-len", "9")),
    # The single loop class is lost under the global cycle cap.
    CliOp("braid-9", "braid", ("--max-word-len", "9"), fault="loops"),
    CliOp("braid-10", "braid", ("--max-word-len", "10"), fault="loops"),
    # find_decreasing swallows MissingLabel, so truncation reads as a
    # context violation.
    CliOp("a3-6", "a3", ("--max-word-len", "6"), fault="context"),
)

FILL_WORD_LEN = 8
PARALLEL_SPHERES = 100
ZIGZAG_SPHERES = 100
LOOP_STEPS = (60, 100, 160)
# Its two sides differ by the loop alpha;beta, and filling recurses until
# its depth runs out although the completion is CERTIFIED.
FAULT_SPHERE = ("sphere : t s s|alpha|1 ; t s|alpha|t ; 1|beta|s t t => "
                "t s s|alpha|1 ; t s s|beta|1 ; t s s|alpha|1 ; "
                "t s|alpha|t ; 1|beta|s t t")


@dataclass
class Round:
    """The operations of one round, each (name, run, check): run() does the
    timed work, check(result) returns True for a failed operation and
    raises WrongOutput for a wrong one.  verify() checks the set-up."""

    ops: list[tuple[str, Callable, Callable]]
    verify: Callable[[], None] = lambda: None


def _cli(polyco, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = polyco.cli.main(argv)
    return rc, buf.getvalue()


def _write_inputs(workdir: Path) -> dict[str, str]:
    workdir.mkdir(exist_ok=True)
    paths = {}
    for name, text in POLY.items():
        path = workdir / f"{name}.poly"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def audit(polyco, seed: int, workdir: Path) -> Round:
    paths = _write_inputs(workdir)

    def op(o: CliOp):
        argv = ["check-decreasing", paths[o.poly], *o.options,
                "--format", "json"]

        def run():
            return _cli(polyco, argv)

        def check(result) -> bool:
            rc, out = result
            data = json.loads(out)
            rows = data["branchings"]
            expect_critical(POLY[o.poly], len(rows), o.name)
            lost = [r["source"] for r in rows
                    if r["status"] not in ("strict", "decreasing")]
            if lost:
                raise WrongOutput(f"{o.name}: no diagram at {lost}")
            if not data["peiffer_ok"]:
                raise WrongOutput(f"{o.name}: Peiffer audit failed")
            if data["context"]["ok"] != o.context_ok:
                raise WrongOutput(f"{o.name}: context audit reads "
                                  f"{data['context']['ok']}")
            if rc != (0 if o.context_ok else 3):
                raise WrongOutput(f"{o.name}: exit code {rc}")
            return False

        return o.name, run, check

    return Round([op(o) for o in AUDIT])


def complete(polyco, seed: int, workdir: Path) -> Round:
    paths = _write_inputs(workdir)

    def op(o: CliOp):
        cells_path = workdir / f"{o.name}.cells"
        argv = ["complete", paths[o.poly], *o.options, "--format", "json"]
        homology_argv = ["homology", paths[o.poly], "--cells",
                         str(cells_path), "--format", "json"]

        def run():
            rc, out = _cli(polyco, argv)
            data = json.loads(out)
            cells_path.write_text("".join(
                f"cell {name} : {cell['source']} => {cell['target']}\n"
                for name, cell in data["cells"].items()))
            hrc, hout = _cli(polyco, homology_argv)
            return rc, data, hrc, hout

        def check(result) -> bool:
            rc, data, hrc, hout = result
            kinds = Counter(c["kind"] for c in data["cells"].values())
            expect_critical(POLY[o.poly], kinds["confluence"], o.name)
            if hrc != 0:
                raise WrongOutput(f"{o.name}: homology exit code {hrc}")
            audits = data["audits"]
            if data["verdict"] == "CERTIFIED":
                if rc != 0:
                    raise WrongOutput(f"{o.name}: CERTIFIED with exit {rc}")
                expect_loop_cells(o.poly, kinds["loop"], o.name)
                h = json.loads(hout)
                expect_homology(o.poly, (h["H0"], h["H1"], h["H2"]), o.name)
                return False
            if rc == 3 and o.fault == "loops" \
                    and not audits["loops"]["complete"]:
                return True
            if rc == 3 and o.fault == "context" \
                    and not audits["context"]["ok"]:
                return True
            raise WrongOutput(f"{o.name}: {data['verdict']} with exit {rc} "
                              f"and no known fault")

        return o.name, run, check

    return Round([op(o) for o in COMPLETE])


# ---------------------------------------------------------------------------
# fill


class _Geodesics:
    """Distances to each word's chosen quasi-normal form, computed here by
    backward search over the explored edges so that the program's own
    distance cache stays cold for the timed fills.  Every list is built in
    exploration order, so the spheres drawn do not depend on the hash
    seed."""

    def __init__(self, g, qnf):
        pred: dict = {}
        for u, steps in g.out.items():
            for s in steps:
                pred.setdefault(s.target, []).append(u)
        self.dist: dict = {}
        for hat in dict.fromkeys(qnf[w] for w in g.vertices):
            self.dist[hat] = 0
            frontier = [hat]
            while frontier:
                nxt = []
                for x in frontier:
                    for v in pred.get(x, ()):
                        if v not in self.dist:
                            self.dist[v] = self.dist[x] + 1
                            nxt.append(v)
                frontier = nxt
        self.down = {w: [s for s in g.out[w]
                         if self.dist[s.target] == self.dist[w] - 1]
                     for w in g.vertices}
        self._counts: dict = {}

    def random(self, rng: random.Random, w) -> list:
        steps = []
        while self.down[w]:
            s = rng.choice(self.down[w])
            steps.append(s)
            w = s.target
        return steps

    def count(self, w) -> int:
        """The number of geodesics from w."""
        if w not in self._counts:
            down = self.down[w]
            self._counts[w] = (sum(self.count(s.target) for s in down)
                               if down else 1)
        return self._counts[w]

    def all(self, w) -> list[list]:
        if not self.down[w]:
            return [[]]
        return [[s] + rest for s in self.down[w]
                for rest in self.all(s.target)]


@dataclass(frozen=True)
class Sphere:
    name: str
    source: object      # ZigzagPath
    target: object      # ZigzagPath
    parallel: bool      # both sides forward: fill_parallel_sphere


def _spheres(polyco, p, g, qnf, rng: random.Random) -> list[Sphere]:
    """Random spheres whose sides are built from geodesics to the chosen
    quasi-normal form, then the long loops and the known failing sphere.

    Sides that leave the geodesics, such as random walks, make some spheres
    differ by a loop; those fail like FAULT_SPHERE, but on a share that
    changes with the seed, so they are left out and FAULT_SPHERE stands for
    them in every round."""
    geo = _Geodesics(g, qnf)
    Z = polyco.ZigzagPath
    out = []
    choices = [w for w in g.vertices if 2 <= geo.count(w) <= 64]
    for i in range(PARALLEL_SPHERES):
        w = rng.choice(choices)
        a, b = rng.sample(geo.all(w), 2)
        out.append(Sphere(f"parallel-{i}", Z(w, tuple(a)), Z(w, tuple(b)),
                          True))

    classes: dict = {}
    for w in g.vertices:
        classes.setdefault(qnf[w], []).append(w)
    big = [members for members in classes.values() if len(members) >= 4]

    def zigzag(members, u, v, peaks: int):
        z = Z(u, tuple(geo.random(rng, u)))
        for _ in range(peaks - 1):
            x = rng.choice(members)
            z = z.compose(Z(x, tuple(geo.random(rng, x))).inverse())
            z = z.compose(Z(x, tuple(geo.random(rng, x))))
        return z.compose(Z(v, tuple(geo.random(rng, v))).inverse())

    for i in range(ZIGZAG_SPHERES):
        members = rng.choice(big)
        u, v = rng.choice(members), rng.choice(members)
        out.append(Sphere(f"zigzag-{i}",
                          zigzag(members, u, v, rng.randint(1, 2)),
                          zigzag(members, u, v, rng.randint(1, 2)), False))

    alpha, beta = p.rule("alpha"), p.rule("beta")
    sts = ("s", "t", "s")
    for n in LOOP_STEPS:
        loop = (polyco.RewriteStep((), alpha, ()),
                polyco.RewriteStep((), beta, ())) * (n // 2)
        out.append(Sphere(f"loop-{n}", Z(sts, loop), Z(sts), False))
    f, h = polyco.parse_sphere(p, FAULT_SPHERE)
    out.append(Sphere("fault-sphere", f, h, True))
    return out


def fill(polyco, seed: int, workdir: Path) -> Round:
    p = polyco.parse_polygraph(POLY["braid"])
    n = FILL_WORD_LEN
    g = polyco.explore(p, polyco.all_words(p, n),
                       polyco.ExplorationBudget(n, 100000, 200))
    # the labelling polyco's CLI derives: the least quasi-normal form
    qnf = {w: min(g.quasi_normal_forms(w), key=lambda x: (len(x), x))
           for w in g.vertices}
    lab = polyco.Labelling.qnf(qnf)
    c = polyco.build_completion(p, lab, g)
    spheres = _spheres(polyco, p, g, qnf, random.Random(seed))

    def verify():
        kinds = Counter(cell.kind for cell in c.cells.values())
        if c.verdict != polyco.CERTIFIED or len(c.cells) != 5:
            raise WrongOutput(f"fill set-up: {c.verdict} with "
                              f"{len(c.cells)} cells")
        expect_critical(POLY["braid"], kinds[polyco.CONFLUENCE],
                        "fill set-up")
        expect_loop_cells("braid", kinds[polyco.LOOP], "fill set-up")
        h = polyco.homology(polyco.abelianize(p, c.cell_list))
        expect_homology("braid", (str(h.h0), str(h.h1), str(h.h2)),
                        "fill set-up")

    def op(sp: Sphere):
        def run():
            try:
                if sp.parallel:
                    expr = polyco.fill_parallel_sphere(
                        c, lab, g, sp.source.forward_path(),
                        sp.target.forward_path())
                else:
                    expr = polyco.fill_zigzag_sphere(c, lab, g, sp.source,
                                                     sp.target)
            except polyco.SearchExhausted as e:
                return e
            return expr, polyco.check_boundary(expr, c.cells)

        def check(result) -> bool:
            if isinstance(result, polyco.SearchExhausted):
                if sp.name == "fault-sphere":
                    return True
                raise WrongOutput(f"{sp.name}: {result}")
            expr, (src, tgt) = result
            expect_abelian_boundary(expr, c.cells, sp.source, sp.target,
                                    sp.name)
            if not (polyco.zigzags_equal(src, sp.source)
                    and polyco.zigzags_equal(tgt, sp.target)):
                raise WrongOutput(f"{sp.name}: boundary is not the sphere")
            return False

        return sp.name, run, check

    return Round([op(sp) for sp in spheres], verify)


WORKLOADS = {"audit": audit, "complete": complete, "fill": fill}
