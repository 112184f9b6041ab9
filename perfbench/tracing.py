"""Spans around the public functions of polyco, recorded from outside.

The tracer replaces each target function in every polyco module namespace
that holds it, and each target method on its class, by a wrapper that
records a span (name, start, end, parent) and, on return, the counts read
from the result.  Spans are kept in memory in flat arrays; self time (a
span's duration minus that of its child spans) is summed per metric as the
spans close.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _words(t, g, outer):
    t.counts["engine.words"] += len(g.vertices)


def _critical(t, branchings, outer):
    t.counts["branchings.critical"] += len(branchings)


def _found(t, diagram, outer):
    t.counts["decreasing.found"] += diagram is not None


def _contexts(t, report, outer):
    t.counts["decreasing.contexts"] += report.checked


def _peiffer(t, reports, outer):
    t.counts["decreasing.peiffer_branchings"] += len(reports)


def _loops(t, enum, outer):
    t.counts["loops.classes"] += len(enum.classes)
    t.counts["loops.cap_hits"] += not enum.complete


def _filled(t, expr, outer):
    if outer:
        t.counts["completion.spheres"] += 1
        t.counts["expressions.atoms"] += len(expr.atoms)
        t.counts["expressions.steps_stored"] += sum(
            len(a.pre) + len(a.post) for a in expr.atoms)


# (span name, module, function or Class.method, count on return)
TARGETS = (
    ("core.parse", "polyco.core", "parse_polygraph", None),
    ("engine.explore", "polyco.engine", "explore", _words),
    ("engine.distance", "polyco.engine", "ReductionGraph.distance", None),
    ("engine.qnf", "polyco.engine", "ReductionGraph.quasi_normal_forms",
     None),
    ("engine.geodesic", "polyco.engine", "ReductionGraph.geodesic", None),
    ("engine.normalize", "polyco.engine", "normalize_zigzag", None),
    ("branchings.critical", "polyco.branchings", "critical_branchings",
     _critical),
    ("labelling.label", "polyco.labelling", "label_step", None),
    ("labelling.measure", "polyco.labelling", "measure_branching", None),
    ("decreasing.find", "polyco.decreasing", "find_decreasing", _found),
    ("decreasing.check", "polyco.decreasing", "check_strict", None),
    ("decreasing.check", "polyco.decreasing", "check_decreasing", None),
    ("decreasing.context", "polyco.decreasing",
     "check_context_compatibility", _contexts),
    ("decreasing.context", "polyco.decreasing", "check_context_closability",
     _contexts),
    ("decreasing.peiffer", "polyco.decreasing", "check_peiffer_decreasing",
     _peiffer),
    ("loops.enumerate", "polyco.loops", "enumerate_elementary_loops",
     _loops),
    ("loops.candidate", "polyco.loops", "is_elementary", None),
    ("loops.orbit", "polyco.loops", "is_minimal_for_composition", None),
    ("completion.build", "polyco.completion", "build_completion", None),
    ("completion.fill", "polyco.completion", "fill_parallel_sphere",
     _filled),
    ("completion.fill", "polyco.completion", "fill_zigzag_sphere", _filled),
    ("expressions.conjugate", "polyco.expressions", "conjugate", None),
    ("expressions.contract_loop", "polyco.expressions", "contract_loop",
     None),
    ("expressions.check_boundary", "polyco.expressions", "check_boundary",
     None),
    ("homology.abelianize", "polyco.homology", "abelianize", None),
    ("homology.snf", "polyco.homology", "smith_normal_form", None),
)

# per-layer metric -> span whose self time it reports
TIMES = {
    "core.parse_s": "core.parse",
    "engine.explore_s": "engine.explore",
    "engine.distance_s": "engine.distance",
    "engine.qnf_s": "engine.qnf",
    "engine.geodesic_s": "engine.geodesic",
    "engine.normalize_s": "engine.normalize",
    "branchings.critical_s": "branchings.critical",
    "labelling.label_s": "labelling.label",
    "labelling.measure_s": "labelling.measure",
    "decreasing.find_s": "decreasing.find",
    "decreasing.check_s": "decreasing.check",
    "decreasing.context_s": "decreasing.context",
    "decreasing.peiffer_s": "decreasing.peiffer",
    "loops.enumerate_s": "loops.enumerate",
    "loops.orbit_s": "loops.orbit",
    "completion.build_s": "completion.build",
    "completion.fill_s": "completion.fill",
    "expressions.conjugate_s": "expressions.conjugate",
    "expressions.contract_loop_s": "expressions.contract_loop",
    "expressions.check_boundary_s": "expressions.check_boundary",
    "homology.abelianize_s": "homology.abelianize",
    "homology.snf_s": "homology.snf",
}

# per-layer metric -> span whose number of calls it reports
CALLS = {
    "engine.distance_calls": "engine.distance",
    "engine.qnf_calls": "engine.qnf",
    "engine.geodesic_calls": "engine.geodesic",
    "engine.normalize_calls": "engine.normalize",
    "labelling.label_calls": "labelling.label",
    "decreasing.find_calls": "decreasing.find",
    "decreasing.check_calls": "decreasing.check",
    "loops.candidates": "loops.candidate",
}

COUNTS = ("engine.words", "branchings.critical", "decreasing.contexts",
          "decreasing.peiffer_branchings", "loops.classes", "loops.cap_hits",
          "completion.spheres", "expressions.atoms",
          "expressions.steps_stored")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.enabled = True
        self._stack: list[list] = []     # [span index, child time]
        self._active: Counter = Counter()

    def _wrap(self, name: str, fn, on_return):
        nid = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            frame = [idx, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            start = perf_counter()
            self.start.append(start)
            self.end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.end[idx] = end
                self._stack.pop()
                self._active[name] -= 1
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += end - start
            if on_return is not None:
                on_return(self, result, self._active[name] == 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in the loaded polyco modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "polyco" or n.startswith("polyco.")]
        for name, module, attr, on_return in TARGETS:
            home = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth),
                                              on_return))
                continue
            fn = getattr(home, attr)
            traced = self._wrap(name, fn, on_return)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)

    @contextmanager
    def paused(self):
        """Calls made inside are neither timed nor counted: the benchmark's
        own checks run here."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def metrics(self) -> dict[str, float]:
        out = {metric: self.self_s[span] for metric, span in TIMES.items()}
        out.update((metric, self.calls[span])
                   for metric, span in CALLS.items())
        out.update((name, self.counts[name]) for name in COUNTS)
        explore_s = self.self_s["engine.explore"]
        out["engine.words_per_s"] = (self.counts["engine.words"] / explore_s
                                     if explore_s else 0.0)
        finds = self.calls["decreasing.find"]
        out["decreasing.found_ratio"] = (self.counts["decreasing.found"]
                                         / finds if finds else 0.0)
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped CSV: name, parent index, start, end
        (seconds on the interpreter's perf_counter clock)."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]},{self.parent[i]},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")
