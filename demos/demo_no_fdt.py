"""A system whose reduction graph carries exactly one elementary loop.

The rules ab => a, ac => da, da => d'a, d'a => ac produce the 3-cycle
ac => da => d'a => ac.  Every other loop in the graph is a whiskered or
repeated copy of it, so the loop extension needs a single cell.  The
enumeration finds it from the fundamental loops of each strongly
connected component (one per step off a breadth-first spanning tree),
and skips the components that are whiskered copies of shorter ones.  The
certificate stays PARTIAL here: some Peiffer squares resist every
decreasing closure within the length bound, which is honest output, not a
failure of the search.
"""

from polyco.core import all_words
from polyco.branchings import critical_branchings
from polyco.completion import build_completion
from polyco.engine import ExplorationBudget, explore
from polyco.fixtures import no_fdt
from polyco.labelling import Labelling, derived_qnf_map
from polyco.loops import enumerate_elementary_loops


def main():
    p = no_fdt()
    g = explore(p, all_words(p, 4),
                budget=ExplorationBudget(max_word_len=5, max_states=100000,
                                         max_depth=100))
    print(f"{p.name}: {len(critical_branchings(p))} critical branchings")

    enum = enumerate_elementary_loops(g)
    print(f"elementary loop classes: {len(enum.classes)}")
    for cls in enum.classes:
        print(f"  representative: {cls.representative}")

    lab = Labelling.qnf(derived_qnf_map(g))
    c = build_completion(p, lab, g)
    print(f"\ncompletion verdict: {c.verdict}")
    for name, audit in c.audits.items():
        print(f"audit {name}: {audit.status}, {audit.checked} checked, "
              f"{dict(audit.counts)}")
    peiffer = c.audits["peiffer"]
    # a violation: a square whose labels all read, yet no variant closes
    # it decreasingly; unverified: one whose labels leave the explored words
    if not peiffer.ok:
        w = peiffer.witness
        print(f"  e.g. at {w['source']}: {w['first']} || {w['second']} "
              f"({peiffer.status})")


if __name__ == "__main__":
    main()
