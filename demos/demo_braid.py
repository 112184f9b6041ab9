"""Walk through the positive braid monoid on two strands.

The presentation has the single relation sts = tst, oriented both ways, so
it cannot terminate; it is quasi-terminating instead.  We explore its
reduction graph, label steps by the distance to a chosen quasi-normal form,
certify a coherent completion, and use it to fill a sphere.
"""

from polyco.core import all_words
from polyco.engine import (ExplorationBudget, Path, classify_termination,
                           explore, parse_step)
from polyco.branchings import critical_branchings
from polyco.completion import build_completion, fill_parallel_sphere
from polyco.expressions import check_boundary
from polyco.fixtures import braid, braid_qnf_map
from polyco.labelling import Labelling, label_step


def main():
    p = braid()
    print(f"polygraph {p.name}: generators {' '.join(p.generators)}")
    for r in p.rules:
        print(f"  {r.name}: {' '.join(r.lhs)} => {' '.join(r.rhs)}")

    g = explore(p, all_words(p, 7),
                budget=ExplorationBudget(max_word_len=9, max_states=500000,
                                         max_depth=400))
    print(f"\nexplored {len(g.vertices)} words: {classify_termination(g)}")

    print("\ncritical branchings:")
    for b in critical_branchings(p):
        print(f"  at {' '.join(b.source)}: {b.first} || {b.second}")

    lab = Labelling.qnf(braid_qnf_map(max_len=9))
    print("\nsample labels (distance from the target to its chosen "
          "quasi-normal form):")
    for text in ("1|alpha|t", "t|alpha|1", "1|beta|s"):
        s = parse_step(p, text)
        print(f"  {text} -> {label_step(lab, g, s)}")

    c = build_completion(p, lab, g)
    print(f"\ncompletion verdict: {c.verdict}")
    for name, cell in c.cells.items():
        print(f"  {name} ({cell.kind}): ({cell.source}) => ({cell.target})")

    # fill a sphere: two parallel reductions of stst down to tstt
    a = parse_step(p, "1|alpha|t")
    b = parse_step(p, "s|beta|1")
    d = parse_step(p, "s|alpha|1")
    f = Path(a.source, (a,))
    h = Path(a.source, (b, d, a))
    e = fill_parallel_sphere(c, lab, g, f, h)
    src, tgt = check_boundary(e, c.cells)
    print(f"\nfilled the sphere ({f}) || ({h}) with {len(e)} cell "
          f"occurrences:")
    print(e)


if __name__ == "__main__":
    main()
