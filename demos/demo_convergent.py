"""A convergent presentation of the braid monoid on two strands.

With an extra generator a absorbing the relation sts = tst, the system
terminates and is confluent.  Labelling each step by its normal-form
target specializes the whole machinery to the classical construction: one
confluence cell per critical branching, no loops at all.
"""

from polyco.core import all_words
from polyco.branchings import critical_branchings
from polyco.completion import build_completion
from polyco.engine import ExplorationBudget, classify_termination, explore
from polyco.fixtures import convergent_braid
from polyco.homology import abelianize, homology
from polyco.labelling import Labelling


def main():
    p = convergent_braid()
    g = explore(p, all_words(p, 6),
                budget=ExplorationBudget(max_word_len=7, max_states=300000,
                                         max_depth=200))
    print(f"{p.name}: {classify_termination(g)}")
    print(f"critical branchings: {len(critical_branchings(p))}")

    c = build_completion(p, Labelling.nf(g), g)
    print(f"completion verdict: {c.verdict}")
    loops = [x for x in c.cell_list if x.kind == "loop"]
    print(f"{len(c.cells)} cells, {len(loops)} of them loop cells")
    for name, cell in c.cells.items():
        print(f"  {name}: ({cell.source}) => ({cell.target})")

    res = homology(abelianize(p, c.cell_list))
    print(f"\nabelianized chain complex: H0 = {res.h0}, H1 = {res.h1}, "
          f"H2 = {res.h2}")


if __name__ == "__main__":
    main()
