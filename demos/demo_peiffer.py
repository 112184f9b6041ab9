"""The two-letter system a <=> b: why Peiffer squares need reversed rules
and why the choice of quasi-normal forms has to respect contexts.

Both phenomena show up on the word aa.  The two disjoint applications of
alpha form a Peiffer branching whose canonical square carries labels that
are too big; replaying it with the reversed rule fixes that.  And a map
that picks bbb instead of aaa as the quasi-normal form of the length-3
class is perfectly valid on the branching itself, yet breaks as soon as
the square is whiskered by one letter.
"""

from polyco.core import all_words
from polyco.branchings import PEIFFER, local_branchings
from polyco.decreasing import (check_context_compatibility,
                               decide_peiffer, find_decreasing)
from polyco.engine import ExplorationBudget, explore
from polyco.fixtures import (two_letters, two_letters_alt_qnf_map,
                             two_letters_qnf_map)
from polyco.labelling import Labelling, label_path


def main():
    p = two_letters()
    g = explore(p, all_words(p, 6),
                budget=ExplorationBudget(max_word_len=8, max_states=100000,
                                         max_depth=200))
    lab = Labelling.qnf(two_letters_qnf_map(8))

    bs = [b for b in local_branchings(p, ("a", "a")) if b.kind == PEIFFER]
    rep = decide_peiffer(lab, g, p, bs[0])
    naive = [a for a in rep.attempts if a["variant"] == "peiffer"][0]
    print("Peiffer square on aa, canonical closure:")
    print(f"  side labels        {naive['labels']['sides']}")
    print(f"  completion labels  {naive['labels']['completions']}")
    print("  -> not decreasing: the completions are not below the sides")
    print(f"\nvariant {rep.variant!r} closes it instead:")
    print(f"  completion labels  "
          f"{list(label_path(lab, g, rep.diagram.f_prime))} / "
          f"{list(label_path(lab, g, rep.diagram.g_prime))}")
    print(f"  status: {rep.status}")

    alt = Labelling.qnf(two_letters_alt_qnf_map(8))
    d = find_decreasing(alt, g, bs[0], depth=6)
    print("\nalternate map (length-3 class -> bbb): the same branching "
          "still has a decreasing diagram,")
    ctx = check_context_compatibility(alt, g, [d], ctx_bound=1)
    print(f"but whiskering breaks it: {ctx.status}, first at context "
          f"{ctx.witness['context']}")


if __name__ == "__main__":
    main()
