import sys

import pytest

from polyco.core import all_words
from polyco.engine import ExplorationBudget, explore
from polyco.fixtures import (abstract_states, braid, braid_qnf_map,
                             convergent_braid, no_fdt, two_letters,
                             two_letters_alt_qnf_map, two_letters_qnf_map)
from polyco.labelling import Labelling

# The Artin presentations of the positive braid monoids of types A3 and B3,
# with both orientations of each relation, which the tests read as files
A3 = """\
polygraph A3
gens a b c
rule r1 : a b a => b a b
rule r2 : b a b => a b a
rule r3 : b c b => c b c
rule r4 : c b c => b c b
rule r5 : a c => c a
rule r6 : c a => a c
"""

B3 = """\
polygraph B3
gens a b c
rule r1 : a b a b => b a b a
rule r2 : b a b a => a b a b
rule r3 : b c b => c b c
rule r4 : c b c => b c b
rule r5 : a c => c a
rule r6 : c a => a c
"""


def peiffer_witness(report) -> dict:
    """The witness the Peiffer audit gives for an UNDECIDED branching: its
    source and steps, and the first variant whose labels failed with the
    error, or, when every label read, the first variant with its labels."""
    b = report.branching
    first = next((a for a in report.attempts if "error" in a),
                 report.attempts[0])
    read = {"error": first["error"]} if "error" in first else first["labels"]
    return {"source": " ".join(b.source), "first": str(b.first),
            "second": str(b.second), "variant": first["variant"], **read}


def read_a_label_error(report) -> bool:
    """Whether an UNDECIDED Peiffer branching failed to read a label: the
    audit reads it unverified, and a violation otherwise."""
    return any("error" in a for a in report.attempts)


@pytest.fixture(scope="session")
def braid_p():
    return braid()


@pytest.fixture(scope="session")
def braid_loop(braid_p):
    """The loop (alpha;beta)^n at s t s, as a forward path, for a given n."""
    from polyco.engine import Path, RewriteStep
    turn = (RewriteStep((), braid_p.rule("alpha"), ()),
            RewriteStep((), braid_p.rule("beta"), ()))
    return lambda n: Path(("s", "t", "s"), turn * n)


@pytest.fixture(scope="session")
def braid_g(braid_p):
    budget = ExplorationBudget(max_word_len=9, max_states=500000,
                               max_depth=400)
    return explore(braid_p, all_words(braid_p, 7), budget=budget)


@pytest.fixture(scope="session")
def braid_lab():
    return Labelling.qnf(braid_qnf_map(max_len=9))


@pytest.fixture(scope="session")
def braid_completion(braid_p, braid_lab, braid_g):
    from polyco.completion import build_completion
    return build_completion(braid_p, braid_lab, braid_g)


@pytest.fixture(scope="session")
def ab_p():
    return two_letters()


@pytest.fixture(scope="session")
def ab_g(ab_p):
    budget = ExplorationBudget(max_word_len=8, max_states=100000,
                               max_depth=200)
    return explore(ab_p, all_words(ab_p, 6), budget=budget)


@pytest.fixture(scope="session")
def ab_lab():
    return Labelling.qnf(two_letters_qnf_map(max_len=8))


@pytest.fixture(scope="session")
def ab_alt_lab():
    return Labelling.qnf(two_letters_alt_qnf_map(max_len=8))


@pytest.fixture(scope="session")
def upsilon_p():
    return convergent_braid()


@pytest.fixture(scope="session")
def upsilon_g(upsilon_p):
    budget = ExplorationBudget(max_word_len=7, max_states=300000,
                               max_depth=200)
    return explore(upsilon_p, all_words(upsilon_p, 6), budget=budget)


@pytest.fixture(scope="session")
def lafont_p():
    return no_fdt()


@pytest.fixture(scope="session")
def lafont_g(lafont_p):
    budget = ExplorationBudget(max_word_len=5, max_states=100000,
                               max_depth=100)
    return explore(lafont_p, all_words(lafont_p, 4), budget=budget)


@pytest.fixture(scope="session")
def states_g():
    p = abstract_states()
    budget = ExplorationBudget(max_word_len=2, max_states=1000,
                               max_depth=50)
    return explore(p, all_words(p, 1), budget=budget)


@pytest.fixture
def default_recursion_limit():
    """Run the test under Python's default recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
