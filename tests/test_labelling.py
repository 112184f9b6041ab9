import random
from collections import Counter

import pytest

from polyco.core import Polygraph, Rule
from polyco.engine import ExplorationBudget, Path, explore, parse_step
from polyco.fixtures import braid_qnf_map
from polyco.labelling import (Labelling, MissingLabel, NaturalsOrder,
                              NotQuasiNormalForm, filter_word, format_qnf_map,
                              label_step, measure_branching, measure_word,
                              multiset_less, parse_label_table, parse_qnf_map,
                              validate_qnf_map)

# distance from the forward target to its chosen quasi-normal form,
# for the steps of the two braid confluence diagrams
BRAID_LABELS = {
    "1|alpha|t": 1, "s|beta|1": 1, "1|beta|t": 0, "s|alpha|1": 0,
    "1|beta|s": 0, "t|alpha|1": 2, "t|beta|1": 1,
    "1|alpha|t s": 1, "s t|alpha|1": 1, "1|beta|t s": 0,
    "s t|beta|1": 0, "1|beta|s t": 0, "t s|beta|1": 2, "t s|alpha|1": 1,
}


def test_braid_qnf_labels(braid_p, braid_g, braid_lab):
    for text, expected in BRAID_LABELS.items():
        s = parse_step(braid_p, text)
        assert label_step(braid_lab, braid_g, s) == expected, text


def test_inverse_step_carries_forward_label(braid_p, braid_g, braid_lab):
    s = parse_step(braid_p, "t|alpha|1")
    assert label_step(braid_lab, braid_g, s.inverse()) == 2


def test_two_letter_labels(ab_p, ab_g, ab_lab):
    assert label_step(ab_lab, ab_g, parse_step(ab_p, "1|alpha|a")) == 1
    assert label_step(ab_lab, ab_g, parse_step(ab_p, "1|beta|a")) == 0
    assert label_step(ab_lab, ab_g, parse_step(ab_p, "b|alpha|1")) == 2


def test_missing_label_raises(braid_g):
    lab = Labelling.qnf({})
    from polyco.fixtures import braid
    s = parse_step(braid(), "1|alpha|1")
    with pytest.raises(MissingLabel):
        label_step(lab, braid_g, s)


def test_qnf_map_must_target_sink_components(braid_p, braid_g):
    # sending sts to a normal-form candidate outside any sink class
    lab = Labelling.qnf({("t", "s", "t"): ("s", "s", "s")})
    s = parse_step(braid_p, "1|alpha|1")
    with pytest.raises(NotQuasiNormalForm):
        label_step(lab, braid_g, s)


def test_validate_qnf_map(ab_g, ab_lab, ab_alt_lab):
    # both the standard and the alternate map are legitimate choices
    validate_qnf_map(ab_lab, ab_g)
    validate_qnf_map(ab_alt_lab, ab_g)


def test_measure_discards_dominated_tail():
    order = NaturalsOrder()
    assert measure_word((2, 1, 1, 0), order) == Counter((2,))
    assert measure_word((1, 2, 1, 2), order) == Counter((1, 2, 2))
    assert measure_word((), order) == Counter()


def test_measure_law_on_random_words():
    order = NaturalsOrder()
    rnd = random.Random(0)
    for _ in range(2000):
        w1 = tuple(rnd.randrange(6) for _ in range(rnd.randrange(7)))
        w2 = tuple(rnd.randrange(6) for _ in range(rnd.randrange(7)))
        joint = measure_word(w1 + w2, order)
        split = measure_word(w1, order) + measure_word(
            filter_word(w2, w1, order), order)
        assert joint == split


def test_measure_branching_adds_the_two_sides(braid_p, braid_g):
    """Both sides carrying one label count it twice: the measure of a
    branching is the sum of its sides' measures, not their max-union."""
    lab = Labelling.singleton()
    f = parse_step(braid_p, "1|alpha|t s")
    h = parse_step(braid_p, "s t|alpha|1")
    sides = Path(f.source, (f,)), Path(h.source, (h,))
    assert measure_branching(lab, braid_g, *sides) == Counter({0: 2})


def test_multiset_less():
    order = NaturalsOrder()
    a = Counter((1,))
    b = Counter((2,))
    assert multiset_less(a, b, order)
    assert not multiset_less(b, a, order)
    assert not multiset_less(a, a, order)
    assert multiset_less(Counter((1, 1, 0)), Counter((2,)), order)
    assert multiset_less(Counter(()), Counter((0,)), order)
    assert not multiset_less(Counter((2, 1)), Counter((2,)), order)


def test_multiset_less_transitive_on_samples():
    order = NaturalsOrder()
    rnd = random.Random(1)
    trios = [tuple(Counter(tuple(rnd.randrange(4)
                                 for _ in range(rnd.randrange(4))))
                   for _ in range(3))
             for _ in range(500)]
    for a, b, c in trios:
        if multiset_less(a, b, order) and multiset_less(b, c, order):
            assert multiset_less(a, c, order)


def test_qnf_map_file_roundtrip(braid_p):
    m = {("s", "t", "s"): ("s", "t", "s"), ("s", "s"): ("s", "s")}
    text = format_qnf_map(m)
    assert parse_qnf_map(braid_p, text) == m
    assert parse_qnf_map(braid_p, "# comment\n\n" + text) == m


def test_label_table_parsing(braid_p, braid_g):
    text = """
order: low < high
step: 1 | alpha | 1 = low
step: 1 | beta | 1 = high
"""
    table, order = parse_label_table(braid_p, text)
    lab = Labelling.from_table(table, order)
    a = parse_step(braid_p, "1|alpha|1")
    b = parse_step(braid_p, "1|beta|1")
    assert label_step(lab, braid_g, a) == "low"
    assert order.less(label_step(lab, braid_g, a),
                      label_step(lab, braid_g, b))
    with pytest.raises(MissingLabel):
        label_step(lab, braid_g, parse_step(braid_p, "s|alpha|1"))


def test_missing_label_raises_again_after_other_labels(braid_p, braid_g):
    qnf = braid_qnf_map(max_len=9)
    missing = ("t", "s", "t")
    del qnf[missing]
    lab = Labelling.qnf(qnf)
    known = parse_step(braid_p, "t|alpha|1")
    assert label_step(lab, braid_g, known) == 2
    assert label_step(lab, braid_g, known) == 2
    for _ in range(2):
        with pytest.raises(MissingLabel):
            label_step(lab, braid_g, parse_step(braid_p, "1|alpha|1"))


def test_wrong_choice_raises_on_every_call(braid_p, braid_g):
    lab = Labelling.qnf({("t", "s", "t"): ("s", "s", "s")})
    for _ in range(2):
        with pytest.raises(NotQuasiNormalForm):
            label_step(lab, braid_g, parse_step(braid_p, "1|alpha|1"))


def test_one_labelling_reads_each_graph_its_own_distances():
    # x reaches z in three steps through words of length 1, and in two
    # through y y, which only the larger budget explores
    p = Polygraph("detour", ("u", "x", "y", "w", "v", "z"), (
        Rule("s", ("u",), ("x",)), Rule("dup", ("x",), ("y", "y")),
        Rule("join", ("y", "y"), ("z",)), Rule("a", ("x",), ("w",)),
        Rule("b", ("w",), ("v",)), Rule("c", ("v",), ("z",))))
    short, long = (explore(p, [("u",)], ExplorationBudget(n, 100, 20))
                   for n in (1, 2))
    lab = Labelling.qnf({w: ("z",) for w in long.vertices})
    step = parse_step(p, "1|s|1")
    for g, d in [(short, 3), (long, 2), (short, 3), (long, 2)]:
        assert g.distance(("x",), ("z",)) == d
        assert label_step(lab, g, step) == d
