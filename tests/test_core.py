import pytest
from hypothesis import given, settings, strategies as st

from polyco.core import (ParseError, Polygraph, PresentationError, Rule,
                         all_words, parse_polygraph, parse_word,
                         serialize_polygraph, word_str)
from polyco.engine import parse_step
from polyco.fixtures import braid
from polyco.labelling import (format_qnf_map, parse_label_table,
                              parse_qnf_map)

SRC = """\
# positive braid monoid
polygraph braid
gens s t
rule alpha : s t s => t s t
rule beta : t s t => s t s
"""


def test_parse_roundtrip():
    p = parse_polygraph(SRC)
    assert p.name == "braid"
    assert p.generators == ("s", "t")
    assert [r.name for r in p.rules] == ["alpha", "beta"]
    again = parse_polygraph(serialize_polygraph(p))
    assert again == p


def test_empty_word_spelled_one():
    assert parse_word("1") == ()
    assert word_str(()) == "1"
    p = parse_polygraph("polygraph e\ngens a\nrule r : a a => 1\n")
    assert p.rules[0].rhs == ()


def test_unknown_generator_rejected():
    with pytest.raises(PresentationError) as ei:
        parse_polygraph("polygraph x\ngens a\nrule r : a b => a\n")
    assert "b" in str(ei.value)


def test_rule_needs_nonempty_lhs():
    with pytest.raises(ValueError):
        Rule("r", (), ("a",))


def test_parse_error_carries_line_number():
    bad = "polygraph x\ngens a\nrule broken\n"
    with pytest.raises(ParseError) as ei:
        parse_polygraph(bad)
    assert ei.value.line == 3


def test_duplicate_rule_name_rejected():
    with pytest.raises(ValueError):
        Polygraph("x", ("a",),
                  (Rule("r", ("a",), ("a", "a")),
                   Rule("r", ("a", "a"), ("a",))))


def test_all_words_shortest_first():
    p = parse_polygraph("polygraph x\ngens a b\nrule r : a => b\n")
    ws = list(all_words(p, 2))
    assert ws == [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
                  ("b", "a"), ("b", "b")]


# ---------------------------------------------------------------------------
# parsers fail only with ParseError, on text built from the grammar's tokens

_NAMES = ["s", "t", "alpha", "beta", "x", "r", "r:", "s-", "1x"]
_TOKENS = ["polygraph", "gens", "rule", ":", "=>", "1", "|", "-", "#",
           *_NAMES]
_soup = st.lists(st.sampled_from([*_TOKENS, "\n"]), max_size=10)
_words = st.one_of(
    st.lists(st.sampled_from(["s", "t"]), min_size=1, max_size=4),
    st.just(["1"]),
    st.lists(st.sampled_from(["s", "t", "1", "x", "=>", "|"]), max_size=4),
).map(" ".join)
_rule_names = st.one_of(st.sampled_from(["alpha", "beta"]),
                        st.sampled_from(_NAMES))
_rule_lines = st.builds("rule {} : {} => {}".format, _rule_names, _words,
                        _words)
_lines = st.one_of(_soup.map(" ".join), _rule_lines,
                   st.sampled_from(["polygraph braid", "gens s t", "gens s s",
                                    "# gens", ""]))
_polygraphs = st.builds(
    "{}{}".format, st.sampled_from(["", "polygraph braid\ngens s t\n"]),
    st.lists(st.one_of(_rule_lines, _lines), max_size=6).map("\n".join))
_steps = st.one_of(
    st.builds("".join, _soup), st.builds(" ".join, _soup),
    st.builds("{}|{}|{}{}".format, _words, _rule_names, _words,
              st.sampled_from(["", "-", " -", "--"])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_polygraphs)
def test_parse_polygraph_fails_only_with_parse_error(text):
    try:
        p = parse_polygraph(text)
    except ParseError:
        return
    assert parse_polygraph(serialize_polygraph(p)) == p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_steps)
def test_parse_step_fails_only_with_parse_error(text):
    p = braid()
    try:
        s = parse_step(p, text)
    except ParseError:
        return
    assert parse_step(p, str(s)) == s


_map_lines = st.one_of(
    st.builds("{} -> {}".format, _words, _words),
    st.builds(" ".join, st.lists(st.sampled_from([*_TOKENS, "->"]),
                                 max_size=6)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.lists(_map_lines, max_size=4).map("\n".join))
def test_parse_qnf_map_fails_only_with_parse_error(text):
    p = braid()
    try:
        m = parse_qnf_map(p, text)
    except ParseError:
        return
    assert all(x in p.generators for u, v in m.items() for x in u + v)
    if m:
        assert parse_qnf_map(p, format_qnf_map(m)) == m


_labels = st.sampled_from(["", "a", "b", "c", "a b", "<", "="])
_table_lines = st.one_of(
    st.builds("order: {} < {}".format, _labels, _labels),
    st.builds("order:{}".format, _labels),
    st.builds("step: {} = {}".format, _steps, _labels),
    st.builds("step: {}".format, _steps),
    st.builds(" ".join, _soup))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.lists(_table_lines, max_size=5).map("\n".join))
def test_parse_label_table_fails_only_with_parse_error(text):
    try:
        table, order = parse_label_table(braid(), text)
    except ParseError:
        return
    assert not any(order.less(a, a) for a in order.elements)
    assert set(table.values()) <= set(order.elements)
