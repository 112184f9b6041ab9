import pytest

import polyco
from polyco.core import (ParseError, Polygraph, PresentationError, Rule,
                         all_words, parse_polygraph, parse_word,
                         serialize_polygraph, word_str)

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


def test_every_exported_name_resolves():
    assert len(set(polyco.__all__)) == len(polyco.__all__)
    missing = [n for n in polyco.__all__ if not hasattr(polyco, n)]
    assert missing == []
