"""Monoid presentations by generators and oriented string rewriting rules.

A presentation (here called a polygraph) has a single 0-cell, a finite set
of generators, and a finite set of named rules, each rewriting a nonempty
word to a word over the same alphabet.  Words are tuples of generator
names; the empty tuple is the empty word and is written ``1`` in files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Word = tuple[str, ...]

EMPTY: Word = ()


class PresentationError(ValueError):
    """A structurally invalid presentation."""


class ParseError(PresentationError):
    """A syntax error in a presentation or companion file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def word_str(w: Word) -> str:
    """Render a word as space separated generator tokens, or ``1`` if empty."""
    return " ".join(w) if w else "1"


def parse_word(tokens: list[str] | str, line: int | None = None) -> Word:
    """Parse whitespace separated generator tokens; the token ``1`` alone
    denotes the empty word."""
    if isinstance(tokens, str):
        tokens = tokens.split()
    if tokens == ["1"]:
        return EMPTY
    if not tokens:
        raise ParseError("expected a word", line)
    for t in tokens:
        if t in ("1", "=>", ":", "|", ";", "->"):
            raise ParseError(f"unexpected token {t!r} inside a word", line)
    return tuple(tokens)


@dataclass(frozen=True)
class Rule:
    """An oriented rewriting rule lhs => rhs.  The lhs must be nonempty."""

    name: str
    lhs: Word
    rhs: Word

    def __post_init__(self):
        if not self.lhs:
            raise PresentationError(f"rule {self.name}: empty left-hand side")

    def __str__(self):
        return f"{self.name} : {word_str(self.lhs)} => {word_str(self.rhs)}"


@dataclass(frozen=True)
class Polygraph:
    """A named presentation: generators plus oriented rules."""

    name: str
    generators: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not g or g == "1" or any(c.isspace() for c in g):
                raise PresentationError(f"bad generator token {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator {g!r}")
            seen.add(g)
        names = set()
        for r in self.rules:
            if r.name in names:
                raise PresentationError(f"duplicate rule name {r.name!r}")
            names.add(r.name)
            for letter in r.lhs + r.rhs:
                if letter not in seen:
                    raise PresentationError(
                        f"rule {r.name}: unknown generator {letter!r}")

    @cached_property
    def rules_by_first(self) -> dict[str, tuple[Rule, ...]]:
        """The rules by the first letter of their left-hand side, each group
        in declaration order; built once per presentation."""
        groups: dict[str, list[Rule]] = {}
        for r in self.rules:
            groups.setdefault(r.lhs[0], []).append(r)
        return {x: tuple(rs) for x, rs in groups.items()}

    @cached_property
    def rules_by_last(self) -> dict[str, tuple[Rule, ...]]:
        """The rules by the last letter of their left-hand side, each group
        longest left-hand side first, then in declaration order: the order
        of the redexes they make at the end of a word; built once per
        presentation."""
        groups: dict[str, list[Rule]] = {}
        for r in sorted(self.rules, key=lambda r: -len(r.lhs)):
            groups.setdefault(r.lhs[-1], []).append(r)
        return {x: tuple(rs) for x, rs in groups.items()}

    @cached_property
    def _indices(self) -> dict[str, int]:
        return {r.name: i for i, r in enumerate(self.rules)}

    @cached_property
    def reverse_rules(self) -> dict[str, Rule | None]:
        """Each rule's name mapped to the first declared rule undoing it
        (its left- and right-hand sides swapped), or None; built once per
        presentation."""
        first: dict[tuple[Word, Word], Rule] = {}
        for r in self.rules:
            first.setdefault((r.lhs, r.rhs), r)
        return {r.name: first.get((r.rhs, r.lhs)) for r in self.rules}

    def rule(self, name: str) -> Rule:
        return self.rules[self._indices[name]]

    def rule_index(self, name: str) -> int:
        """The declaration index of the rule of that name."""
        return self._indices[name]


def file_lines(text: str):
    """The (line number, line) of each line of a line-based file that is
    not blank once its ``#`` comment and outer whitespace are removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_polygraph(text: str) -> Polygraph:
    """Parse the presentation file format.

    The grammar is line based::

        polygraph NAME
        gens GEN GEN ...
        rule NAME : WORD => WORD

    ``#`` starts a comment, blank lines are ignored, words are whitespace
    separated generator tokens and ``1`` is the empty word.  The colon may
    be glued to the rule name.
    """
    name = None
    gens: list[str] = []
    rules: list[Rule] = []
    for lineno, line in file_lines(text):
        tokens = line.split()
        head = tokens[0]
        if head == "polygraph":
            if name is not None:
                raise ParseError("duplicate polygraph declaration", lineno)
            if len(tokens) != 2:
                raise ParseError("expected: polygraph NAME", lineno)
            name = tokens[1]
        elif head == "gens":
            if len(tokens) < 2:
                raise ParseError("expected at least one generator", lineno)
            gens.extend(tokens[1:])
        elif head == "rule":
            rest = tokens[1:]
            if not rest:
                raise ParseError("expected: rule NAME : WORD => WORD", lineno)
            rname = rest[0]
            rest = rest[1:]
            if rname.endswith(":") and len(rname) > 1:
                rname = rname[:-1]
            elif rest and rest[0] == ":":
                rest = rest[1:]
            else:
                raise ParseError("missing ':' after rule name", lineno)
            if "=>" not in rest:
                raise ParseError("missing '=>' in rule", lineno)
            arrow = rest.index("=>")
            lhs = parse_word(rest[:arrow], lineno)
            rhs_tokens = rest[arrow + 1:]
            rhs = parse_word(rhs_tokens, lineno)
            try:
                rules.append(Rule(rname, lhs, rhs))
            except PresentationError as e:
                raise ParseError(str(e), lineno) from e
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if name is None:
        raise ParseError("missing polygraph declaration")
    if not gens:
        raise ParseError("missing gens declaration")
    try:
        return Polygraph(name, tuple(gens), tuple(rules))
    except PresentationError as e:
        raise ParseError(str(e)) from e


def serialize_polygraph(p: Polygraph) -> str:
    lines = [f"polygraph {p.name}", "gens " + " ".join(p.generators)]
    for r in p.rules:
        lines.append(f"rule {r.name} : {word_str(r.lhs)} => {word_str(r.rhs)}")
    return "\n".join(lines) + "\n"


def all_words(p: Polygraph, max_len: int) -> list[Word]:
    """All words over the alphabet up to the given length, shortest first,
    in generator declaration order."""
    out: list[Word] = [EMPTY]
    layer: list[Word] = [EMPTY]
    for _ in range(max_len):
        layer = [w + (g,) for w in layer for g in p.generators]
        out.extend(layer)
    return out
