"""Propositional formulas over measurement atoms.

Grammar (loosest to tightest binding), read from the one table _BINARY
by the parser and by the formatter alike:

    imp  := or ('->' imp)?             right-associative
    or   := and ('|' and)*
    and  := not ('&' not)*
    not  := '~' not | primary
    primary := 'TOP' | 'BOT' | atom | '(' imp ')'
    atom := 'M' '(' name ',' '{' values '}' ')'

Values are comma-separated numbers or identifiers; their interpretation
is left to the model that evaluates the formula.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError, QLogicError
from .sections import Section


class ParseError(QLogicError, ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Atom:
    name: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Imp:
    left: object
    right: object


# an identifier: a name a formula can spell
WORD = r"[A-Za-z_][A-Za-z_0-9]*"
# one token after optional whitespace; any other character is a bad one
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<arrow>->)|(?P<punct>[~&|(){{}},])|(?P<word>{WORD})"
    r"|(?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<bad>\S))"
)

# the binary operators, loosest first: '->' nests to the right, '|' and
# '&' to the left.  A node's rank is its operator's place here; Not binds
# tighter than all of them, and TOP, BOT and atoms tightest.
_BINARY = (("->", Imp), ("|", Or), ("&", And))
_RANK = {kind: rank for rank, (_, kind) in enumerate(_BINARY)} | {Not: len(_BINARY)}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _position(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - (text.rfind("\n", 0, pos) + 1) + 1


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text in one pass.  Each match starts where the last one
    ended, and only the whitespace before a token can hold a newline, so the
    line and the offset where it begins are carried from token to token."""
    tokens = []
    line, begins = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if breaks := text.count("\n", m.start(), start):
            line += breaks
            begins = text.rfind("\n", m.start(), start) + 1
        where = line, start - begins + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", *where)
        tokens.append(_Token(kind, m.group(kind), *where))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.i = 0
        self.text = text

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _error(self, message: str):
        tok = self._peek()
        if tok is None:
            raise ParseError(message + " (unexpected end of input)", *_position(self.text, len(self.text)))
        raise ParseError(message + f", got {tok.text!r}", tok.line, tok.column)

    def _accept(self, text: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.text == text:
            self.i += 1
            return True
        return False

    def _expect(self, text: str):
        if not self._accept(text):
            self._error(f"expected {text!r}")

    def parse(self):
        node = self.binary()
        if self._peek() is not None:
            self._error("trailing input")
        return node

    def binary(self, level: int = 0):
        """A formula whose operators bind at least as tightly as _BINARY[level];
        past the table's end, a negation or a primary."""
        if level == len(_BINARY):
            if self._accept("~"):
                return Not(self.binary(level))
            return self.primary()
        op, kind = _BINARY[level]
        node = self.binary(level + 1)
        if kind is Imp:
            return Imp(node, self.binary(level)) if self._accept(op) else node
        while self._accept(op):
            node = kind(node, self.binary(level + 1))
        return node

    def primary(self):
        tok = self._peek()
        if tok is None:
            self._error("expected a formula")
        if self._accept("("):
            node = self.binary()
            self._expect(")")
            return node
        if tok.text == "TOP":
            self.i += 1
            return Top()
        if tok.text == "BOT":
            self.i += 1
            return Bot()
        if tok.text == "M":
            return self.atom()
        self._error("expected 'M(...)', 'TOP', 'BOT', '~' or '('")

    def atom(self):
        self._expect("M")
        self._expect("(")
        tok = self._peek()
        if tok is None or tok.kind != "word":
            self._error("expected an observable name")
        name = tok.text
        self.i += 1
        self._expect(",")
        self._expect("{")
        values = []
        if not self._accept("}"):
            while True:
                tok = self._peek()
                if tok is None or tok.kind not in ("word", "number"):
                    self._error("expected an outcome value")
                values.append(tok.text)
                self.i += 1
                if self._accept("}"):
                    break
                self._expect(",")
        self._expect(")")
        return Atom(name, tuple(values))


def parse_formula(text: str):
    parser = _Parser(_tokenize(text), text)
    try:
        return parser.parse()
    except RecursionError:  # nested past the interpreter's recursion limit
        parser._error("formula nested too deeply")


def format_formula(node) -> str:
    """Render an AST back to source; parses back to an identical AST.  A
    formula nested past the interpreter's recursion limit raises
    DomainError."""
    try:
        return _format(node)
    except RecursionError:
        raise DomainError("formula nested too deeply to format") from None


def _format(node) -> str:
    if isinstance(node, Top):
        return "TOP"
    if isinstance(node, Bot):
        return "BOT"
    if isinstance(node, Atom):
        return f"M({node.name},{{{','.join(node.values)}}})"
    rank = _RANK.get(type(node))
    if rank is None:
        raise TypeError(f"not a formula node: {node!r}")
    if rank == len(_BINARY):
        return f"~{_wrap(node.arg, rank)}"
    op, kind = _BINARY[rank]
    left, right = (rank + 1, rank) if kind is Imp else (rank, rank + 1)
    return f"{_wrap(node.left, left)} {op} {_wrap(node.right, right)}"


def _wrap(node, rank: int) -> str:
    """node formatted in a place that needs rank at least `rank`."""
    text = _format(node)
    return text if _RANK.get(type(node), len(_RANK)) >= rank else f"({text})"


def eval_formula(model, node) -> Section:
    """Evaluate a formula to a section of the model's frame.

    The model must expose ``frame``, ``coerce(name, tokens)`` and
    ``elementary(name, values)``; both the classical and the quantum model
    qualify.  A chain of '&' or '|', which the parser nests down the left,
    is one meet or join of its operands, evaluated left to right; a formula
    otherwise nested past the interpreter's recursion limit raises
    DomainError.
    """
    frame = model.frame
    try:
        if isinstance(node, Top):
            return frame.top()
        if isinstance(node, Bot):
            return frame.bottom()
        if isinstance(node, Atom):
            return frame.embed_elementary(
                model.elementary(node.name, model.coerce(node.name, node.values))
            )
        if isinstance(node, Not):
            return frame.neg(eval_formula(model, node.arg))
        if isinstance(node, (And, Or)):
            kind, operands = type(node), []
            while isinstance(node, kind):
                operands.append(node.right)
                node = node.left
            operands.append(node)
            sections = [eval_formula(model, x) for x in reversed(operands)]
            return (frame.meet if kind is And else frame.join)(sections)
        if isinstance(node, Imp):
            return frame.implies(eval_formula(model, node.left), eval_formula(model, node.right))
    except RecursionError:
        raise DomainError("formula nested too deeply to evaluate") from None
    raise TypeError(f"not a formula node: {node!r}")
