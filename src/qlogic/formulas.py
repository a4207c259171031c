"""Propositional formulas over measurement atoms.

Grammar (loosest to tightest binding), read from the one table _BINARY
by the parser and by the formatter alike:

    imp  := or ('->' or)*              folded to the right
    or   := and ('|' and)*             folded to the left
    and  := not ('&' not)*             folded to the left
    not  := '~' not | primary
    primary := 'TOP' | 'BOT' | atom | '(' imp ')'
    atom := 'M' '(' name ',' '{' values '}' ')'

Values are comma-separated numbers or identifiers, interpreted by the
model that evaluates the formula.  A chain is read in one loop and read
back as one list (_chain), so only parentheses and '~' nest.  The nodes
keep the dataclass == and hash, which recurse per node: on Python 3.11,
== raises RecursionError from 334 chain operands or 333 '~' in a run,
and hash from 500 operands or 499 '~'.
"""

from __future__ import annotations

import functools
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

# the binary operators, loosest first; a node's rank is its operator's place
# here.  Not binds tighter than all of them, and TOP, BOT and atoms tightest.
_BINARY = (("->", Imp), ("|", Or), ("&", And))
_RANK = {kind: rank for rank, (_, kind) in enumerate(_BINARY)} | {Not: len(_BINARY)}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int


def _position(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - (text.rfind("\n", 0, pos) + 1) + 1


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text in one pass, each placed by its offset alone."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", *_position(text, m.start(kind)))
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
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
        raise ParseError(message + f", got {tok.text!r}", *_position(self.text, tok.start))

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
        """A formula whose operators bind at least as tightly as _BINARY[level],
        its operands read in one loop; past the table's end, ~ or a primary."""
        if level == len(_BINARY):
            if self._accept("~"):
                return Not(self.binary(level))
            return self.primary()
        op, kind = _BINARY[level]
        operands = [self.binary(level + 1)]
        while self._accept(op):
            operands.append(self.binary(level + 1))
        if kind is Imp:
            return functools.reduce(lambda right, left: Imp(left, right), reversed(operands))
        return functools.reduce(kind, operands)

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
    """Render an AST back to source; parses back to an identical AST.  Nested
    past the recursion limit other than by a chain or a ~ run: DomainError."""
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
    if rank == len(_BINARY):  # a run of '~', written as one prefix
        run = 0
        while isinstance(node, Not):
            node, run = node.arg, run + 1
        return "~" * run + _wrap(node, rank)
    return f" {_BINARY[rank][0]} ".join(_wrap(x, rank + 1) for x in _chain(node))


def _wrap(node, rank: int) -> str:
    """node formatted in a place that needs rank at least `rank`."""
    text = _format(node)
    return text if _RANK.get(type(node), len(_RANK)) >= rank else f"({text})"


def _chain(node) -> list:
    """The operands of node's chain in text order: down its left spine for
    '&' and '|', down its right for '->', as the parser folds them."""
    kind, operands = type(node), []
    while type(node) is kind:
        operands.append(node.left if kind is Imp else node.right)
        node = node.right if kind is Imp else node.left
    operands.append(node)
    return operands if kind is Imp else operands[::-1]


def eval_formula(model, node) -> Section:
    """Evaluate a formula to a section of the model's frame.

    The model must expose ``frame``, ``coerce(name, tokens)`` and
    ``elementary(name, values)``; both the classical and the quantum model
    qualify.  A chain's operands are evaluated left to right, then met, joined
    or, for '->', implied from the right.  A formula otherwise nested past
    the interpreter's recursion limit raises DomainError.
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
        if isinstance(node, (And, Or, Imp)):
            sections = [eval_formula(model, x) for x in _chain(node)]
            if isinstance(node, Imp):
                return functools.reduce(lambda right, left: frame.implies(left, right), reversed(sections))
            return (frame.meet if isinstance(node, And) else frame.join)(sections)
    except RecursionError:
        raise DomainError("formula nested too deeply to evaluate") from None
    raise TypeError(f"not a formula node: {node!r}")
