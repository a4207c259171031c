"""Propositional formulas over measurement atoms.

Grammar (loosest to tightest binding):

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
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<arrow>->)|(?P<punct>[~&|(){{}},])|(?P<word>{WORD})"
    r"|(?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?))"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line, col_base = 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:]
            if rest.strip() == "":
                break
            line = text.count("\n", 0, pos) + 1
            column = pos - (text.rfind("\n", 0, pos) + 1) + 1
            raise ParseError(f"unexpected character {rest.strip()[0]!r}", line, column)
        start = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
        line = text.count("\n", 0, start) + 1
        column = start - (text.rfind("\n", 0, start) + 1) + 1
        for kind in ("arrow", "punct", "word", "number"):
            if m.group(kind) is not None:
                tokens.append(_Token(kind, m.group(kind), line, column))
                break
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], length_hint: int):
        self.tokens = tokens
        self.i = 0
        self.length_hint = length_hint

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _error(self, message: str):
        tok = self._peek()
        if tok is None:
            raise ParseError(message + " (unexpected end of input)", 1, self.length_hint + 1)
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
        node = self.imp()
        if self._peek() is not None:
            self._error("trailing input")
        return node

    def imp(self):
        left = self.or_()
        if self._accept("->"):
            return Imp(left, self.imp())
        return left

    def or_(self):
        node = self.and_()
        while self._accept("|"):
            node = Or(node, self.and_())
        return node

    def and_(self):
        node = self.not_()
        while self._accept("&"):
            node = And(node, self.not_())
        return node

    def not_(self):
        if self._accept("~"):
            return Not(self.not_())
        return self.primary()

    def primary(self):
        tok = self._peek()
        if tok is None:
            self._error("expected a formula")
        if self._accept("("):
            node = self.imp()
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
    parser = _Parser(_tokenize(text), len(text))
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
    if isinstance(node, Not):
        return f"~{_wrap(node.arg, (Atom, Top, Bot, Not))}"
    if isinstance(node, And):
        return f"{_wrap(node.left, (Atom, Top, Bot, Not, And))} & {_wrap(node.right, (Atom, Top, Bot, Not))}"
    if isinstance(node, Or):
        return f"{_wrap(node.left, (Atom, Top, Bot, Not, And, Or))} | {_wrap(node.right, (Atom, Top, Bot, Not, And))}"
    if isinstance(node, Imp):
        return f"{_wrap(node.left, (Atom, Top, Bot, Not, And, Or))} -> {_wrap(node.right, (Atom, Top, Bot, Not, And, Or, Imp))}"
    raise TypeError(f"not a formula node: {node!r}")


def _wrap(node, allowed) -> str:
    text = _format(node)
    return text if isinstance(node, allowed) else f"({text})"


def eval_formula(model, node) -> Section:
    """Evaluate a formula to a section of the model's frame.

    The model must expose ``frame``, ``coerce(name, tokens)`` and
    ``elementary(name, values)``; both the classical and the quantum model
    qualify.  A formula nested past the interpreter's recursion limit
    raises DomainError.
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
        if isinstance(node, And):
            return frame.meet([eval_formula(model, node.left), eval_formula(model, node.right)])
        if isinstance(node, Or):
            return frame.join([eval_formula(model, node.left), eval_formula(model, node.right)])
        if isinstance(node, Imp):
            return frame.implies(eval_formula(model, node.left), eval_formula(model, node.right))
    except RecursionError:
        raise DomainError("formula nested too deeply to evaluate") from None
    raise TypeError(f"not a formula node: {node!r}")
