import functools
import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import DomainError
from qlogic.formulas import (
    And,
    Atom,
    Bot,
    Imp,
    Not,
    Or,
    ParseError,
    Top,
    eval_formula,
    format_formula,
    parse_formula,
)
from qlogic.formulas import _TOKEN_RE, _Token, _position, _tokenize

from conftest import GOLDEN


def test_parse_atom_and_not():
    ast = parse_formula("M(Sz,{1}) & ~M(Sx,{1})")
    assert ast == And(Atom("Sz", ("1",)), Not(Atom("Sx", ("1",))))


def test_parse_empty_delta():
    assert parse_formula("M(A,{})") == Atom("A", ())


def test_imp_right_associative():
    ast = parse_formula("TOP -> BOT -> TOP")
    assert ast == Imp(Top(), Imp(Bot(), Top()))


def test_precedence():
    ast = parse_formula("~M(A,{0}) & M(B,{1}) | M(C,{2}) -> BOT")
    assert ast == Imp(
        Or(And(Not(Atom("A", ("0",))), Atom("B", ("1",))), Atom("C", ("2",))),
        Bot(),
    )


def test_parens():
    ast = parse_formula("M(A,{0}) & (M(B,{1}) | M(C,{2}))")
    assert ast == And(
        Atom("A", ("0",)), Or(Atom("B", ("1",)), Atom("C", ("2",)))
    )


def test_and_left_associative():
    ast = parse_formula("M(A,{0}) & M(B,{1}) & M(C,{2})")
    assert ast == And(
        And(Atom("A", ("0",)), Atom("B", ("1",))), Atom("C", ("2",))
    )


def test_numeric_values():
    ast = parse_formula("M(Sz,{1,-1}) | M(Sx,{0.5})")
    assert ast == Or(Atom("Sz", ("1", "-1")), Atom("Sx", ("0.5",)))


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("M(Sz,{1}) &")
    assert "line 1" in str(exc.value)
    with pytest.raises(ParseError):
        parse_formula("M(Sz {1})")
    with pytest.raises(ParseError):
        parse_formula("@")
    with pytest.raises(ParseError):
        parse_formula("M(Sz,{1}) M(Sx,{1})")


@pytest.mark.parametrize(
    "text, expected, line, column",
    [
        ("M(Sz,{1}) &", "a formula", 1, 12),
        ("TOP &\n", "a formula", 2, 1),
        ("(TOP\n&\nBOT", "')'", 3, 4),
        ("TOP ->\n  ~ \n", "a formula", 3, 1),
        ("M(Sz,\n{1,", "an outcome value", 2, 4),
    ],
)
def test_parse_error_at_the_end_of_the_input(text, expected, line, column):
    """The end of the input is placed on its last line, as a token is."""
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert str(info.value) == (
        f"expected {expected} (unexpected end of input) at line {line}, column {column}"
    )
    assert (info.value.line, info.value.column) == (line, column)


def oracle_tokens(text: str) -> list[_Token] | tuple[int, int]:
    """The tokens of text, each starting at the first character after the
    last token that is not whitespace, or the line and column (_position)
    of the first unexpected character."""
    tokens, end = [], 0
    for m in _TOKEN_RE.finditer(text):
        start = len(text) - len(text[end:].lstrip())
        assert text.startswith(m.group(m.lastgroup), start)
        if m.lastgroup == "bad":
            return _position(text, start)
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), start))
        end = start + len(m.group(m.lastgroup))
    return tokens


# token pieces, line breaks and whitespace that is no line break, and stray characters
TEXT_PIECES = ["M", "(", "Sz", ",", "{", "1", "-2.5e3", "}", ")", "&", "|", "->", "~", "TOP"]
TEXT_PIECES += [" ", "\n", "\n\n", "\t", "\r\n", "\x1c", "\u2028", "@", "-", "\u00a0"]


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(TEXT_PIECES), max_size=40))
def test_tokens_are_placed_by_their_own_start(pieces):
    """On generated multi-line texts, each token starts where the oracle
    finds it, and an unexpected character is placed at _position of its
    own start."""
    text = "".join(pieces)
    want = oracle_tokens(text)
    if isinstance(want, tuple):
        with pytest.raises(ParseError) as info:
            _tokenize(text)
        assert (info.value.line, info.value.column) == want
    else:
        assert _tokenize(text) == want


@pytest.mark.parametrize(
    "text", ["(" * 300 + "TOP" + ")" * 300, "~" * 3000 + "TOP"], ids=["parentheses", "negations"]
)
def test_parse_refuses_a_formula_nested_too_deeply(text):
    with pytest.raises(ParseError, match="^formula nested too deeply, got .* at line 1, column "):
        parse_formula(text)


def fold(kind, operands):
    """A chain as the parser folds it: '->' to the right, '&' and '|' to the left."""
    if kind is Imp:
        return functools.reduce(lambda right, left: Imp(left, right), reversed(operands))
    return functools.reduce(kind, operands)


def test_parse_folds_a_long_implication_chain_to_the_right():
    """3,000 operands of '->' parse to the right fold, compared as formatted
    text: the dataclass == of so deep an AST runs out of stack."""
    text = " -> ".join(f"M(A,{{{i}}})" for i in range(3000))
    want = fold(Imp, [Atom("A", (str(i),)) for i in range(3000)])
    assert format_formula(parse_formula(text)) == format_formula(want) == text


def test_parse_runs_out_of_stack_at_the_end_of_the_input():
    """n negations and no operand: the least n that runs out of stack does
    so at the end of the input, where there is no token to name."""

    def message(n):  # every call at the same stack depth
        with pytest.raises(ParseError) as info:
            parse_formula("~" * n)
        return str(info.value)

    lo, hi = 0, sys.getrecursionlimit() + 50  # hi runs out of stack, lo does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if message(mid).startswith("formula nested too deeply") else (mid, hi)
    assert message(hi).startswith("formula nested too deeply (unexpected end of input)")


# bounded trees: the nesting tests above cover deep ones
formula_strategy = st.recursive(
    st.just(Top())
    | st.just(Bot())
    | st.builds(
        Atom,
        st.sampled_from(["A", "Sz", "Sx", "obs_1"]),
        st.lists(st.sampled_from(["0", "1", "-1", "2.5"]), max_size=3).map(tuple),
    ),
    lambda inner: st.builds(Not, inner)
    | st.builds(And, inner, inner)
    | st.builds(Or, inner, inner)
    | st.builds(Imp, inner, inner),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(ast=formula_strategy)
def test_format_parse_roundtrip(ast):
    assert parse_formula(format_formula(ast)) == ast


@pytest.mark.parametrize("op", ["&", "|", "->"], ids=["conjunctions", "disjunctions", "implications"])
def test_format_writes_a_long_chain_back(op):
    """A chain of 10,000 operands formats back to its text."""
    operands = ["M(A,{0})", "~TOP", "(BOT -> TOP)", "~(TOP | BOT)", "BOT"]
    text = f" {op} ".join(itertools.islice(itertools.cycle(operands), 10_000))
    assert format_formula(parse_formula(text)) == text


def test_format_refuses_a_formula_nested_too_deeply():
    """Alternating '&' and '|' nest one level per node, past the recursion
    limit: refused, where a chain of one operator is not."""
    ast = functools.reduce(lambda node, i: (And, Or)[i % 2](node, Top()), range(3000), Bot())
    with pytest.raises(DomainError, match="^formula nested too deeply to format$"):
        format_formula(ast)


def nested_limit(depth) -> int:
    """The largest n for which parse_formula(depth(n)) still parses, found
    by binary search at one stack depth; past it, the parser's refusal."""
    lo, hi = 0, 2 * sys.getrecursionlimit()  # lo parses, hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_formula(depth(mid))
            lo = mid
        except ParseError as exc:
            assert str(exc).startswith("formula nested too deeply, got ")
            hi = mid
    return lo


@pytest.mark.parametrize(
    "depth, formatted",
    [
        (lambda n: "~" * n + "M(Sz,{1})", lambda n: "~" * n + "M(Sz,{1})"),
        (lambda n: "(" * n + "M(Sz,{1})" + ")" * n, lambda n: "M(Sz,{1})"),
        (lambda n: "~(" * n + "M(Sz,{1})" + ")" * n, lambda n: "~" * n + "M(Sz,{1})"),
    ],
    ids=["negations", "parentheses", "negated-parentheses"],
)
def test_eval_and_format_take_what_the_parser_takes_at_its_limit(one_qubit_model, depth, formatted):
    """At the parser's own limit for each kind of nesting, found in this
    process, eval and format succeed at the same stack depth."""
    n = nested_limit(depth)
    assert n > 100
    want = eval_formula(one_qubit_model, parse_formula("M(Sz,{1})"))
    for _ in range(depth(n).count("~")):
        want = one_qubit_model.frame.neg(want)
    ast = parse_formula(depth(n))
    assert eval_formula(one_qubit_model, ast) == want
    assert format_formula(ast) == formatted(n)


def test_eval_constants(one_qubit_model):
    assert eval_formula(one_qubit_model, parse_formula("TOP")) == (
        one_qubit_model.frame.top()
    )
    assert eval_formula(one_qubit_model, parse_formula("BOT")) == (
        one_qubit_model.frame.bottom()
    )


def test_eval_excluded_middle_witness(one_qubit_model):
    s = eval_formula(one_qubit_model, parse_formula("M(Sz,{1}) | ~M(Sz,{1})"))
    assert s.value("1") == frozenset()
    assert s != one_qubit_model.frame.top()


@pytest.mark.parametrize(
    "node", [functools.reduce(lambda node, _: Not(node), range(3000), Top())], ids=["negations"]
)
def test_eval_refuses_a_formula_nested_too_deeply(one_qubit_model, node):
    with pytest.raises(DomainError, match="^formula nested too deeply to evaluate$"):
        eval_formula(one_qubit_model, node)


def nested_eval(model, node):
    """The evaluation one binary node at a time, recursing into both sides."""
    frame = model.frame
    if isinstance(node, Not):
        return frame.neg(nested_eval(model, node.arg))
    if isinstance(node, Imp):
        return frame.implies(nested_eval(model, node.left), nested_eval(model, node.right))
    if isinstance(node, (And, Or)):
        pair = [nested_eval(model, node.left), nested_eval(model, node.right)]
        return frame.meet(pair) if isinstance(node, And) else frame.join(pair)
    return eval_formula(model, node)


def outcome(evaluate, model, node):
    """The section, or the message of the DomainError raised."""
    try:
        return evaluate(model, node)
    except DomainError as exc:
        return str(exc)


# operands of a chain on one_qubit: mostly in its spectrum, some not, some unknown
qubit_formulas = st.recursive(
    st.just(Top())
    | st.just(Bot())
    | st.builds(
        Atom,
        st.sampled_from(["Sz", "Sx", "Sz", "Sx", "Sy"]),
        st.sampled_from([("1",), ("-1",), ("1", "-1"), ("3",)]),
    ),
    lambda inner: st.builds(Not, inner)
    | st.builds(And, inner, inner)
    | st.builds(Or, inner, inner)
    | st.builds(Imp, inner, inner),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([And, Or, Imp]),
    operands=st.lists(qubit_formulas, min_size=1, max_size=8),
)
def test_eval_of_a_chain_matches_the_nested_evaluation(one_qubit_model, kind, operands):
    """A chain as the parser folds it evaluates to the section of the nested
    evaluation, or fails with its first error."""
    chain = fold(kind, operands)
    assert outcome(eval_formula, one_qubit_model, chain) == outcome(nested_eval, one_qubit_model, chain)


@pytest.mark.parametrize("op", ["&", "|", "->"], ids=["conjunctions", "disjunctions", "implications"])
def test_eval_takes_a_flat_chain_as_one_operation(one_qubit_model, op):
    """A chain of 10,000 operands, as the parser folds it, evaluates to the
    fold of its operands' sections (to the right for '->'); of 300, to the
    nested evaluation too, which fits the stack there."""
    frame = one_qubit_model.frame
    operands = ["M(Sz,{1})", "~M(Sx,{-1})", "M(Sz,{1,-1})", "M(Sx,{1}) -> M(Sz,{-1})"]
    sections = [eval_formula(one_qubit_model, parse_formula(x)) for x in operands]

    def chain(count: int):
        cycled = itertools.islice(itertools.cycle(operands), count)
        return parse_formula(f" {op} ".join(f"({x})" for x in cycled))

    cycled = list(itertools.islice(itertools.cycle(sections), 10_000))
    if op == "->":
        want = functools.reduce(lambda right, left: frame.implies(left, right), reversed(cycled))
    else:
        combine = frame.meet if op == "&" else frame.join
        want = functools.reduce(lambda s, t: combine([s, t]), cycled)
    assert eval_formula(one_qubit_model, chain(10_000)) == want
    assert eval_formula(one_qubit_model, chain(300)) == nested_eval(one_qubit_model, chain(300))


def test_eval_noncommuting_conjunction(one_qubit_model):
    s = eval_formula(one_qubit_model, parse_formula("M(Sz,{1}) & M(Sx,{1})"))
    assert s == one_qubit_model.frame.bottom()


def test_eval_implication_matches_frame(one_qubit_model):
    m = one_qubit_model
    via_formula = eval_formula(m, parse_formula("M(Sz,{1}) -> M(Sz,{1,-1})"))
    s1 = m.frame.embed_elementary(m.elementary("Sz", [1.0]))
    s2 = m.frame.embed_elementary(m.elementary("Sz", [1.0, -1.0]))
    assert via_formula == m.frame.implies(s1, s2)


def test_eval_classical_values(figure1_model):
    s = eval_formula(figure1_model, parse_formula("M(A,{0})"))
    assert s == figure1_model.frame.embed_elementary(figure1_model.elementary("A", [0]))


def test_eval_unknown_observable(one_qubit_model):
    from qlogic import DomainError

    with pytest.raises(DomainError):
        eval_formula(one_qubit_model, parse_formula("M(Sy,{1})"))


def test_eval_value_outside_spectrum(one_qubit_model):
    from qlogic import DomainError

    with pytest.raises(DomainError):
        eval_formula(one_qubit_model, parse_formula("M(Sz,{3})"))


def depth_asts(depth):
    """Every AST of depth at most `depth` over TOP and M(A,{0}), in a fixed
    order: the leaves, the negations, then &, | and -> over every pair."""
    leaves = [Top(), Atom("A", ("0",))]
    if depth == 0:
        return leaves
    inner = depth_asts(depth - 1)
    pairs = [kind(left, right) for kind in (And, Or, Imp) for left in inner for right in inner]
    return leaves + [Not(arg) for arg in inner] + pairs


def format_lines():
    """The golden formulas.format.txt: one formatted AST a line."""
    return [format_formula(ast) for ast in depth_asts(2)]


# every token kind, and multi-line input; error_lines adds each with one
# character replaced by a stray character, a minus, or two kinds of whitespace
# that are no line break
ERROR_FORMULAS = [
    "TOP",
    "BOT",
    "M(A,{0})",
    "M(A,{})",
    "M(Sz,{1,-1})",
    "M(Sx,{0.5, 2.5e-3, -1E+2})",
    "M(obs_1,{up,down_2})",
    "~M(A,{0})",
    "~~TOP",
    "TOP & BOT",
    "TOP | BOT & TOP",
    "TOP -> BOT -> TOP",
    "(TOP -> BOT) -> TOP",
    "~(M(A,{0}) | M(B,{1})) & TOP",
    "M(A,{0}) & (M(B,{1}) | M(C,{2}))",
    "TOP &\n  BOT",
    "(TOP\n&\nBOT)",
    "M(Sz,\n{1,\n-1})\n",
    "\n\n  TOP ->\n  ~ BOT\n",
    "  TOP  ",
    "\tM ( A , { 0 } )",
    "TOP\r\n& BOT",
    "M(A,{0})\x0c|\x0bTOP",
    "TOP BOT",
    "M(1,{0})",
    "M(A,{~})",
    "M(A {0})",
    "M(A,{0,})",
    "M(A,{0)",
    "-> TOP",
    "TOP - > BOT",
    "M(A,{-})",
    "M(A,{1.})",
    "M(A,{1e})",
    "X(A,{0})",
    "top",
    "((TOP)",
    "TOP))",
    "M(A,{0}) @ TOP",
    "TOP\u00a0& BOT",
    "TOP\x1c& BOT",
    "TOP & \u00e9",
    "M(A,{\u0663})",
]


def error_lines():
    """The golden formulas.errors.txt: for every prefix of every formula in
    ERROR_FORMULAS and of its variants, the prefix and what parse_formula
    makes of it, "ok" or the ParseError's line, column and text."""
    lines = []
    for text in ERROR_FORMULAS:
        mid = len(text) // 2
        for formula in [text] + [text[:mid] + c + text[mid + 1 :] for c in "@-\u00a0\x1c"]:
            for end in range(len(formula) + 1):
                try:
                    parse_formula(formula[:end])
                    result = "ok"
                except ParseError as exc:
                    result = f"{exc.line}:{exc.column} {exc}"
                lines.append(f"{formula[:end]!r}\t{result}")
    return lines


@pytest.mark.parametrize(
    "name, lines",
    [("formulas.format.txt", format_lines), ("formulas.errors.txt", error_lines)],
)
def test_matches_golden(name, lines):
    assert lines() == (GOLDEN / name).read_text(encoding="utf-8").split("\n")[:-1]


def test_format_golden_parses_back():
    asts = depth_asts(2)
    assert len(asts) == 786
    for ast, line in zip(asts, format_lines()):
        assert parse_formula(line) == ast
