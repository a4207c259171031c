import functools
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


@pytest.mark.parametrize(
    "text",
    ["(" * 300 + "TOP" + ")" * 300, "~" * 3000 + "TOP", " -> ".join(["TOP"] * 3000)],
    ids=["parentheses", "negations", "implications"],
)
def test_parse_refuses_a_formula_nested_too_deeply(text):
    with pytest.raises(ParseError, match="^formula nested too deeply, got .* at line 1, column "):
        parse_formula(text)


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


def test_format_refuses_a_formula_nested_too_deeply():
    ast = parse_formula(" & ".join(["TOP"] * 3000))  # the parser's loop, left-deep
    with pytest.raises(DomainError, match="^formula nested too deeply to format$"):
        format_formula(ast)


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
    "node",
    [
        parse_formula(" & ".join(["M(Sz,{1})"] * 3000)),  # the parser's loop, left-deep
        functools.reduce(lambda node, _: Not(node), range(3000), Top()),
    ],
    ids=["conjunctions", "negations"],
)
def test_eval_refuses_a_formula_nested_too_deeply(one_qubit_model, node):
    with pytest.raises(DomainError, match="^formula nested too deeply to evaluate$"):
        eval_formula(one_qubit_model, node)


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
