import pytest
from hypothesis import given, settings, strategies as st

from qlogic import BOTTOM, DomainError, ElementaryProposition, ResourceLimitError, UnknownContextError
from qlogic.bridge import classical_bridge
from qlogic.hasse import export_dot
from qlogic.sections import Section

from test_check import section_distributivity
from test_frame_oracle import implies as oracle_implies


def elem(model, name, values):
    return model.elementary(name, values)


def embed(model, name, values):
    return model.frame.embed_elementary(elem(model, name, values))


# -- elementary propositions --------------------------------------------------


def test_embed_top_and_bottom(one_qubit_model):
    frame = one_qubit_model.frame
    top_elem = ElementaryProposition("1", frozenset({"1"}))
    assert frame.embed_elementary(top_elem) == frame.top()
    assert frame.embed_elementary(BOTTOM) == frame.bottom()


def test_embed_elementary_one_qubit(one_qubit_model):
    s = embed(one_qubit_model, "Sz", [1.0])
    d = s.as_dict()
    assert d["1"] == frozenset()
    assert d["Sz"] == frozenset({"Sz=1"})
    assert d["Sx"] == frozenset()


def test_elementary_proposition_rejects_empty_value():
    with pytest.raises(DomainError):
        ElementaryProposition("Sz", frozenset())


def test_elementary_leq(one_qubit_model, chsh):
    m = one_qubit_model
    assert m.frame.elementary_leq(BOTTOM, elem(m, "Sz", [1.0]))
    assert not m.frame.elementary_leq(elem(m, "Sz", [1.0]), elem(m, "Sx", [1.0]))
    # joint measurement implies the single-observable claim
    f = chsh.frame
    e_joint = f.elementary_meet(
        chsh.model.elementary("A1", [1.0]), chsh.model.elementary("B1", [1.0])
    )
    assert f.elementary_leq(e_joint, chsh.model.elementary("A1", [1.0]))


def test_elementary_meet(one_qubit_model, chsh):
    m = one_qubit_model
    assert m.frame.elementary_meet(elem(m, "Sz", [1.0]), elem(m, "Sx", [1.0])) is BOTTOM
    e = elem(m, "Sz", [1.0])
    assert m.frame.elementary_meet(e, e) == e
    joint = chsh.frame.elementary_meet(
        chsh.model.elementary("A1", [1.0]), chsh.model.elementary("B1", [1.0])
    )
    assert joint.context == "A1*B1"
    assert joint.value == frozenset({"A1=1.B1=1"})


def test_embed_preserves_order_and_meets(one_qubit_model):
    m = one_qubit_model
    props = [BOTTOM]
    for name in ("Sz", "Sx"):
        for vals in ([1.0], [-1.0], [1.0, -1.0]):
            props.append(elem(m, name, vals))
    for e1 in props:
        for e2 in props:
            assert m.frame.elementary_leq(e1, e2) == m.frame.leq(
                m.frame.embed_elementary(e1), m.frame.embed_elementary(e2)
            )
            assert m.frame.embed_elementary(
                m.frame.elementary_meet(e1, e2)
            ) == m.frame.meet(
                [m.frame.embed_elementary(e1), m.frame.embed_elementary(e2)]
            )


# -- lattice structure ---------------------------------------------------------


def test_join_meet_units(one_qubit_model):
    frame = one_qubit_model.frame
    s = embed(one_qubit_model, "Sz", [1.0])
    assert frame.join([s, frame.bottom()]) == s
    assert frame.meet([s, frame.top()]) == s
    assert frame.join([]) == frame.bottom()
    assert frame.meet([]) == frame.top()


def test_join_of_complementary_elementaries(one_qubit_model):
    m = one_qubit_model
    s = m.frame.join([embed(m, "Sz", [1.0]), embed(m, "Sz", [-1.0])])
    d = s.as_dict()
    assert d["Sz"] == frozenset({"Sz=1", "Sz=-1"})
    assert d["1"] == frozenset()
    assert d["Sx"] == frozenset()
    assert s != m.frame.top()


def test_section_constructor_rejects_non_monotone(one_qubit_model):
    frame = one_qubit_model.frame
    with pytest.raises(DomainError):
        frame.section({"1": {"1"}, "Sz": set(), "Sx": set()})
    with pytest.raises(DomainError):
        frame.section({"1": set(), "Sz": {"nope"}, "Sx": set()})
    with pytest.raises(DomainError, match="misses contexts"):
        frame.section({"1": set()})
    with pytest.raises(UnknownContextError, match="^unknown context 'nope'$"):
        frame.section({"1": set(), "Sz": set(), "Sx": set(), "nope": {"x"}})


# -- Heyting structure ----------------------------------------------------------


def test_implies_trivial_cases(one_qubit_model):
    frame = one_qubit_model.frame
    s = embed(one_qubit_model, "Sz", [1.0])
    assert frame.implies(s, s) == frame.top()
    assert frame.implies(frame.top(), s) == s


def test_neg_constants(one_qubit_model):
    frame = one_qubit_model.frame
    assert frame.neg(frame.top()) == frame.bottom()
    assert frame.neg(frame.bottom()) == frame.top()


def test_neg_witness_one_qubit(one_qubit_model):
    s = embed(one_qubit_model, "Sz", [1.0])
    n = one_qubit_model.frame.neg(s)
    d = n.as_dict()
    assert d["1"] == frozenset()
    assert d["Sz"] == frozenset({"Sz=-1"})
    assert d["Sx"] == frozenset({"Sx=1", "Sx=-1"})


def test_strict_negation_gap(one_qubit_model):
    m = one_qubit_model
    s_plus = embed(m, "Sz", [1.0])
    s_minus = embed(m, "Sz", [-1.0])
    n = m.frame.neg(s_plus)
    assert m.frame.leq(s_minus, n)
    assert s_minus != n
    assert s_minus.value("Sx") == frozenset()
    assert n.value("Sx") == frozenset({"Sx=1", "Sx=-1"})


def test_excluded_middle_fails(one_qubit_model):
    m = one_qubit_model
    s = embed(m, "Sz", [1.0])
    em = m.frame.join([s, m.frame.neg(s)])
    assert em != m.frame.top()
    assert em.value("1") == frozenset()


def test_implies_equals_brute_force(one_qubit_model):
    frame = one_qubit_model.frame
    sections = frame.enumerate_sections()
    dicts = [s.as_dict() for s in sections]
    for s1, d1 in zip(sections, dicts):
        for s2, d2 in zip(sections, dicts):
            expected = oracle_implies(frame.poset, dicts, d1, d2)
            assert frame.implies(s1, s2) == Section.from_dict(expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adjunction_property(one_qubit_model, data):
    frame = one_qubit_model.frame
    sections = frame.enumerate_sections()
    s = data.draw(st.sampled_from(sections))
    s1 = data.draw(st.sampled_from(sections))
    s2 = data.draw(st.sampled_from(sections))
    assert frame.leq(s, frame.implies(s1, s2)) == frame.leq(frame.meet([s, s1]), s2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lattice_ops_stay_monotone(one_qubit_model, data):
    frame = one_qubit_model.frame
    sections = frame.enumerate_sections()
    s1 = data.draw(st.sampled_from(sections))
    s2 = data.draw(st.sampled_from(sections))
    assert frame.is_monotone(frame.join([s1, s2]))
    assert frame.is_monotone(frame.meet([s1, s2]))
    assert frame.is_monotone(frame.implies(s1, s2))


# -- enumeration ----------------------------------------------------------------


def test_enumerate_counts(one_qubit_model, figure1_model):
    assert len(one_qubit_model.frame.enumerate_sections()) == 17
    assert len(figure1_model.frame.enumerate_sections()) == 5


def test_enumerate_unique(one_qubit_model):
    sections = one_qubit_model.frame.enumerate_sections()
    assert len(set(sections)) == len(sections)
    frame = one_qubit_model.frame
    assert all(frame.is_monotone(s) for s in sections)


def test_enumeration_guard(one_qubit_model, figure1_model, monkeypatch):
    # every enumerating entry point stops at the guard
    monkeypatch.setenv("QLOGIC_ENUM_GUARD", "3")
    frame = one_qubit_model.frame
    for enumerate_all in (
        frame.enumerate_sections,
        frame.check_laws,
        lambda: export_dot(frame),
        lambda: classical_bridge(figure1_model),
        lambda: list(one_qubit_model.poset.algebra("Sz").elements()),
    ):
        with pytest.raises(ResourceLimitError, match="exceeds guard 3"):
            enumerate_all()


def test_decidable_guard_counts_components(crossing_model, monkeypatch):
    """The decidables are 2^k unions of k components, and the guard is
    checked on 2^k, not on the 2^|P| subsets of the points."""
    frame = crossing_model.frame
    for c in frame.poset.context_ids:
        sub = frame.restrict_upset(c)
        bound = 1 << len(frame.poset.algebra(c).atoms)
        monkeypatch.setenv("QLOGIC_ENUM_GUARD", str(bound - 1))
        with pytest.raises(ResourceLimitError, match=f"exceeds guard {bound - 1}"):
            sub.decidable_elements()
        monkeypatch.setenv("QLOGIC_ENUM_GUARD", str(bound))
        assert len(sub.decidable_elements()) == bound
        if sub.enumeration_bound() > bound:
            with pytest.raises(ResourceLimitError):
                sub.enumerate_sections()


def test_enumeration_guard_env(one_qubit_model, monkeypatch):
    monkeypatch.setenv("QLOGIC_ENUM_GUARD", "3")
    with pytest.raises(ResourceLimitError):
        one_qubit_model.frame.enumerate_sections()
    monkeypatch.setenv("QLOGIC_ENUM_GUARD", "100000")
    assert len(one_qubit_model.frame.enumerate_sections()) == 17


# -- quotients --------------------------------------------------------------------


def test_evaluate_at(one_qubit_model):
    m = one_qubit_model
    assert m.frame.evaluate_at(m.frame.top(), "Sz") == frozenset({"Sz=1", "Sz=-1"})
    assert m.frame.evaluate_at(embed(m, "Sz", [1.0]), "Sx") == frozenset()


def test_coarse_quotient_is_boolean(one_qubit_model):
    # distinct local values at Sz over all sections: the 4-element algebra
    values = {
        s.value("Sz") for s in one_qubit_model.frame.enumerate_sections()
    }
    assert len(values) == 4


def test_restrict_upset_identity(one_qubit_model):
    m = one_qubit_model
    sub = m.frame.restrict_upset("1")
    assert set(sub.context_ids) == set(m.poset.context_ids)
    assert len(sub.enumerate_sections()) == 17


def test_restrict_upset_boolean(one_qubit_model):
    sub = one_qubit_model.frame.restrict_upset("Sz")
    assert sub.context_ids == ("Sz",)
    assert len(sub.enumerate_sections()) == 4
    assert len(sub.decidable_elements()) == 4


@pytest.mark.parametrize("c", ["1", "Sx", "nope"])
def test_restrict_upset_refuses_contexts_outside_it(one_qubit_model, c):
    """The frame over Sz's up-set holds Sz alone: a context below Sz, one
    beside it and one of no poset are refused wherever a context enters."""
    sub = one_qubit_model.frame.restrict_upset("Sz")
    e, sz = ElementaryProposition(c, frozenset({"x"})), ElementaryProposition("Sz", frozenset({"Sz=1"}))
    for call in (
        lambda: sub.section({"Sz": set(), c: set()}),
        lambda: sub.embed_elementary(e),
        lambda: sub.elementary_meet(e, sz),
        lambda: sub.elementary_meet(sz, e),
        lambda: sub.elementary_leq(sz, e),
        lambda: sub.evaluate_at(sub.top(), c),
        lambda: sub.restrict_upset(c),
    ):
        with pytest.raises(UnknownContextError, match=f"^unknown context '{c}'$"):
            call()


def test_decidable_elements_full_frame(one_qubit_model):
    frame = one_qubit_model.frame
    dec = frame.decidable_elements()
    assert set(dec) == {frame.top(), frame.bottom()}


def test_decompose_roundtrip(one_qubit_model):
    frame = one_qubit_model.frame
    for s in frame.enumerate_sections():
        pieces = frame.decompose_to_elementary(s)
        rebuilt = frame.join([frame.embed_elementary(e) for e in pieces])
        assert rebuilt == s
    assert frame.decompose_to_elementary(frame.bottom()) == []


def test_check_distributive(one_qubit_model):
    laws = one_qubit_model.frame.check_laws(exhaustive=True)
    assert laws.distributive == 17**2
    assert section_distributivity(one_qubit_model.frame) == 17**3
