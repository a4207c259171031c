"""Acceptance suite.

One test per criterion; each prints a single PASS line (visible with -s or
on failure) and enforces its stated runtime budget.
"""

import functools
import itertools
import operator
import time

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from qlogic.bell import (
    BellScenario,
    build_chsh_frame,
    chsh_terms,
    classical_vertex_check,
    maximally_mixed_state,
    orthodox_distributivity_witness,
    ProbabilityAssignment,
    ASSIGNMENTS,
    singlet_state,
    theorem1_slack,
)
from qlogic.bridge import classical_bridge
from qlogic.errors import ResourceLimitError
from qlogic.hasse import export_dot, hasse_edges, section_label
from qlogic.quantum import (
    QuantumModel,
    generated_context,
    same_atoms,
    spectral_decompose,
    validate_resolution,
)
from qlogic.sections import ElementaryProposition, Section

from conftest import GOLDEN
from test_check import section_distributivity
from test_classical import _model
from test_frame_oracle import implies as oracle_implies, qubit_axes_model


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeds {self.seconds}s budget"
            )
        return False


def test_criterion_1_figure1_reproduction(figure1_model):
    with Budget(1.0) as budget:
        frame = figure1_model.frame
        sections = frame.enumerate_sections()
        assert len(sections) == 5

        m0 = "({w0}/{w1}: {w0})"
        m1 = "({w0}/{w1}: {w1})"
        m01 = "({w0}/{w1}: {w0}|{w1})"
        labels = {section_label(frame, s) for s in sections}
        assert labels == {"BOT", "TOP", m0, m1, m01}

        edge_labels = {
            (section_label(frame, sections[i]), section_label(frame, sections[j]))
            for i, j in hasse_edges(frame, sections)
        }
        assert edge_labels == {
            ("BOT", m0),
            ("BOT", m1),
            (m0, m01),
            (m1, m01),
            (m01, "TOP"),
        }

        produced = export_dot(frame)
        golden = (GOLDEN / "figure1.dot").read_text()
        assert produced == golden
    print(f"ACCEPTANCE 1 PASS: Figure-1 frame reproduced, golden DOT matches "
          f"({budget.elapsed:.2f}s)")


def test_criterion_2_heyting_adjunction(figure1_model, one_qubit_model):
    with Budget(10.0) as budget:
        counts = {}
        for name, model in (("figure1", figure1_model), ("one_qubit", one_qubit_model)):
            frame = model.frame
            sections = frame.enumerate_sections()
            dicts = [s.as_dict() for s in sections]
            for s1, d1 in zip(sections, dicts):
                for s2, d2 in zip(sections, dicts):
                    imp = frame.implies(s1, s2)
                    assert imp == Section.from_dict(oracle_implies(frame.poset, dicts, d1, d2))
                    for s in sections:
                        assert frame.leq(s, imp) == frame.leq(frame.meet([s, s1]), s2)
            counts[name] = len(sections) ** 3
        assert counts == {"figure1": 125, "one_qubit": 4913}
    print(f"ACCEPTANCE 2 PASS: adjunction holds on 125 + 4913 triples, "
          f"implies == brute force ({budget.elapsed:.2f}s)")


def test_criterion_3_distributivity(figure1_model, one_qubit_model):
    with Budget(5.0) as budget:
        for model in (figure1_model, one_qubit_model):
            laws = model.frame.check_laws(exhaustive=True)
            assert laws.distributive == laws.sections**2
            assert section_distributivity(model.frame) == laws.sections**3
        witness = orthodox_distributivity_witness()
        assert np.allclose(witness.lhs, witness.p1, atol=1e-8)
        assert np.allclose(witness.rhs, 0.0, atol=1e-8)
        assert witness.fails
    print(f"ACCEPTANCE 3 PASS: section frames distributive, raw projection "
          f"lattice is not ({budget.elapsed:.2f}s)")


def test_criterion_4_excluded_middle_and_decidables(figure1_model, one_qubit_model):
    frame_c = figure1_model.frame
    s = frame_c.embed_elementary(figure1_model.elementary("A", [0]))
    em = frame_c.join([s, frame_c.neg(s)])
    assert em != frame_c.top()
    assert frame_c.evaluate_at(em, figure1_model.poset.least) == frozenset()
    part = "{w0}/{w1}"
    assert frame_c.evaluate_at(em, part) == frozenset(
        figure1_model.poset.algebra(part).atoms
    )

    frame_q = one_qubit_model.frame
    sz = frame_q.embed_elementary(one_qubit_model.elementary("Sz", [1.0]))
    em_q = frame_q.join([sz, frame_q.neg(sz)])
    assert em_q != frame_q.top()
    assert frame_q.evaluate_at(em_q, "1") == frozenset()

    decidable = frame_q.decidable_elements()
    assert sorted(decidable, key=str) == sorted(
        [frame_q.top(), frame_q.bottom()], key=str
    )

    quotient = frame_q.restrict_upset("Sz")
    assert len(quotient.enumerate_sections()) == 4
    assert len(quotient.decidable_elements()) == 4
    print("ACCEPTANCE 4 PASS: excluded middle fails in both models; "
          "decidables are {BOT, TOP} globally but all 4 elements at the "
          "Sz quotient")


def check_decidables_by_context(frame):
    """Criterion 4's closed form: the decidables are {BOT, TOP} on the
    frame, and at restrict_upset(c) the 2^|atoms(c)| embedded elements of
    c's Boolean algebra."""
    assert frame.decidable_elements() == [frame.bottom(), frame.top()]
    for c in frame.poset.context_ids:
        sub = frame.restrict_upset(c)
        want = {sub.bottom()} | {
            sub.embed_elementary(ElementaryProposition(c, v))
            for v in frame.poset.algebra(c).elements()
            if v
        }
        got = sub.decidable_elements()
        assert len(got) == 2 ** len(frame.poset.algebra(c).atoms)
        assert set(got) == want, c


def draw_classical_model(data, max_points):
    """1 to max_points points, up to 3 observables of up to 3 values."""
    n = data.draw(st.integers(1, max_points))
    points = [f"w{i}" for i in range(n)]
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    k = data.draw(st.integers(0, 3))
    return _model(points, {f"O{j}": dict(zip(points, data.draw(labels))) for j in range(k)})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_criterion_4_on_classical_models(data):
    check_decidables_by_context(draw_classical_model(data, 12).frame)


@settings(max_examples=15, deadline=None)
@given(
    axes=st.lists(
        st.tuples(st.integers(0, 180), st.integers(0, 359)), min_size=1, max_size=4
    )
)
def test_criterion_4_on_qubit_models(axes):
    check_decidables_by_context(qubit_axes_model(axes).frame)


@settings(max_examples=10, deadline=None)
@given(angles=st.tuples(*[st.integers(0, 359)] * 4))
def test_criterion_4_on_chsh_models(angles):
    check_decidables_by_context(build_chsh_frame(BellScenario.from_angles(*angles)).frame)


def test_criterion_5_strict_negation_gap(one_qubit_model):
    frame = one_qubit_model.frame
    s_minus = frame.embed_elementary(one_qubit_model.elementary("Sz", [-1.0]))
    neg_plus = frame.neg(
        frame.embed_elementary(one_qubit_model.elementary("Sz", [1.0]))
    )
    assert frame.leq(s_minus, neg_plus) and s_minus != neg_plus
    differing = {
        c
        for c in one_qubit_model.poset.context_ids
        if frame.evaluate_at(s_minus, c) != frame.evaluate_at(neg_plus, c)
    }
    assert differing == {"Sx"}
    assert frame.evaluate_at(s_minus, "Sx") == frozenset()
    assert frame.evaluate_at(neg_plus, "Sx") == frozenset(
        one_qubit_model.poset.algebra("Sx").atoms
    )
    print("ACCEPTANCE 5 PASS: S(Sz,-1) < neg S(Sz,+1), strict exactly at Sx "
          "(BOT vs TOP)")


def outcomes(model, name: str) -> list:
    """The values an elementary proposition of the observable ranges over:
    a quantum observable's clustered eigenvalues, a classical one's range."""
    if isinstance(model, QuantumModel):
        return list(model.spectra[name].eigenvalues)
    return sorted(model.observables[name].range(), key=repr)


def check_negation_closed_forms(model):
    """Criterion 5's closed forms, for every observable A and every subset
    Delta of its outcomes: S(A, Delta^c) <= ~S(A, Delta), and S v ~S is
    empty at the least context for every non-bottom S = S(A, Delta) whose
    context is not the least.  Where the guard allows the enumeration, ~S
    is also compared with the join of every section whose meet with S is
    bottom."""
    frame, least = model.frame, model.poset.least
    try:
        upsets = frame._upsets()
    except ResourceLimitError:
        upsets = None
    for name in model.observables:
        values = outcomes(model, name)
        for r in range(len(values) + 1):
            for delta in itertools.combinations(values, r):
                e = model.elementary(name, delta)
                s = frame.embed_elementary(e)
                neg = frame.neg(s)
                rest = frame.embed_elementary(model.elementary(name, [v for v in values if v not in delta]))
                assert frame.leq(rest, neg), (name, delta)
                if upsets is not None:
                    mask = frame._mask(s)
                    disjoint = functools.reduce(operator.or_, (u for u in upsets if not u & mask), 0)
                    assert frame._mask(neg) == disjoint, (name, delta)
                if not e.is_bottom and e.context != least:
                    assert frame.evaluate_at(frame.join([s, neg]), least) == frozenset(), (name, delta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_criterion_5_on_classical_models(data):
    """1-12 points, 1-3 observables of up to 3 values."""
    n = data.draw(st.integers(1, 12))
    points = [f"w{i}" for i in range(n)]
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    k = data.draw(st.integers(1, 3))
    check_negation_closed_forms(
        _model(points, {f"O{j}": dict(zip(points, data.draw(labels))) for j in range(k)})
    )


@settings(max_examples=15, deadline=None)
@given(
    axes=st.lists(
        st.tuples(st.integers(0, 180), st.integers(0, 359)), min_size=1, max_size=4
    )
)
def test_criterion_5_on_qubit_models(axes):
    check_negation_closed_forms(qubit_axes_model(axes))


@settings(max_examples=10, deadline=None)
@given(angles=st.tuples(*[st.integers(0, 359)] * 4))
def test_criterion_5_on_chsh_models(angles):
    check_negation_closed_forms(build_chsh_frame(BellScenario.from_angles(*angles)).model)


def test_criterion_6_theorem1():
    with Budget(1.0) as budget:
        report = classical_vertex_check()
        assert report.ok and report.total == 16
        assert report.min_slack >= 0

        rng = np.random.default_rng(20260826)
        worst = np.inf
        for _ in range(1000):
            weights = rng.dirichlet(np.ones(16))
            pa = ProbabilityAssignment.from_dict(dict(zip(ASSIGNMENTS, weights)))
            worst = min(worst, theorem1_slack(pa))
        assert worst >= -1e-12
    print(f"ACCEPTANCE 6 PASS: Theorem 1 on 16 vertices and 1000 mixtures, "
          f"min slack {worst:.3g} ({budget.elapsed:.2f}s)")


def test_criterion_7_chsh_violation():
    from qlogic.bell import BellScenario, DEFAULT_ANGLES

    with Budget(1.0) as budget:
        scenario = BellScenario.from_angles(*DEFAULT_ANGLES)
        terms = chsh_terms(singlet_state(), scenario)
        assert terms.lhs == pytest.approx(0.25, abs=1e-9)
        expected_rhs = 3 * 0.5 * np.sin(np.deg2rad(15.0)) ** 2
        assert terms.rhs == pytest.approx(expected_rhs, abs=1e-9)
        assert not terms.satisfied

        mixed = chsh_terms(maximally_mixed_state(), scenario)
        assert mixed.satisfied
    print(f"ACCEPTANCE 7 PASS: singlet violates (lhs 0.25 > rhs "
          f"{terms.rhs:.6f}); maximally mixed satisfies ({budget.elapsed:.2f}s)")


def check_tightrope(chsh):
    """B1 & ~B2 = B1, while B1 & (A2 v ~A2) lies strictly below B1 and
    differs from it at B1's context."""
    frame = chsh.frame
    b1 = chsh.sections["B1"]
    not_b2 = frame.neg(chsh.sections["B2"])
    assert frame.meet([b1, not_b2]) == b1

    a2 = chsh.sections["A2"]
    em_a2 = frame.join([a2, frame.neg(a2)])
    assert em_a2 != frame.top()

    weakened = frame.meet([b1, em_a2])
    assert frame.leq(weakened, b1) and weakened != b1
    ctx_b1 = chsh.model.obs_context["B1"]
    assert frame.evaluate_at(weakened, ctx_b1) != frame.evaluate_at(b1, ctx_b1)


def test_criterion_8_logical_tightrope(chsh):
    with Budget(2.0) as budget:
        check_tightrope(chsh)
    print(f"ACCEPTANCE 8 PASS: B1 & ~B2 = B1 but B1 & (A2 v ~A2) < B1 "
          f"strictly at context B1 ({budget.elapsed:.2f}s)")


@settings(max_examples=10, deadline=None)
@given(angles=st.tuples(*[st.integers(0, 359)] * 4).filter(lambda a: (a[2] - a[3]) % 180))
def test_criterion_8_on_chsh_models(angles):
    """b1 = b2 (mod 180) is left out: B2 is then B1 or ~B1, and
    B1 & ~B2 = B1 fails by design."""
    check_tightrope(build_chsh_frame(BellScenario.from_angles(*angles)))


def test_criterion_9_classical_bridge(figure1_model, crossing_model):
    with Budget(5.0) as budget:
        for name, model in (("figure1", figure1_model), ("crossing", crossing_model)):
            _, report = classical_bridge(model)
            assert report.isomorphic, report.detail
            assert report.section_count_classical == report.section_count_quantum
    print(f"ACCEPTANCE 9 PASS: diagonal commutative frames order-isomorphic "
          f"to classical frames (5 and 48 sections) ({budget.elapsed:.2f}s)")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_criterion_9_on_classical_models(data):
    """A model whose enumeration bound the guard refuses is left out."""
    try:
        _, report = classical_bridge(draw_classical_model(data, 5))
    except ResourceLimitError:
        reject()
    assert report.isomorphic, report.detail
    assert report.section_count_classical == report.section_count_quantum


def test_criterion_10_numerical_hygiene():
    with Budget(10.0) as budget:
        rng = np.random.default_rng(7)
        for i in range(200):
            dim = int(rng.integers(2, 5))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (a + a.conj().T) / 2
            sd = spectral_decompose(h)
            assert validate_resolution(sd.projections, tol=1e-8) == []

            scale = float(rng.uniform(0.5, 3.0)) * (1 if i % 2 else -1)
            shift = float(rng.normal())
            ctx1 = generated_context(h, "H")
            ctx2 = generated_context(scale * h + shift * np.eye(dim), "H")
            assert same_atoms(ctx1.atoms, ctx2.atoms)
    print(f"ACCEPTANCE 10 PASS: 200 random Hermitians decompose cleanly and "
          f"recalibration-invariantly ({budget.elapsed:.2f}s)")
