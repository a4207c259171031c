"""The quantum context closure against definitional oracles.

The oracles decide each relation between two contexts from its
definition: the meet's atoms are the minimal non-zero projections that
are sums of atoms of both contexts (exhaustive over the subsets of the
first context's atoms), c1 <= c2 iff every atom of c1 is the sum of the
atoms of c2 below it, an atom of c1 embeds as the atoms of c2 below it,
and the join of a commuting pair has the non-zero atom products as atoms.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlogic import (
    ClassicalModel,
    ClassicalObservable,
    OutcomeSpace,
    QuantumModel,
    classical_bridge,
)
from qlogic.bell import BellScenario, build_chsh_frame
from qlogic.quantum import TAU_PROJ, _maxabs, contexts_commute, same_atoms

from test_bridge import oracle_isomorphic

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def below(p, q, tol=TAU_PROJ) -> bool:
    """q <= p for projections."""
    return _maxabs(p @ q - q) <= tol


def oracle_leq(c1, c2, tol=TAU_PROJ) -> bool:
    for p in c1.atoms:
        under = [q for q in c2.atoms if below(p, q, tol)]
        if _maxabs(sum(under) - p) > tol:
            return False
    return True


def oracle_meet_atoms(c1, c2, tol=TAU_PROJ) -> list:
    n = len(c1.atoms)
    dim = c1.atoms[0].shape[0]
    common = []
    for mask in range(1, 1 << n):
        p = np.zeros((dim, dim), dtype=complex)
        for i in range(n):
            if mask >> i & 1:
                p = p + c1.atoms[i]
        under = [q for q in c2.atoms if below(p, q, tol)]
        if _maxabs(sum(under) - p) <= tol:
            common.append(p)
    return [
        p
        for p in common
        if not any(below(p, q, tol) and _maxabs(p - q) > tol for q in common)
    ]


def oracle_join_atoms(c1, c2, tol=TAU_PROJ) -> list:
    return [p @ q for p in c1.atoms for q in c2.atoms if _maxabs(p @ q) > tol]


def check_closure(model: QuantumModel):
    poset = model.poset
    ids = poset.context_ids
    for a in ids:
        ca = model.contexts[a]
        for b in ids:
            if a == b:
                continue
            cb = model.contexts[b]
            assert poset.leq(a, b) == oracle_leq(ca, cb), (a, b)
            if poset.leq(a, b):
                for n, p in zip(ca.atom_names, ca.atoms):
                    want = {m for m, q in zip(cb.atom_names, cb.atoms) if below(p, q)}
                    assert poset.embed(a, b, frozenset({n})) == want, (a, b, n)
            if a < b:
                meet = model.contexts[poset.meet_contexts(a, b)]
                assert same_atoms(meet.atoms, oracle_meet_atoms(ca, cb)), (a, b)
                if contexts_commute(ca, cb):
                    join = model.contexts[poset.try_join_contexts(a, b)]
                    assert same_atoms(join.atoms, oracle_join_atoms(ca, cb)), (a, b)
    assert poset.validate() == []


def haar_unitary(g: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def local_pauli_model(sites: int, paulis: str, seed: int) -> QuantumModel:
    """Local Pauli observables, each qubit conjugated by its own random unitary."""
    g = np.random.default_rng(seed)
    us = [haar_unitary(g, 2) for _ in range(sites)]
    observables = {}
    for k in range(sites):
        for p in paulis:
            m = np.eye(1, dtype=complex)
            for j in range(sites):
                f = us[j] @ PAULI[p] @ us[j].conj().T if j == k else np.eye(2)
                m = np.kron(m, f)
            observables[f"{p}{k}"] = m
    return QuantumModel(observables)


def covers(poset) -> int:
    ids = poset.context_ids
    return sum(
        1
        for a in ids
        for b in ids
        if a != b
        and poset.leq(a, b)
        and not any(
            d not in (a, b) and poset.leq(a, d) and poset.leq(d, b) for d in ids
        )
    )


def test_one_qubit_matches_oracle(one_qubit_model):
    check_closure(one_qubit_model)


@settings(max_examples=5, deadline=None)
@given(angles=st.lists(st.integers(0, 359), min_size=4, max_size=4))
def test_chsh_matches_oracle(angles):
    check_closure(build_chsh_frame(BellScenario.from_angles(*angles)).model)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_qubit_xyz_matches_oracle(seed):
    model = local_pauli_model(2, "XYZ", seed)
    assert len(model.poset.context_ids) == 16
    check_closure(model)


def test_three_qubit_xz_matches_oracle():
    model = local_pauli_model(3, "XZ", 5)
    poset = model.poset
    assert len(poset.context_ids) == 27
    assert sum(len(poset.algebra(c).atoms) for c in poset.context_ids) == 125
    assert covers(poset) == 54
    check_closure(model)


def test_meet_component_spans_a_chain_of_overlaps():
    """p1 and p3 are linked only through p1-q1-p2-q2-p3, so the meet is
    trivial although no atom of the second context meets both."""
    s = np.sqrt(0.5)
    v = np.array([[s, s, 0, 0], [0, 0, s, s], [s, -s, 0, 0], [0, 0, s, -s]]).T
    a = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    b = (v @ np.diag([0.0, 1.0, 2.0, 3.0]) @ v.T).astype(complex)
    model = QuantumModel({"A": a, "B": b})
    assert model.poset.meet_contexts("A", "B") == "1"
    check_closure(model)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 5),
    spectra=st.lists(
        st.tuples(
            st.lists(st.integers(0, 2), min_size=5, max_size=5),
            st.lists(st.integers(0, 3), max_size=2),
        ),
        min_size=2,
        max_size=3,
    ),
)
def test_families_sharing_degenerate_blocks_match_oracle(seed, dim, spectra):
    """Degenerate observables diagonal in one random basis, some with a few
    pairs of neighbouring basis vectors rotated, so that they share the
    other blocks only."""
    g = np.random.default_rng(seed)
    u = haar_unitary(g, dim)
    observables = {}
    for k, (values, rotations) in enumerate(spectra):
        v = u
        for i in rotations:
            i = min(i, dim - 2)
            w = np.eye(dim, dtype=complex)
            w[i : i + 2, i : i + 2] = haar_unitary(g, 2)
            v = v @ w
        observables[f"O{k}"] = v @ np.diag(np.array(values[:dim], float)) @ v.conj().T
    check_closure(QuantumModel(observables))


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_classical_bridge_twins_match_oracle(data):
    n = data.draw(st.integers(3, 5))
    points = [f"w{i}" for i in range(n)]
    observables = {}
    for j in range(data.draw(st.integers(1, 3))):
        values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        observables[f"O{j}"] = ClassicalObservable.from_dict(
            f"O{j}", dict(zip(points, values))
        )
    model = ClassicalModel(OutcomeSpace(frozenset(points)), observables)
    poset = model.poset
    # the bridge enumerates both section frames
    assume(sum(len(poset.algebra(c).atoms) for c in poset.context_ids) <= 12)
    qmodel, report = classical_bridge(model)
    assert report.isomorphic
    assert oracle_isomorphic(model, qmodel, report.context_map)
    check_closure(qmodel)


@pytest.mark.parametrize("name", ["figure1_model", "crossing_model"])
def test_fixture_bridge_twins_match_oracle(name, request):
    model = request.getfixturevalue(name)
    qmodel, report = classical_bridge(model)
    assert report.isomorphic
    assert oracle_isomorphic(model, qmodel, report.context_map)
    check_closure(qmodel)
