import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlogic import DomainError
from qlogic.bell import (
    ASSIGNMENTS,
    BellScenario,
    DEFAULT_ANGLES,
    ProbabilityAssignment,
    axis_from_angle,
    born_probability,
    build_chsh_frame,
    chsh_sweep,
    chsh_terms,
    classical_vertex_check,
    maximally_mixed_state,
    orthodox_distributivity_witness,
    projection_join_raw,
    projection_meet_raw,
    singlet_joint_probability,
    singlet_state,
    spin_projection,
    theorem1_slack,
    validate_density_matrix,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def test_spin_projection():
    assert np.allclose(spin_projection(Z, 1), np.diag([1.0, 0.0]))
    assert np.allclose(
        spin_projection(X, -1), np.array([[0.5, -0.5], [-0.5, 0.5]])
    )
    with pytest.raises(DomainError):
        spin_projection(np.array([0.0, 0.0, 2.0]), 1)
    with pytest.raises(DomainError):
        spin_projection(Z, 0)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_angle_rejected(theta):
    with pytest.raises(DomainError, match="^angle must be finite, got "):
        axis_from_angle(theta)
    with pytest.raises(DomainError, match="^angle must be finite, got "):
        BellScenario.from_angles(0.0, theta, 90.0, 45.0)


def test_nan_fails_the_unit_and_state_checks():
    nan_axis = np.array([np.nan, 0.0, 1.0])
    with pytest.raises(DomainError, match="^measurement axes must be real unit 3-vectors$"):
        BellScenario(nan_axis, Z, Z, Z)
    with pytest.raises(DomainError, match="^axis must be a real unit 3-vector$"):
        spin_projection(nan_axis, 1)
    rho = singlet_state()
    rho[0, 0] = np.nan
    with pytest.raises(DomainError, match="^density matrix must be Hermitian$"):
        validate_density_matrix(rho)


# unit in the 2-norm but not a real 3-vector: a 4-vector was once read as its
# first three entries, the zero operator here; and ragged lists, which numpy
# makes no array of
NOT_REAL_3_VECTORS = {
    "unit 4-vector": np.array([0.0, 0.0, 0.0, 1.0]),
    "unit 2-vector": np.array([0.0, 1.0]),
    "(1, 3) array": np.array([[0.0, 0.0, 1.0]]),
    "complex 3-vector": np.array([0.0, 0.0, 1j]),
    "scalar": np.array(1.0),
    "ragged": [1, [0], 0],
    "ragged first": [[0, 0], 0, 1],
}


@pytest.mark.parametrize("case", sorted(NOT_REAL_3_VECTORS))
def test_axis_that_is_no_real_3_vector_rejected(case):
    axis = NOT_REAL_3_VECTORS[case]
    with pytest.raises(DomainError, match="^measurement axes must be real unit 3-vectors$"):
        BellScenario(Z, Z, axis, Z)
    with pytest.raises(DomainError, match="^axis must be a real unit 3-vector$"):
        spin_projection(axis, 1)


def test_axis_given_as_a_list_is_accepted():
    assert np.allclose(spin_projection([0, 0, 1], 1), np.diag([1.0, 0.0]))
    BellScenario([0.0, 0.0, 1.0], Z, X, X)


@pytest.mark.parametrize("shape", [(4, 3), (4,), (1, 4, 4), ()])
def test_non_square_state_rejected(shape):
    rho = np.zeros(shape, dtype=complex)
    with pytest.raises(DomainError, match=r"^density matrix must be square, got shape \("):
        validate_density_matrix(rho)
    with pytest.raises(DomainError, match=r"^density matrix must be square, got shape \("):
        chsh_terms(rho, BellScenario.from_angles(*DEFAULT_ANGLES))


NO_ARRAYS_OF_NUMBERS = {
    "ragged": ([[1, 0], [0]], "^density matrix is not an array of numbers$"),
    "string": ([["a", 0], [0, 1]], "^density matrix is not an array of numbers$"),
    "dict": ([[{}, 0], [0, 1]], "^density matrix is not an array of numbers$"),
    "huge int": ([[10**400, 0], [0, 0]], "^density matrix has an entry past the float range$"),
}


@pytest.mark.parametrize("case", sorted(NO_ARRAYS_OF_NUMBERS))
def test_state_that_is_no_array_of_numbers_rejected(case):
    rho, message = NO_ARRAYS_OF_NUMBERS[case]
    with pytest.raises(DomainError, match=message):
        validate_density_matrix(rho)
    with pytest.raises(DomainError, match=message):
        chsh_terms(rho, BellScenario.from_angles(*DEFAULT_ANGLES))


def test_singlet_state():
    rho = singlet_state()
    assert abs(np.trace(rho).real - 1) < 1e-12
    assert np.linalg.matrix_rank(rho) == 1


def test_born_probability_anticorrelation():
    rho = singlet_state()
    pz0, pz1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert born_probability(rho, np.kron(pz0, pz0)) == pytest.approx(0.0, abs=1e-12)
    assert born_probability(rho, np.kron(pz0, pz1)) == pytest.approx(0.5, abs=1e-12)
    # orthogonal axes
    p = np.kron(spin_projection(Z, 1), spin_projection(X, 1))
    assert born_probability(rho, p) == pytest.approx(0.25, abs=1e-12)


def test_born_probability_dimension_mismatch():
    with pytest.raises(DomainError):
        born_probability(singlet_state(), np.diag([1.0, 0.0]))


def test_born_sums_to_one_over_context_atoms(chsh):
    rho = singlet_state()
    model = chsh.model
    for cid, ctx in model.contexts.items():
        total = sum(born_probability(rho, p) for p in ctx.atoms)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_chsh_terms_default_violation():
    terms = chsh_terms(singlet_state(), BellScenario.from_angles(*DEFAULT_ANGLES))
    assert terms.lhs == pytest.approx(0.25, abs=1e-9)
    expected = 0.5 * np.sin(np.deg2rad(15)) ** 2
    for t in (terms.t1, terms.t2, terms.t3):
        assert t == pytest.approx(expected, abs=1e-9)
    assert not terms.satisfied


def test_chsh_terms_equal_axes_satisfied():
    terms = chsh_terms(singlet_state(), BellScenario.from_angles(0, 0, 0, 0))
    assert terms.lhs == pytest.approx(0.0, abs=1e-12)
    assert terms.satisfied


@pytest.mark.parametrize("steps", [0, -2])
def test_chsh_sweep_refuses_fewer_than_one_step(steps):
    # refused at the call, before a caller prints anything
    with pytest.raises(DomainError, match=f"^a sweep needs steps >= 1, got {steps}$"):
        chsh_sweep(steps)


def test_chsh_terms_mixed_state_satisfied():
    terms = chsh_terms(
        maximally_mixed_state(), BellScenario.from_angles(*DEFAULT_ANGLES)
    )
    assert terms.lhs == pytest.approx(0.25, abs=1e-12)
    assert terms.rhs == pytest.approx(0.75, abs=1e-12)
    assert terms.satisfied


def test_closed_form_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    rho = singlet_state()
    for _ in range(3):
        a, b = rng.uniform(0, 180, size=2)
        p = born_probability(
            rho,
            np.kron(
                spin_projection(axis_from_angle(a), 1),
                spin_projection(axis_from_angle(b), 1),
            ),
        )
        assert p == pytest.approx(singlet_joint_probability(a - b), abs=1e-10)


def test_theorem1_point_masses():
    assert theorem_slack(True, True, True, True) == pytest.approx(1.0)
    assert theorem_slack(True, False, True, False) == pytest.approx(0.0)
    assert theorem_slack(False, False, False, False) == pytest.approx(1.0)


def theorem_slack(a1, a2, b1, b2):
    from qlogic.bell import theorem1_slack

    return theorem1_slack(ProbabilityAssignment.point_mass(a1, a2, b1, b2))


def test_theorem1_uniform():
    from qlogic.bell import theorem1_slack

    uniform = ProbabilityAssignment.from_dict({k: 1 / 16 for k in ASSIGNMENTS})
    assert theorem1_slack(uniform) == pytest.approx(0.5)


def test_theorem1_rejects_bad_weights():
    from qlogic.bell import theorem1_slack

    with pytest.raises(DomainError):
        theorem1_slack(ProbabilityAssignment.from_dict({ASSIGNMENTS[0]: 0.5}))
    with pytest.raises(DomainError):
        theorem1_slack(
            ProbabilityAssignment.from_dict(
                {ASSIGNMENTS[0]: 1.5, ASSIGNMENTS[1]: -0.5}
            )
        )


def test_classical_vertex_check():
    report = classical_vertex_check()
    assert report.ok
    assert report.total == 16
    assert report.min_slack >= 0


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0, 1), min_size=16, max_size=16))
def test_theorem1_random_mixtures(weights):
    from qlogic.bell import theorem1_slack

    total = sum(weights)
    if total <= 0:
        return
    normalized = [w / total for w in weights]
    pa = ProbabilityAssignment.from_dict(dict(zip(ASSIGNMENTS, normalized)))
    assert theorem1_slack(pa) >= -1e-12


def test_chsh_frame_shape(chsh):
    ids = chsh.model.poset.context_ids
    assert set(ids) == {
        "1", "A1", "A2", "B1", "B2", "A1*B1", "A1*B2", "A2*B1", "A2*B2",
    }
    assert chsh.model.poset.upset("B1") == frozenset({"B1", "A1*B1", "A2*B1"})
    assert chsh.model.poset.leq("A1", "A1*B1")
    assert not chsh.model.poset.leq("A1", "B1")


def test_alice_restricted_logic(chsh):
    sub = chsh.frame.restrict_upset("A1")
    assert set(sub.context_ids) == {"A1", "A1*B1", "A1*B2"}
    assert sub.least == "A1"


def test_tightrope(chsh):
    f = chsh.frame
    b1 = chsh.sections["B1"]
    not_b2 = f.neg(chsh.sections["B2"])
    assert f.meet([b1, not_b2]) == b1
    a2 = chsh.sections["A2"]
    em = f.join([a2, f.neg(a2)])
    assert em != f.top()
    assert em.value("1") == frozenset()
    assert em.value("B1") == frozenset()
    m = f.meet([b1, em])
    assert f.leq(m, b1) and m != b1
    assert m.value("B1") == frozenset() and b1.value("B1") != frozenset()


def test_chsh_sandwich_property(chsh):
    f = chsh.frame
    m = chsh.model
    e1, e2 = m.elementary("A1", [1.0]), m.elementary("B1", [1.0])
    s = f.join([f.embed_elementary(e1), f.embed_elementary(e2)])
    join_ctx = m.poset.try_join_contexts("A1", "B1")
    union = m.poset.embed("A1", join_ctx, e1.value) | m.poset.embed(
        "B1", join_ctx, e2.value
    )
    from qlogic import ElementaryProposition

    lower = f.embed_elementary(ElementaryProposition(join_ctx, union))
    upper = f.top()  # context meet is trivial; its only disjunction is TOP
    assert f.leq(lower, s) and lower != s
    assert f.leq(s, upper) and s != upper


def test_orthodox_distributivity_witness():
    w = orthodox_distributivity_witness()
    assert np.allclose(w.lhs, w.p1, atol=1e-10)
    assert np.allclose(w.rhs, np.zeros((2, 2)), atol=1e-10)
    assert w.fails


def test_orthodox_witness_commuting_case():
    from qlogic.bell import projection_join_raw, projection_meet_raw

    p = np.diag([1.0, 0.0]).astype(complex)
    not_p = np.eye(2) - p
    lhs = projection_meet_raw(p, projection_join_raw(p, not_p))
    rhs = projection_join_raw(
        projection_meet_raw(p, p), projection_meet_raw(p, not_p)
    )
    assert np.allclose(lhs, rhs, atol=1e-10)


# -- oracles: the routines that the one-routine versions replaced ---------------


def oracle_slack(pa):
    """theorem1_slack as a loop: the four terms summed over the weights,
    then t1 + t2 + t3 - lhs."""
    lhs = t1 = t2 = t3 = 0.0
    for (a1, a2, b1, b2), w in pa.weights:
        if a1 and b1:
            lhs += w
        if a1 and b2:
            t1 += w
        if a2 and b1:
            t2 += w
        if not a2 and not b2:
            t3 += w
    return t1 + t2 + t3 - lhs


def range_basis(p):
    """An orthonormal basis of a projection's range: its eigenvectors of
    eigenvalue above 1/2."""
    w, v = np.linalg.eigh(p)
    return v[:, w > 0.5]


def oracle_meet(p1, p2):
    """The intersection of the ranges as the common null space of 1 - p1
    and 1 - p2: the right singular vectors of the stacked pair with
    singular value at most 1e-10, and those past its rank."""
    dim = p1.shape[0]
    _, s, vh = np.linalg.svd(np.vstack([np.eye(dim) - p1, np.eye(dim) - p2]))
    null = np.ones(dim, dtype=bool)
    null[: len(s)] = s <= 1e-10
    basis = vh[null].conj().T
    return basis @ basis.conj().T


def oracle_join(p1, p2):
    """The span of the ranges by Gram-Schmidt over both range bases: each
    vector, orthogonalised twice against those kept, is kept if its norm
    stays above 1e-9.  (An unpivoted QR of the stacked bases misreads the
    rank when a dependent vector comes first: join(diag(1, 0), 1) read
    diag(1, 0).)"""
    kept = []
    for v in np.hstack([range_basis(p1), range_basis(p2)]).T:
        for _ in range(2):
            for b in kept:
                v = v - b * (b.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            kept.append(v / norm)
    basis = np.array(kept, dtype=complex).reshape(-1, len(p1)).T
    return basis @ basis.conj().T


@st.composite
def projection_pairs(draw):
    """Projections p, q of dimension 1 to 5 and of ranks drawn from 0 to
    the dimension, whose ranges share a subspace of drawn dimension and
    each add generic directions from the rest: so rank 0, full rank, one
    range inside the other, shared subspaces and generic pairs all come
    up.  Every singular value of [p q] and of [1 - p, 1 - q] is kept away
    from the cuts, at most 1e-12 or at least 1e-6, where the routines and
    the oracles must read the same ranks."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = g.integers(1, 6)
    ranks = g.integers(0, dim + 1, size=2)
    shared = g.integers(0, ranks.min() + 1)
    u = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))[0]

    def projection(rank):
        size = (dim - shared, rank - shared)
        cols = np.hstack([u[:, :shared], u[:, shared:] @ (g.normal(size=size) + 1j * g.normal(size=size))])
        basis = np.linalg.qr(cols)[0] if rank else cols
        return basis @ basis.conj().T

    p, q = map(projection, ranks)
    eye = np.eye(dim)
    for m in (np.hstack([p, q]), np.hstack([eye - p, eye - q])):
        s = np.linalg.svd(m, compute_uv=False)
        assume(np.all((s <= 1e-12) | (s >= 1e-6)))
    return p, q


@settings(max_examples=300, deadline=None)
@given(pair=projection_pairs())
def test_join_and_meet_match_the_oracles(pair):
    p, q = pair
    join, meet = projection_join_raw(p, q), projection_meet_raw(p, q)
    assert np.abs(join - oracle_join(p, q)).max() <= 1e-10
    assert np.abs(meet - oracle_meet(p, q)).max() <= 1e-10
    # the lattice's bounds: each range lies in the join and holds the meet
    for x in (p, q):
        assert np.abs(join @ x - x).max() <= 1e-10
        assert np.abs(x @ meet - meet).max() <= 1e-10


@pytest.mark.parametrize(
    "p, q, join, meet",
    [
        # a range inside the other, the smaller first
        (np.diag([1.0, 0.0]), np.eye(2), np.eye(2), np.diag([1.0, 0.0])),
        (np.diag([1.0, 0, 0]), np.diag([1.0, 1, 0]), np.diag([1.0, 1, 0]), np.diag([1.0, 0, 0])),
        (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))),
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2), np.zeros((2, 2))),
    ],
    ids=["inside", "inside-3", "zero", "complements"],
)
def test_join_and_meet_on_nested_and_extreme_ranges(p, q, join, meet):
    assert np.abs(projection_join_raw(p, q) - join).max() <= 1e-12
    assert np.abs(oracle_join(p, q) - join).max() <= 1e-12
    assert np.abs(projection_meet_raw(p, q) - meet).max() <= 1e-12
    assert np.abs(oracle_meet(p, q) - meet).max() <= 1e-12


def test_every_point_mass_slack_equals_the_loop():
    for key in ASSIGNMENTS:
        pa = ProbabilityAssignment.point_mass(*key)
        assert theorem1_slack(pa) == oracle_slack(pa) >= 0
    assert classical_vertex_check().min_slack == 0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.1, 1.0, 10.0]))
def test_mixture_slack_matches_the_loop(seed, alpha):
    weights = np.random.default_rng(seed).dirichlet(np.full(16, alpha))
    pa = ProbabilityAssignment.from_dict(dict(zip(ASSIGNMENTS, weights.tolist())))
    slack = theorem1_slack(pa)
    assert abs(slack - oracle_slack(pa)) <= 1e-12
    assert slack >= 0
