import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlogic import BOTTOM, DomainError, QuantumModel, StructureError, classical_bridge
from qlogic.bell import (
    DEFAULT_ANGLES, BellScenario, build_chsh_frame, orthodox_distributivity_witness
)
from qlogic.quantum import (
    TAU_EIG,
    TOLERANCES,
    QuantumContext,
    generated_context,
    is_projection,
    same_atoms,
    spectral_decompose,
    spectral_projection,
    validate_resolution,
)

from conftest import FIXTURES, GOLDEN, haar_unitary, loaded

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
PZ0 = np.diag([1.0, 0.0]).astype(complex)
PZ1 = np.diag([0.0, 1.0]).astype(complex)
PXP = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
PXM = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def test_spectral_decompose_sz():
    sd = spectral_decompose(SZ)
    assert sorted(sd.eigenvalues) == [-1.0, 1.0]
    by_val = dict(zip(sd.eigenvalues, sd.projections))
    assert np.allclose(by_val[1.0], PZ0)
    assert np.allclose(by_val[-1.0], PZ1)


def test_spectral_decompose_sx():
    sd = spectral_decompose(SX)
    by_val = dict(zip(sd.eigenvalues, sd.projections))
    assert np.allclose(by_val[1.0], PXP, atol=1e-12)
    assert np.allclose(by_val[-1.0], PXM, atol=1e-12)


def test_spectral_decompose_degenerate():
    h = np.kron(SZ, np.eye(2))
    sd = spectral_decompose(h)
    assert len(sd.projections) == 2
    assert all(abs(np.trace(p).real - 2) < 1e-10 for p in sd.projections)


def test_spectral_decompose_rejects_non_hermitian():
    with pytest.raises(DomainError):
        spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_spectral_projection():
    assert np.allclose(spectral_projection(SZ, [1.0]), PZ0)
    assert np.allclose(spectral_projection(SZ, [1.0, -1.0]), np.eye(2))
    assert np.allclose(spectral_projection(SZ, []), np.zeros((2, 2)))
    assert np.allclose(spectral_projection(SX, [-1.0]), PXM)
    # a repeated outcome names its cluster once
    p = spectral_projection(SZ, [1.0, 1.0])
    assert np.allclose(p, PZ0) and is_projection(p)
    with pytest.raises(DomainError):
        spectral_projection(SZ, [0.5])


def test_chained_eigenvalue_cluster_is_rejected():
    # neighbours 0.8 tau_eig apart would chain into one cluster 1.6 tau_eig wide
    h = np.diag([0.0, 0.8 * TAU_EIG, 1.6 * TAU_EIG, 1.0]).astype(complex)
    with pytest.raises(DomainError, match="cluster spreads 1.6e-06 across 3 eigenvalues"):
        spectral_decompose(h)
    with pytest.raises(DomainError):
        QuantumModel({"H": h})
    # a cluster exactly tau_eig wide is still one cluster
    h = np.diag([0.0, 0.5 * TAU_EIG, TAU_EIG, 1.0]).astype(complex)
    assert len(spectral_decompose(h).eigenvalues) == 2


def test_value_between_two_clusters_is_rejected():
    # clusters 0 and 1.5e-6 lie within 2 * tau_eig: 0.75e-6 matches both
    h = np.diag([0.0, 1.5e-6, 1.0]).astype(complex)
    assert len(spectral_decompose(h).eigenvalues) == 3
    with pytest.raises(DomainError, match="matches 2 eigenvalue clusters"):
        spectral_projection(h, [0.75e-6])
    m = QuantumModel({"H": h})
    with pytest.raises(DomainError, match="matches 2 eigenvalue clusters of 'H'"):
        m.elementary("H", [0.75e-6])
    assert np.allclose(spectral_projection(h, [1.5e-6]), np.diag([0, 1, 0]))
    assert m.elementary("H", [1.5e-6]).value == frozenset({"H=1.5e-06"})


def test_generated_context_recalibration_invariant():
    c1 = generated_context(SZ, "A")
    c2 = generated_context(5 * SZ + 2 * np.eye(2), "B")
    assert same_atoms(c1.atoms, c2.atoms)
    c3 = generated_context(-3 * SZ, "C")
    assert same_atoms(c1.atoms, c3.atoms)


def test_generated_context_identity_is_trivial():
    c = generated_context(np.eye(3, dtype=complex), "I")
    assert len(c.atoms) == 1
    assert np.allclose(c.atoms[0], np.eye(3))


def test_generated_context_nondegenerate():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (a + a.conj().T) / 2
    c = generated_context(h, "H")
    assert len(c.atoms) == 3
    assert validate_resolution(c.atoms) == []
    assert all(abs(np.trace(p).real - 1) < 1e-8 for p in c.atoms)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generated_context(np.diag([1.0, -1.0])),
        lambda: spectral_decompose(SZ),
        lambda: QuantumModel({"Sz": SZ}),
        lambda: BellScenario.from_angles(*DEFAULT_ANGLES),
        orthodox_distributivity_witness,
        lambda: build_chsh_frame(BellScenario.from_angles(*DEFAULT_ANGLES)),
    ],
    ids=[
        "QuantumContext", "SpectralData", "QuantumModel", "BellScenario", "DistributivityWitness",
        "ChshFrame",
    ],
)
def test_array_holders_compare_and_hash_by_identity(make):
    """Two equal decompositions are distinct objects: == neither raises on
    their arrays nor calls them equal, and each hashes, e.g. as a dict key."""
    a, b = make(), make()
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1


def test_context_atoms_are_views_of_one_stack(one_qubit_model):
    """A context holds its atoms once, as one array: the array it was given,
    or one stack of the atoms it was given; the context of an observable is
    given its spectral projections' array."""
    stack = np.stack([PXP, PXM])
    assert QuantumContext(("+", "-"), stack).atoms is stack
    ctx = QuantumContext(("0", "1"), (PZ0, PZ1))
    assert isinstance(ctx.atoms, np.ndarray)
    assert np.array_equal(ctx.atoms, [PZ0, PZ1])
    assert not hasattr(ctx, "stack")
    for name, sd in one_qubit_model.spectra.items():
        assert one_qubit_model.contexts[one_qubit_model.obs_context[name]].atoms is sd.projections


def test_repeated_outcome_names_its_atom_once(one_qubit_model):
    m = one_qubit_model
    assert m.elementary("Sz", [1.0, 1.0]) == m.elementary("Sz", [1.0])


def test_one_qubit_poset(one_qubit_model):
    m = one_qubit_model
    assert m.poset.context_ids == ("1", "Sx", "Sz")
    assert m.poset.meet_contexts("Sz", "Sx") == "1"
    assert m.poset.try_join_contexts("Sz", "Sx") is None
    assert m.poset.validate() == []


def test_two_qubit_commuting_join(two_qubit_zz_model):
    m = two_qubit_zz_model
    assert len(m.poset.context_ids) == 4
    join = m.poset.try_join_contexts("ZA", "ZB")
    assert join == "ZA*ZB"
    assert len(m.poset.algebra(join).atoms) == 4
    assert m.poset.leq("ZA", join) and m.poset.leq("ZB", join)
    assert m.poset.validate() == []


def test_context_atoms_are_resolutions(two_qubit_zz_model, one_qubit_model):
    for model in (two_qubit_zz_model, one_qubit_model):
        for cid, ctx in model.contexts.items():
            assert validate_resolution(ctx.atoms) == []


def test_single_observable_poset():
    m = QuantumModel({"Sz": SZ})
    assert len(m.poset.context_ids) == 2


def test_quantum_elementary(one_qubit_model):
    m = one_qubit_model
    e = m.elementary("Sz", [1.0])
    assert e.context == "Sz" and e.value == frozenset({"Sz=1"})
    assert m.elementary("Sz", []) is BOTTOM
    full = m.elementary("Sz", [1.0, -1.0])
    assert full.value == frozenset({"Sz=1", "Sz=-1"})
    # local top is not the global top
    assert m.frame.embed_elementary(full) != m.frame.top()
    with pytest.raises(DomainError):
        m.elementary("Sz", [3.0])
    with pytest.raises(DomainError):
        m.elementary("Sy", [1.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        QuantumModel({"A": SZ, "B": np.eye(3, dtype=complex)})


@pytest.mark.parametrize("option", ["tau_herm", "tau_proj", "tau_eig"])
@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1e-8])
def test_unusable_tolerance_rejected(option, tau):
    with pytest.raises(DomainError, match=f"^option '{option}' must be finite and at least 0, got "):
        QuantumModel({"Sz": SZ}, **{option: tau})


@pytest.mark.parametrize("option", ["tau_herm", "tau_proj", "tau_eig"])
@pytest.mark.parametrize("tau", [10**400, -(10**400)])
def test_tolerance_past_the_float_range_rejected(option, tau):
    with pytest.raises(DomainError, match=f"^option '{option}' is past the float range$"):
        QuantumModel({"Sz": SZ}, **{option: tau})


@pytest.mark.parametrize("entry", [10**400, -(10**400)])
def test_matrix_entry_past_the_float_range_rejected(entry):
    with pytest.raises(DomainError, match="^observable 'A' has an entry past the float range$"):
        QuantumModel({"A": [[0.5, entry], [entry, 1j]]})


# observables numpy cannot read as a complex array, or whose array is no
# non-empty square matrix; each once raised a bare numpy error or, for the
# 1x1x1 array, built a model
UNREADABLE_OBSERVABLES = {
    "ragged list": [[1, 0], [0]],
    "string": "abc",
    "object": {"a": 1},
}
MISSHAPEN_OBSERVABLES = {
    "0x0 array": np.zeros((0, 0)),
    "scalar": 1.0,
    "numeric string": "1",
    "1-D list": [1.0, -1.0],
    "2x3 array": np.zeros((2, 3)),
    "2x2x2 array": np.zeros((2, 2, 2)),
    "1x1x1 array": np.ones((1, 1, 1)),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_OBSERVABLES))
def test_unreadable_observable_rejected(case):
    with pytest.raises(DomainError, match="^observable 'A' is not an array of numbers$"):
        QuantumModel({"A": UNREADABLE_OBSERVABLES[case]})


@pytest.mark.parametrize("case", sorted(MISSHAPEN_OBSERVABLES))
def test_observable_that_is_no_non_empty_square_matrix_rejected(case):
    shape = np.shape(MISSHAPEN_OBSERVABLES[case])
    with pytest.raises(DomainError) as raised:
        QuantumModel({"Sz": SZ, "A": MISSHAPEN_OBSERVABLES[case]})
    assert str(raised.value) == f"observable 'A' must be a non-empty square matrix, got shape {shape}"


@pytest.mark.parametrize("option", TOLERANCES)
@pytest.mark.parametrize("tau", ["abc", "1e-3", None, [1e-3], True, 1j], ids=repr)
def test_tolerance_that_is_no_number_rejected(option, tau):
    # each once raised a bare ValueError or TypeError, or, for a bool or a
    # numeric string, was taken as a number; worded as the CLI once did
    with pytest.raises(DomainError) as raised:
        QuantumModel({"Sz": SZ}, **{option: tau})
    assert str(raised.value) == f"option {option!r} must be a number, got {tau!r}"


# each once raised a bare IndexError, numpy ValueError, AttributeError or AxisError
MALFORMED_MATRIX_CALLS = {
    "1-D spectral_decompose": (
        lambda: spectral_decompose(np.array([1.0, -1.0])),
        "matrix must be a non-empty square matrix, got shape (2,)",
    ),
    "0x0 spectral_decompose": (
        lambda: spectral_decompose(np.zeros((0, 0))),
        "matrix must be a non-empty square matrix, got shape (0, 0)",
    ),
    "non-finite spectral_decompose": (
        lambda: spectral_decompose([[np.nan, 0], [0, 1]]),
        "matrix has a non-finite entry",
    ),
    "1-D spectral_projection": (
        lambda: spectral_projection(np.ones(3), [1.0]),
        "matrix must be a non-empty square matrix, got shape (3,)",
    ),
    "string generated_context": (
        lambda: generated_context("abc"),
        "matrix is not an array of numbers",
    ),
    "empty validate_resolution": (
        lambda: validate_resolution([]),
        "atoms must be a stack of non-empty square matrices, got shape (0,)",
    ),
    "2-D validate_resolution": (
        lambda: validate_resolution(PZ0),
        "atoms must be a stack of non-empty square matrices, got shape (2, 2)",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MATRIX_CALLS))
def test_public_entry_points_refuse_malformed_matrices(case):
    call, message = MALFORMED_MATRIX_CALLS[case]
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


def test_generated_context_takes_a_nested_list():
    ctx = generated_context([[1, 0], [0, 2]])
    assert ctx.atom_names == ("A=1", "A=2")
    assert validate_resolution(ctx.atoms) == []
    assert validate_resolution(np.zeros((0, 2, 2))) == ["atoms do not sum to the identity"]


@pytest.mark.parametrize("value", ["a", "1", None, True, 1j, [1.0]], ids=repr)
def test_a_value_that_is_no_real_number_rejected(value):
    # "a" once raised a bare ValueError and None a TypeError; "1" and True
    # were read as 1
    m = QuantumModel({"Sz": SZ})
    for call in (lambda: m.elementary("Sz", [1.0, value]), lambda: spectral_projection(SZ, [value])):
        with pytest.raises(DomainError) as raised:
            call()
        assert str(raised.value) == f"value {value!r} is not a real number"
    assert m.elementary("Sz", [np.float64(1.0), -1]).value == frozenset({"Sz=1", "Sz=-1"})


def test_tolerances_are_held_as_floats():
    m = QuantumModel({"Sz": SZ}, tau_herm=0, tau_proj=np.float32(0.25), tau_eig=1)
    taus = (m.tau_herm, m.tau_proj, m.tau_eig)
    assert [(type(t), t) for t in taus] == [(float, 0.0), (float, 0.25), (float, 1.0)]


def test_zero_tolerance_accepted():
    m = QuantumModel({"Sz": SZ}, tau_herm=0, tau_proj=0, tau_eig=0)
    assert len(m.poset.context_ids) == 2


def test_equivalent_observables_share_context():
    m = QuantumModel({"Sz": SZ, "Sz2": 5 * SZ + 2 * np.eye(2)})
    assert m.obs_context["Sz"] == m.obs_context["Sz2"]
    assert len(m.poset.context_ids) == 2


def test_random_hermitian_hygiene():
    rng = np.random.default_rng(42)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        sd = spectral_decompose(h)
        assert validate_resolution(sd.projections) == []
        scale = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
        shift = float(rng.uniform(-2.0, 2.0))
        c1 = generated_context(h, "A")
        c2 = generated_context(scale * h + shift * np.eye(dim), "B")
        assert same_atoms(c1.atoms, c2.atoms)


def test_classical_bridge_figure1(figure1_model):
    qmodel, report = classical_bridge(figure1_model)
    assert report.isomorphic
    assert report.section_count_classical == 5
    assert report.section_count_quantum == 5


def test_classical_bridge_crossing(crossing_model):
    qmodel, report = classical_bridge(crossing_model)
    assert report.isomorphic
    assert report.section_count_classical == report.section_count_quantum == 48
    assert len(qmodel.poset.context_ids) == 4


@pytest.mark.parametrize(
    "path",
    [
        GOLDEN / "xz3_seed0.json",
        GOLDEN / "xyz2_seed0.json",
        GOLDEN / "degenerate5_tau1e-3_seed13.json",
        FIXTURES / "one_qubit.json",
    ],
    ids=lambda p: p.stem,
)
def test_counts_hold_across_the_tolerance_range(path):
    """The same contexts, points and covers, and a poset that validates,
    at every tau_proj from 1e-14 to 1e-1."""
    observables = loaded(path).observables
    counts = set()
    for tau in (1e-14, 1e-12, 1e-8, 1e-4, 1e-2, 1e-1):
        model = QuantumModel(observables, tau_proj=tau)
        poset = model.poset
        assert poset.validate() == [], tau
        counts.add((len(model.contexts), len(poset.point_table.points), len(poset.covers())))
    assert len(counts) == 1, counts


def projection_family(seed: int) -> dict:
    """2-3 observables U diag(v) U^dagger on C^3..C^5 with 0/1 eigenvalues v,
    each with its own Haar-random U, all drawn from default_rng(seed)."""
    g = np.random.default_rng(seed)
    dim = int(g.integers(3, 6))
    observables = {}
    for k in range(int(g.integers(2, 4))):
        u = haar_unitary(g, dim)
        observables[f"O{k}"] = u @ np.diag(g.integers(0, 2, dim).astype(float)) @ u.conj().T
    return observables


def projection_families():
    """projection_family of a drawn seed.  At tau_proj = 0.3 about one
    closure in twelve is no partial order, equality and order being two
    decisions there, and its build must be refused."""
    return st.integers(0, 2**32 - 1).map(projection_family)


@settings(max_examples=200, deadline=None)
@given(observables=projection_families())
def test_a_build_is_refused_or_valid_at_every_tolerance(observables):
    """No build hands over a poset that fails its own check: at each
    tau_proj it raises StructureError or validates."""
    for tau in (1e-8, 1e-2, 0.1, 0.3):
        try:
            model = QuantumModel(observables, tau_proj=tau)
        except StructureError:
            continue
        assert model.poset.validate() == [], tau


def test_a_closure_missing_a_comparable_pair_is_refused_at_a_large_tolerance():
    """Seed 844 at tau_proj = 0.3: every map the closure records is an
    embedding and every path composes, so the poset takes them, but the
    closure records O1 <= O1*O2 <= O0*O2 and not O1 <= O0*O2.  It promises
    every comparable pair, so _build refuses the first chain that breaks
    the promise."""
    with pytest.raises(StructureError) as raised:
        QuantumModel(projection_family(844), tau_proj=0.3)
    assert str(raised.value) == "order not transitive at 'O1' <= 'O1*O2' <= 'O0*O2'"
