"""The quantum context closure against definitional oracles.

The oracles decide each relation between two contexts from its
definition: the meet's atoms are the minimal non-zero projections that
are sums of atoms of both contexts (exhaustive over the subsets of the
first context's atoms), c1 <= c2 iff every atom of c1 is the sum of the
atoms of c2 below it, an atom of c1 embeds as the atoms of c2 below it,
two contexts commute iff p q = q p for every pair of atoms, and the join
of a commuting pair has the non-zero atom products as atoms.  The closure's
fast paths are checked against oracles of their own: the hashed dedup
against a scan of every stored context, the commutation read from the
overlap products against the pairwise commutators, the vectorised meet
atom order against a per-atom sort key, the meet and join dedup, which
settles a candidate before building it, against the scan, the meet memo
against the fresh settle it skips, the order and embeddings read from the
overlap graph's row masks against the graph's row and column sums, the
component masks against a reachability closure, the tabled same_atoms
and batched validate_resolution against their pairwise loops, the
overlap graphs and non-commutation certified from Gram blocks against the
products of _overlap and _commute they replace, and the one chunker of
the closure's batches against the three loops it replaced.  The elementary
propositions, looked up from the clusters' atoms fixed at build, are
checked against the atoms under the summed spectral projections.
"""

import itertools
import math
import tracemalloc
from collections import Counter

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
from qlogic import gram, quantum
from qlogic.bell import BellScenario, build_chsh_frame
from qlogic.cli import load_model
from qlogic.errors import StructureError
from qlogic.gram import _bases_of, _certificates, _runs
from qlogic.quantum import (
    TAU_PROJ,
    QuantumContext,
    _atom_order,
    _batches,
    _components,
    _embeddings,
    _issues,
    _maxabs,
    _products,
    _row_masks,
    is_projection,
    same_atoms,
    spectral_projection,
    validate_resolution,
)
from qlogic.sections import ElementaryProposition

from conftest import FIXTURES, GOLDEN, SZ, loaded
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


def contexts_commute(c1, c2, tol=TAU_PROJ) -> bool:
    return all(_maxabs(p @ q - q @ p) <= tol for p in c1.atoms for q in c2.atoms)


def _overlap(c1, c2, tol):
    """All atom products prods[i, j] = p_i q_j of one pair of contexts, made
    as the pair's own batch, and the overlap graph ||p_i q_j||_max > tol."""
    prods = np.matmul(c1.atoms[:, None], c2.atoms[None])
    return prods, np.abs(prods).max(axis=(2, 3)) > tol


def _commute(prods: np.ndarray, tol: float) -> bool:
    """Whether the atoms whose products _overlap returned commute within tol,
    p q - (p q)^dagger = p q - q p for Hermitian p and q, the first atom's
    products tested alone first, as the closure once did per pair."""
    first = prods[:1]
    if _maxabs(first - first.conj().swapaxes(-1, -2)) > tol:
        return False
    return _maxabs(prods - prods.conj().swapaxes(-1, -2)) <= tol


def products_of(model, a: str, b: str):
    """The closure's products, graph and commutation of one pair."""
    [got] = _products([(model.contexts[a], model.contexts[b])], model.tau_proj)
    return got


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
                commute = contexts_commute(ca, cb)
                assert products_of(model, a, b)[2] == commute, (a, b)
                if commute:
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


@st.composite
def degenerate_families(draw) -> dict:
    """Degenerate observables diagonal in one random basis, some with a few
    pairs of neighbouring basis vectors rotated, so that they share the
    other blocks only."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(3, 5))
    u = haar_unitary(g, dim)
    observables = {}
    for k in range(draw(st.integers(2, 3))):
        values = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
        v = u
        for i in draw(st.lists(st.integers(0, dim - 2), max_size=2)):
            w = np.eye(dim, dtype=complex)
            w[i : i + 2, i : i + 2] = haar_unitary(g, 2)
            v = v @ w
        observables[f"O{k}"] = v @ np.diag(np.array(values, float)) @ v.conj().T
    return observables


@settings(max_examples=8, deadline=None)
@given(observables=degenerate_families())
def test_families_sharing_degenerate_blocks_match_oracle(observables):
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


# -- the closure's fast paths against their oracles -----------------------------------


def oracle_find_equal(model: QuantumModel, ctx) -> str | None:
    """The earliest stored context with the same atoms: a scan of all."""
    for cid, existing in model.contexts.items():
        if same_atoms(ctx.atoms, existing.atoms, model.tau_proj):
            return cid
    return None


def rotation(ctx, g: np.random.Generator):
    """size -> ctx conjugated by exp(i t H) for one random Hermitian H, with
    t such that the atoms move by about `size` in max-abs (to first order)."""
    dim = ctx.atoms[0].shape[0]
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    w, v = np.linalg.eigh(a + a.conj().T)

    def conjugate(t):
        u = (v * np.exp(1j * t * w)) @ v.conj().T
        return tuple(u @ p @ u.conj().T for p in ctx.atoms)

    unit = max(_maxabs(q - p) for p, q in zip(ctx.atoms, conjugate(1e-6))) / 1e-6
    return lambda size: QuantumContext(ctx.atom_names, conjugate(size / unit))


def across_a_wall(model: QuantumModel, ctx, g: np.random.Generator):
    """Two copies of ctx, turned along one direction to either side of a wall
    between two cells of the dedup grid, about 0.1 tau_proj apart."""
    tau, key = model.tau_proj, model._key(ctx.atoms)
    for _ in range(10):
        turn = rotation(ctx, g)
        lo, hi = 0.0, tau
        while model._key(turn(hi).atoms) == key and hi < 0.5:
            lo, hi = hi, 2 * hi
        if hi < 0.5:
            break
    else:
        raise AssertionError("no turn reaches a wall")
    while hi - lo > 0.01 * tau:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if model._key(turn(mid).atoms) == key else (lo, mid)
    return turn(lo - 0.05 * tau), turn(hi + 0.05 * tau)


def shared_blocks_model(seed: int) -> QuantumModel:
    """Three degenerate observables on C^4, two diagonal in one random basis
    and one in that basis with its middle two vectors turned."""
    g = np.random.default_rng(seed)
    u = haar_unitary(g, 4)
    v = u.copy()
    v[:, 1:3] = v[:, 1:3] @ haar_unitary(g, 2)
    return QuantumModel(
        {
            f"O{k}": w @ np.diag(g.integers(0, 3, size=4)) @ w.conj().T
            for k, w in enumerate([u, v, u])
        }
    )


DEDUP_MODELS = {
    "xyz2": lambda: local_pauli_model(2, "XYZ", 11),
    "xz3": lambda: local_pauli_model(3, "XZ", 12),
    **{f"blocks{k}": lambda k=k: shared_blocks_model(13 + k) for k in range(3)},
    # tau_proj = 1e-3 makes the cells coarse
    "chsh_tau_1e-3": lambda: QuantumModel(
        build_chsh_frame(BellScenario.from_angles(0, 45, 22.5, 67.5)).model.observables,
        tau_proj=1e-3,
    ),
}


@pytest.mark.parametrize("name", sorted(DEDUP_MODELS))
def test_find_equal_matches_a_scan_of_every_context(monkeypatch, name):
    model = DEDUP_MODELS[name]()
    g = np.random.default_rng(len(model.contexts))
    tau = model.tau_proj
    for cid, ctx in model.contexts.items():
        assert model._find_equal(ctx.atoms, model._key(ctx.atoms)) == cid
    # every rotation fixes the identity: turn the other contexts
    stored = [(cid, ctx) for cid, ctx in model.contexts.items() if len(ctx.atoms) > 1]
    queries = []
    for cid, ctx in stored:
        turn = rotation(ctx, g)
        near, far = turn(0.1 * tau), turn(10 * tau)
        assert model._find_equal(near.atoms, model._key(near.atoms)) == oracle_find_equal(model, near) == cid
        assert model._find_equal(far.atoms, model._key(far.atoms)) is oracle_find_equal(model, far) is None
        queries += [turn(0.6 * tau), turn(1.4 * tau)]
    # store copies past the dedup, so that a query may match several contexts
    # in several cells (the earliest must come back), and copies next to a
    # cell wall, each queried from the far side of the wall
    walls = []
    with monkeypatch.context() as m:
        m.setattr(QuantumModel, "_find_equal", lambda self, atoms, key: None)
        for cid, ctx in stored:
            copy = rotation(ctx, g)(0.6 * tau)
            model._settle(model._key(copy.atoms), copy.atoms, lambda: (f"{cid}#copy", copy))
            inside, outside = across_a_wall(model, ctx, g)
            settled = model._settle(model._key(inside.atoms), inside.atoms, lambda: (f"{cid}#wall", inside))
            walls.append((settled, outside))
    for q in queries:
        assert model._find_equal(q.atoms, model._key(q.atoms)) == oracle_find_equal(model, q)
    for cid, q in walls:
        assert model._key(q.atoms) != model._key(model.contexts[cid].atoms)
        assert model._find_equal(q.atoms, model._key(q.atoms)) == oracle_find_equal(model, q) == cid


def oracle_atom_sort_key(p: np.ndarray) -> tuple:
    """Rank, moment sum_i i p_ii and entries, rounded to 6 digits."""
    rank = int(round(float(np.real(np.trace(p)))))
    pos = np.arange(p.shape[0])
    moment = float(np.real(np.sum(np.diag(p) * pos)))
    flat = np.round(p, 6)
    return (rank, round(moment, 6), tuple(flat.real.ravel()), tuple(flat.imag.ravel()))


def atom_basis(g: np.random.Generator, dim: int, kind: str) -> np.ndarray:
    """A Haar-random basis, or a flat one (|u_ij|^2 = 1/dim, so that atoms of
    one rank tie on the moment), or a flat one turned by about 1e-4 (the
    moments then differ past the third digit)."""
    if kind == "haar":
        return haar_unitary(g, dim)
    k = np.arange(dim)
    u = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
    u = np.exp(1j * g.uniform(0, 2 * np.pi, (dim, 1))) * u * np.exp(1j * g.uniform(0, 2 * np.pi, dim))
    if kind == "nudged":
        a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
        w, v = np.linalg.eigh(a + a.conj().T)
        u = (v * np.exp(1e-4j * w)) @ v.conj().T @ u
    return u


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3, 4, 8, 16]),
    kind=st.sampled_from(["haar", "flat", "nudged"]),
)
def test_atom_order_matches_the_per_atom_sort_key(seed, dim, kind):
    """Sums of the projections onto blocks of basis vectors, in the order
    of the per-atom key."""
    g = np.random.default_rng(seed)
    u = atom_basis(g, dim, kind)
    cuts = np.sort(g.choice(np.arange(1, dim), min(dim - 1, 4), replace=False))
    atoms = [u[:, b] @ u[:, b].conj().T for b in np.split(g.permutation(dim), cuts)]
    want = sorted(range(len(atoms)), key=lambda i: oracle_atom_sort_key(atoms[i]))
    assert _atom_order(np.stack(atoms)) == want


def conjugated(observables: dict, u: np.ndarray) -> dict:
    return {k: u @ m @ u.conj().T for k, m in observables.items()}


def shape(model: QuantumModel):
    poset = model.poset
    ids = poset.context_ids
    return (
        [(c, model.contexts[c].atom_names) for c in ids],
        [(a, b) for a in ids for b in ids if poset.leq(a, b)],
        poset.covers(),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: local_pauli_model(2, "XZ", 21),
        lambda: local_pauli_model(2, "XYZ", 22),
        lambda: local_pauli_model(3, "XZ", 23),
        lambda: build_chsh_frame(BellScenario.from_angles(10, 55, 30, 100)).model,
    ],
    ids=["xz2", "xyz2", "xz3", "chsh"],
)
def test_build_is_invariant_under_a_global_unitary(make):
    model = make()
    g = np.random.default_rng(24)
    for _ in range(3):
        u = haar_unitary(g, model.dim)
        assert shape(QuantumModel(conjugated(model.observables, u))) == shape(model)


# -- dedup before build, components, and the tabled resolution checks -------------


def closure_components(edges: np.ndarray) -> set:
    """The c1-atom indices of each component of an overlap graph, from its
    reachability matrix squared until it stops growing."""
    reach = edges @ edges.T
    while True:
        grown = reach @ reach
        if np.array_equal(grown, reach):
            return {tuple(np.flatnonzero(row).tolist()) for row in reach}
        reach = grown


@st.composite
def overlap_graphs(draw):
    """n1 x n2 boolean graphs in which every row and column has an edge, as
    in an overlap graph: random ones, or disjoint chains p - q - p - q ...
    with their rows and columns shuffled."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        edges = g.random((n1, n2)) < draw(st.floats(0.0, 0.6))
        edges[np.arange(n1), g.integers(0, n2, n1)] = True
        edges[g.integers(0, n1, n2), np.arange(n2)] = True
        return edges
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    n1 = sum(lengths)
    edges = np.zeros((n1, n1), dtype=bool)
    start = 0
    for length in lengths:
        for i in range(start, start + length):
            edges[i, i] = True
            if i > start:
                edges[i, i - 1] = True
        start += length
    return edges[g.permutation(n1)][:, g.permutation(n1)]


def masks(comps) -> tuple:
    """Each tuple of indices as a mask, in order of their least index."""
    return tuple(sum(1 << i for i in c) for c in sorted(comps))


@settings(max_examples=80, deadline=None)
@given(edges=overlap_graphs())
def test_components_match_the_reachability_closure(edges):
    assert _components(_row_masks(edges)) == masks(closure_components(edges))


@st.composite
def wide_graphs(draw):
    """n1 x n2 boolean graphs of up to 130 columns: each column linked to one
    random row, each row to one random column, or random edges; then maybe
    a row or a column emptied, or one edge flipped."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n1, n2 = draw(st.integers(1, 8)), draw(st.sampled_from([1, 2, 7, 63, 64, 65, 130]))
    kind = draw(st.sampled_from(["columns", "rows", "random"]))
    edges = np.zeros((n1, n2), dtype=bool)
    if kind == "columns":
        edges[g.integers(0, n1, n2), np.arange(n2)] = True
    elif kind == "rows":
        edges[np.arange(n1), g.integers(0, n2, n1)] = True
    else:
        edges = g.random((n1, n2)) < draw(st.floats(0.0, 0.6))
    fault = draw(st.sampled_from(["none", "row", "column", "flip"]))
    if fault == "row":
        edges[g.integers(n1)] = False
    elif fault == "column":
        edges[:, g.integers(n2)] = False
    elif fault == "flip":
        i, j = g.integers(n1), g.integers(n2)
        edges[i, j] = not edges[i, j]
    return edges


@settings(max_examples=150, deadline=None)
@given(edges=st.one_of(overlap_graphs(), wide_graphs()))
def test_mask_reading_matches_the_numpy_reading(edges):
    """c1 <= c2 iff every column has one edge, c2 <= c1 iff every row has
    one, and the embeddings are the rows of the graph or of its transpose."""
    rows = _row_masks(edges)
    assert rows == [sum(1 << j for j, linked in enumerate(row) if linked) for row in edges.tolist()]
    up, down = _embeddings(rows, edges.shape[1])
    assert (up is not None) == bool(np.all(edges.sum(axis=0) == 1))
    assert (down is not None) == bool(np.all(edges.sum(axis=1) == 1))
    if up is not None:
        assert up == rows
    if down is not None:
        assert down == _row_masks(edges.T)


def incomparable_pairs(model):
    """(a, b, prods, edges) for each pair of stored contexts that the closure
    takes a meet of: neither below the other."""
    for a, b in itertools.combinations(sorted(model.contexts), 2):
        prods, e = _overlap(model.contexts[a], model.contexts[b], model.tau_proj)
        if not (np.all(e.sum(axis=0) == 1) or np.all(e.sum(axis=1) == 1)):
            yield a, b, prods, e


def probe_f(model, atoms) -> float:
    x = [float(np.real(model._probe.conj() @ p @ model._probe)) for p in atoms]
    return sum(min(max(v, 0.0), 1.0) ** 2 for v in x)


def check_dedup_before_build(model):
    """Each meet and join candidate of a closed model is stored already: the
    dedup, keyed from the candidate's own atoms as the closure keys it (a
    meet's unsorted sums, a join's products), must return what a scan of
    every context does and store nothing.  The meet memo is
    emptied before each meet, so that the dedup itself answers."""
    ids = list(model.contexts)
    for a, b, prods, e in incomparable_pairs(model):
        ca = model.contexts[a]
        atoms = [sum(ca.atoms[i] for i in comp) for comp in closure_components(e)]
        meet = QuantumContext(tuple(f"m{i}" for i in range(len(atoms))), atoms)
        want = oracle_find_equal(model, meet)
        assert want is not None
        model._meets.clear()
        assert model._add_meet(a, b, _components(_row_masks(e))) == want, (a, b)
        got, edges, commute = products_of(model, a, b)
        if commute:
            join = QuantumContext(tuple(map(str, range(e.sum()))), prods[e])
            new = lambda: (f"{a}*{b}#new", join)
            settled = model._settle(model._key(got[edges]), got[edges], new)
            assert settled == oracle_find_equal(model, join), (a, b)
    assert list(model.contexts) == ids


@pytest.mark.parametrize("name", sorted(DEDUP_MODELS))
def test_dedup_before_build_matches_a_scan(name):
    check_dedup_before_build(DEDUP_MODELS[name]())


@settings(max_examples=8, deadline=None)
@given(observables=degenerate_families())
def test_dedup_before_build_matches_a_scan_on_random_families(observables):
    """At tau_proj = 1e-3, whose coarse cells hold more contexts each."""
    check_dedup_before_build(QuantumModel(observables, tau_proj=1e-3))


def built(model: QuantumModel):
    """Everything the closure made: the contexts in store order, with their
    atom names and atoms, the order pairs and their embeddings."""
    poset = model.poset
    ids = poset.context_ids
    order = [(a, b) for a in ids for b in ids if poset.leq(a, b)]
    return (
        [(cid, ctx.atom_names, ctx.atoms.tobytes()) for cid, ctx in model.contexts.items()],
        order,
        [poset._images[poset._bit[a], poset._bit[b]] for a, b in order],
    )


def check_meet_memo(make):
    """The model that make() builds equals the one built with the meet memo
    emptied before each meet, which settles every candidate afresh; the memo
    holds one entry per distinct (context, components) the closure met."""
    add_meet = QuantumModel._add_meet
    keys = []

    def spy(self, a, b, comps):
        keys.append((a, comps))
        return add_meet(self, a, b, comps)

    def fresh(self, a, b, comps):
        self._meets.clear()
        return add_meet(self, a, b, comps)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(QuantumModel, "_add_meet", spy)
        model = make()
        m.setattr(QuantumModel, "_add_meet", fresh)
        unmemoised = make()
    assert built(model) == built(unmemoised)
    assert len(model._meets) == len(set(keys))
    return keys


@pytest.mark.parametrize("name", sorted(DEDUP_MODELS))
def test_meet_memo_matches_the_fresh_settle(name):
    keys = check_meet_memo(DEDUP_MODELS[name])
    if name in ("xyz2", "xz3"):
        assert len(set(keys)) < len(keys)


@settings(max_examples=8, deadline=None)
@given(observables=degenerate_families())
def test_meet_memo_matches_the_fresh_settle_on_random_families(observables):
    """At tau_proj = 1e-3, where a near match is found most often."""
    check_meet_memo(lambda: QuantumModel(observables, tau_proj=1e-3))


def test_meet_dedup_finds_its_match_across_a_cell_wall():
    """The meet of O0 and O1 is keyed just above a cell wall (tau_proj is
    set so), and an extra observable W generates that meet
    turned by at most 0.9 tau_proj to just below the wall: the closure must
    take W, from the neighbouring cell, as the meet and store nothing new."""
    for seed in range(13, 60):
        obs = {k: m for k, m in shared_blocks_model(seed).observables.items() if k != "O2"}
        model = QuantumModel(obs, tau_proj=1e-3)
        if "(O0^O1)" in model.contexts:
            break
    else:
        raise AssertionError("no seed gives a new meet of O0 and O1")
    n, f = len(model.contexts["(O0^O1)"].atoms), probe_f(model, model.contexts["(O0^O1)"].atoms)
    rounding = model.dim**3 * 2**-44  # the cell width's allowance, see QuantumModel._key
    below = math.floor(f / (4 * n * model.dim * 1e-3 + rounding))
    tau = (f / (below + 0.02) - rounding) / (4 * n * model.dim)
    model = QuantumModel(obs, tau_proj=tau)
    meet = model.contexts["(O0^O1)"]
    key = model._key(meet.atoms)
    assert key == (n, below)
    g = np.random.default_rng(seed)
    for _ in range(200):
        turned = rotation(meet, g)(g.uniform(0.3, 0.9) * tau)
        if model._key(turned.atoms) == (n, below - 1) and same_atoms(turned.atoms, meet.atoms, tau):
            break
    else:
        raise AssertionError("no turn crosses the wall")
    w = sum((k + 1) * p for k, p in enumerate(turned.atoms))
    walled = QuantumModel({**obs, "W": w}, tau_proj=tau)
    assert walled._key(walled.contexts["W"].atoms) == (n, below - 1)
    assert oracle_find_equal(walled, meet) == "W"
    assert walled.poset.meet_contexts("O0", "O1") == "W"
    assert "(O0^O1)" not in walled.contexts


def loop_same_atoms(atoms1, atoms2, tol=TAU_PROJ) -> bool:
    """Greedy matching, one max-abs difference at a time."""
    if len(atoms1) != len(atoms2):
        return False
    remaining = list(atoms2)
    for p in atoms1:
        for i, q in enumerate(remaining):
            if _maxabs(p - q) <= tol:
                del remaining[i]
                break
        else:
            return False
    return True


def loop_validate_resolution(atoms, tol=TAU_PROJ) -> list:
    """The issues of a resolution of the identity, one atom and pair at a time."""
    issues = []
    dim = atoms[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(atoms):
        if not is_projection(p, tol):
            issues.append(f"atom {i} is not a projection")
        if _maxabs(p) <= tol:
            issues.append(f"atom {i} is zero")
        total = total + p
        for j in range(i + 1, len(atoms)):
            if _maxabs(p @ atoms[j]) > tol:
                issues.append(f"atoms {i},{j} are not orthogonal")
    if _maxabs(total - np.eye(dim)) > tol:
        issues.append("atoms do not sum to the identity")
    return issues


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3, 4, 8]),
    fault=st.sampled_from(
        ["none", "turn", "scale", "zero", "merge", "repeat", "drop", "swap", "noise"]
    ),
    tol=st.sampled_from([TAU_PROJ, 1e-3, 0.3, 0.0, -1.0]),
)
def test_tabled_checks_match_their_loops(seed, dim, fault, tol):
    """Resolutions into blocks of a random basis, one of them faulted: an
    atom turned, scaled or zeroed, two atoms overlapped, an atom in place of
    another, an atom dropped, the atoms reversed, or noise of about 1e-4 on
    all."""
    g = np.random.default_rng(seed)
    u = haar_unitary(g, dim)
    cuts = np.sort(g.choice(np.arange(1, dim), g.integers(1, dim), replace=False))
    atoms = [u[:, b] @ u[:, b].conj().T for b in np.split(g.permutation(dim), cuts)]
    other = list(atoms)
    k = int(g.integers(len(atoms)))
    if fault == "turn":
        other[k] = rotation(QuantumContext(("a",), (atoms[k],)), g)(10 ** g.uniform(-9, -1)).atoms[0]
    elif fault == "scale":
        other[k] = atoms[k] * g.uniform(0.5, 1.5)
    elif fault == "zero":
        other[k] = np.zeros_like(atoms[k])
    elif fault == "merge":
        other[k] = atoms[k] + atoms[(k + 1) % len(atoms)]
    elif fault == "repeat":
        other[k] = atoms[(k + 1) % len(atoms)]
    elif fault == "drop" and len(atoms) > 1:
        del other[k]
    elif fault == "swap":
        other.reverse()
    elif fault == "noise":
        other = [p + 1e-4 * g.normal(size=p.shape) for p in atoms]
    assert validate_resolution(other, tol) == loop_validate_resolution(other, tol)
    assert same_atoms(other, atoms, tol) == loop_same_atoms(other, atoms, tol)
    assert same_atoms(atoms, other, tol) == loop_same_atoms(atoms, other, tol)


# -- the Gram certificates against the products they replace ---------------------


def grouped_context(u: np.ndarray, sizes: list[int]) -> QuantumContext:
    """The context whose atom k projects onto u's k-th group of sizes[k]
    columns."""
    cuts = np.cumsum([0, *sizes])
    atoms = np.stack([u[:, i:j] @ u[:, i:j].conj().T for i, j in zip(cuts, cuts[1:])])
    return QuantumContext(tuple(map(str, range(len(sizes)))), atoms)


def turn(v: np.ndarray, i: int, sine: float) -> np.ndarray:
    """v with its columns i and i + 1 turned by the angle of that sine."""
    c = math.sqrt(1 - sine * sine)
    v = v.copy()
    v[:, i : i + 2] = v[:, i : i + 2] @ np.array([[c, -sine], [sine, c]])
    return v


def draw_pair(draw, g: np.random.Generator, dim: int) -> tuple:
    """Two contexts on C^dim of at least two atoms of random ranks.  b's
    unitary is a's with its columns shuffled (the pair commutes), that with
    two neighbouring columns turned a little or a lot (the pair shares the
    other columns), or a fresh one."""

    def sizes() -> list[int]:
        cuts = sorted(draw(st.sets(st.integers(1, dim - 1), min_size=1, max_size=dim - 1)))
        return np.diff([0, *cuts, dim]).tolist()

    u = haar_unitary(g, dim)
    kind = draw(st.sampled_from(["shuffled", "turned", "fresh"]))
    v = haar_unitary(g, dim) if kind == "fresh" else u[:, g.permutation(dim)]
    if kind == "turned":
        v = turn(v, draw(st.integers(0, dim - 2)), draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.3])))
    return grouped_context(u, sizes()), grouped_context(v, sizes())


@st.composite
def context_pairs(draw):
    """A pair of contexts (see draw_pair) on C^dim, dim 2-8."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw_pair(draw, g, draw(st.integers(2, 8)))


@settings(max_examples=120, deadline=None)
@given(pair=context_pairs(), tol=st.sampled_from([0.0, 1e-8, 1e-3]))
def test_certificates_match_the_exact_products(pair, tol):
    """A graph the Gram blocks certify is _overlap's, and where they certify
    non-commutation _commute says no.  Neither is vacuous: a graph whose
    products all lie well outside the band (tol / dim, dim tol] is
    certified, and so is a commutator well above the threshold."""
    ca, cb = pair
    bases = _bases_of([ca, cb])
    assert None not in bases
    [(rows, apart)] = _certificates([tuple(bases)], tol)
    prods, e = _overlap(ca, cb, tol)
    if rows is not None:
        assert rows == _row_masks(e)
    if apart:
        assert not _commute(prods, tol)
    dim, nb = ca.atoms.shape[1], len(cb.atoms)
    peaks = np.abs(prods).max(axis=(2, 3))
    if np.all((peaks > 2 * dim * tol + 1e-9) | (dim * peaks < tol / 2)):
        assert rows is not None
    spread = sum(j * q for j, q in enumerate(cb.atoms))
    if max(np.linalg.norm(p @ spread - spread @ p) for p in ca.atoms) > nb**3 * dim * (tol + 1e-9):
        assert apart


@pytest.mark.parametrize("scale", [1e-9, 1e-5, 0.5])
def test_residual_measures_atoms_that_are_not_projections(scale):
    """Atoms scaled by 1 + scale keep their eigenbasis, so the residual is
    scale max|p_k| up to rounding; past 1 / (16 dim) no basis is kept, and
    the certificates of a basis kept stay the products'."""
    g = np.random.default_rng(5)
    dim = 6
    ca = grouped_context(haar_unitary(g, dim), [2, 1, 3])
    cb = grouped_context(haar_unitary(g, dim), [1, 4, 1])
    scaled = QuantumContext(ca.atom_names, (1 + scale) * ca.atoms)
    [kept], [basis] = _bases_of([ca]), _bases_of([scaled])
    off = scale * np.abs(ca.atoms).max()
    if 16 * dim * off > 1:
        assert basis is None
        return
    assert abs(basis.rho - off) < 1e-13 and basis.rho > kept.rho
    for tol in (1e-8, 1e-3):
        [(rows, apart)] = _certificates([(basis, *_bases_of([cb]))], tol)
        prods, e = _overlap(scaled, cb, tol)
        assert rows is None or rows == _row_masks(e)
        assert not apart or not _commute(prods, tol)


def test_residual_measures_atoms_that_overlap():
    """Atom 0 made from a column tilted towards atom 1's by 1e-6: the basis
    spans atom 1's range and its complement, which atom 0 misses by the
    atoms' overlap, and the residual is at least that."""
    u = haar_unitary(np.random.default_rng(6), 4)
    u[:, 0] = u[:, 0] + 1e-6 * u[:, 2]
    u[:, 0] /= np.linalg.norm(u[:, 0])
    ctx = grouped_context(u, [2, 2])
    [basis] = _bases_of([ctx])
    assert basis.rho >= np.abs(ctx.atoms[0] + ctx.atoms[1] - np.eye(4)).max() > 1e-7


def test_non_commutation_threshold_counts_the_pairs_of_atoms():
    """b's basis turns e_x towards e_(7-x) by 0.9 tol, so every [p_i, q_j]
    stays under tol and _commute says yes, while ||[p_0, sum_j j q_j]||_F
    adds up the pairs j, about 13 times 0.9 tol, past dim tol: the pair
    must not be certified apart."""
    tol, dim = 1e-3, 8
    h = np.zeros((dim, dim))
    for x in range(4):
        h[x, 7 - x] = h[7 - x, x] = 1
    w, s = np.linalg.eigh(h)
    v = s @ np.diag(np.exp(0.9j * tol * w)) @ s.T
    ca, cb = grouped_context(np.eye(dim), [4, 4]), grouped_context(v, [1] * dim)
    assert _commute(_overlap(ca, cb, tol)[0], tol)
    [(_, apart)] = _certificates([tuple(_bases_of([ca, cb]))], tol)
    assert not apart


def test_residual_measures_columns_not_orthogonal(monkeypatch):
    """Atoms made exactly from their columns, atom 0's first column tilted
    towards atom 1's by 1e-6, and eigh made to return those columns: the
    residual is the columns' own overlap, which the atoms alone do not
    show."""
    u = haar_unitary(np.random.default_rng(6), 4)
    u[:, 0] = u[:, 0] + 1e-6 * u[:, 2]
    u[:, 0] /= np.linalg.norm(u[:, 0])
    ctx = grouped_context(u, [2, 2])
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros((1, 4)), u[None]))
    [basis] = _bases_of([ctx])
    assert basis.rho >= 0.9e-6


def turned_fourier_model(dim: int, sine: float) -> dict:
    """Two non-degenerate observables, diagonal in the Fourier basis and in
    that basis with its first two vectors turned by the angle of that sine:
    the block of p_1 and q_0 has F = sine spread evenly over its dim^2
    entries, so max|p_1 q_0| is about sine / dim."""
    k = np.arange(dim)
    u = np.exp(2j * np.pi * np.outer(k, k) / dim) / math.sqrt(dim)
    spectrum = np.diag(k.astype(float))
    return {w: v @ spectrum @ v.conj().T for w, v in (("A", u), ("B", turn(u, 0, sine)))}


def closure_calls(make, gram_pairs: float) -> tuple[QuantumModel, Counter]:
    """The model make() builds when every round of at least gram_pairs
    non-trivial pairs reads Gram blocks, and the number of pairs multiplied
    (the rows of _products), of those found commuting, and of certificates
    without a graph."""
    calls: Counter = Counter()
    products, certificates = _products, _certificates

    def counted_products(pairs, tol):
        out = products(pairs, tol)
        calls["products"] += len(out)
        calls["commute_yes"] += sum(commute for _, _, commute in out)
        return out

    def counted_certificates(pairs, tol):
        out = certificates(pairs, tol)
        calls["unsure"] += sum(rows is None for rows, _ in out)
        calls["incomplete"] += sum(
            rows is not None and any(r != (1 << b.n) - 1 for r in rows)
            for (rows, _), (_, b) in zip(out, pairs)
        )
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(quantum, "_MIN_GRAM_PAIRS", gram_pairs)
        m.setattr(quantum, "_products", counted_products)
        m.setattr(quantum, "_certificates", counted_certificates)
        return make(), calls


def check_gram_matches_exact(make):
    """The model is the same, context for context and bit for bit, whether
    every round, the default rounds or no round reads Gram blocks."""
    every, _ = closure_calls(make, 1)
    exact, calls = closure_calls(make, math.inf)
    assert calls["unsure"] == 0
    assert built(every) == built(make()) == built(exact)


@pytest.mark.parametrize("name", sorted(DEDUP_MODELS))
def test_gram_closure_matches_the_exact_closure(name):
    check_gram_matches_exact(DEDUP_MODELS[name])


@settings(max_examples=8, deadline=None)
@given(observables=degenerate_families(), tau=st.sampled_from([1e-8, 1e-3]))
def test_gram_closure_matches_the_exact_closure_on_random_families(observables, tau):
    check_gram_matches_exact(lambda: QuantumModel(observables, tau_proj=tau))


@pytest.mark.parametrize("times", [5, 6, 7])
def test_blocks_between_tol_and_dim_tol_take_the_exact_path(times):
    """At dim 8 and tol 1e-3, p_1 q_0 has F = 5-7 tol, inside the band
    (tol, dim tol] that certifies neither way, while max|p_1 q_0| is under
    tol: the pair must be multiplied, and its products find no edge there."""
    tol, dim = 1e-3, 8
    observables = turned_fourier_model(dim, times * tol)
    make = lambda: QuantumModel(observables, tau_proj=tol)
    model, calls = closure_calls(make, 1)
    assert sorted(model.obs_context.values()) == ["A", "B"]
    a, b = model.contexts["A"], model.contexts["B"]
    [(rows, _)] = _certificates([tuple(_bases_of([a, b]))], tol)
    assert rows is None
    assert not _overlap(a, b, tol)[1][1, 0]
    assert calls["unsure"] == 1 and calls["products"] >= 1
    check_gram_matches_exact(make)


def test_context_with_more_atoms_than_dim_takes_the_exact_path():
    """At tau_proj = 0.3 the closure of local_pauli_model(2, "XZ", 5) on C^4
    makes a context of more atoms than dim, which gets no basis: the build
    refuses it with the all-exact build's error, in every round setting."""
    observables = local_pauli_model(2, "XZ", 5).observables
    make = lambda: QuantumModel(observables, tau_proj=0.3)
    errors = []
    for gram_pairs in (1, quantum._MIN_GRAM_PAIRS, math.inf):
        with pytest.raises(StructureError) as info:
            closure_calls(make, gram_pairs)
        errors.append(str(info.value))
    assert errors == ["context 'X0*X1*Z0*X0*X1*Z0*Z1': atoms do not sum to the identity"] * 3


def exact_diagonal_observables() -> dict:
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return {
        "Z0": np.kron(np.kron(z, eye), eye),
        "Z1": np.kron(np.kron(eye, z), eye),
        "Y": np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
        "W": np.diag([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2.0, 2.0]),
    }


def test_zero_tolerance_certifies_no_non_edge():
    """At tau_proj = 0 no block certifies a non-edge, so every pair whose
    graph is not complete is multiplied, and the build is unchanged."""
    observables = exact_diagonal_observables()
    make = lambda: QuantumModel(observables, tau_herm=0, tau_proj=0, tau_eig=0)
    model, calls = closure_calls(make, 1)
    assert calls["incomplete"] == 0 and calls["unsure"] > 0
    check_gram_matches_exact(make)


def test_products_are_made_for_join_candidates_only():
    """On the xz3 golden, the pairs multiplied are exactly the 60 join
    candidates, incomparable and not certified apart, and all commute."""
    _, calls = closure_calls(lambda: load_model(str(GOLDEN / "xz3_seed0.json")), 10)
    assert calls["products"] == calls["commute_yes"] == 60


# -- the closure's batches against their per-item oracles --------------------------


@st.composite
def product_runs(draw):
    """1-6 pairs of contexts (see draw_pair) on one C^dim, dim 2-8, so that
    a run mixes atom counts and groups of several pairs."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    return [draw_pair(draw, g, dim) for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=80, deadline=None)
@given(pairs=product_runs(), tol=st.sampled_from([0.0, 1e-8, 1e-3]))
def test_run_products_match_the_pairwise_products(pairs, tol):
    """A run's products equal each pair's own batch bit for bit, and so do
    the graph and commutation read from them."""
    for (ca, cb), (prods, edges, commute) in zip(pairs, _products(pairs, tol)):
        want, e = _overlap(ca, cb, tol)
        assert prods.tobytes() == want.tobytes()
        assert np.array_equal(edges, e)
        assert commute == _commute(want, tol)


def faulted(atoms: np.ndarray, fault: str, g: np.random.Generator) -> np.ndarray:
    """The stack with one atom scaled, zeroed, merged with the next, or put
    in place of the next (a lone atom is scaled): never a resolution of the
    identity."""
    out = atoms.copy()
    k = int(g.integers(len(atoms)))
    if fault == "scale" or len(atoms) == 1:
        out[k] = atoms[k] * g.choice([0.5, 1.5])
    elif fault == "zero":
        out[k] = 0
    elif fault == "merge":
        out[k] = atoms[k] + atoms[(k + 1) % len(atoms)]
    else:
        out[k] = atoms[(k + 1) % len(atoms)]
    return out


@st.composite
def resolution_runs(draw):
    """2-7 resolutions of the identity on one C^dim of mixed atom counts,
    some with Hermitian noise of about tol on every atom, and one faulted
    stack (see faulted) at a random place; with tol."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2, 3, 4, 8]))
    tol = draw(st.sampled_from([TAU_PROJ, 1e-3]))
    stacks = []
    for _ in range(draw(st.integers(2, 7))):
        u = haar_unitary(g, dim)
        cuts = np.sort(g.choice(np.arange(1, dim), g.integers(0, dim), replace=False))
        atoms = np.stack([u[:, b] @ u[:, b].conj().T for b in np.split(g.permutation(dim), cuts)])
        if draw(st.booleans()):
            noise = g.normal(size=atoms.shape) + 1j * g.normal(size=atoms.shape)
            noise += noise.conj().swapaxes(1, 2)
            atoms = atoms + draw(st.sampled_from([0.3, 1.0, 3.0])) * tol * noise / np.abs(noise).max()
        stacks.append(atoms)
    bad = draw(st.integers(0, len(stacks) - 1))
    stacks[bad] = faulted(stacks[bad], draw(st.sampled_from(["scale", "zero", "merge", "repeat"])), g)
    return stacks, tol


@pytest.mark.parametrize("entries", [None, 16, 200])
@settings(max_examples=40, deadline=None)
@given(run=resolution_runs())
def test_batched_checks_match_the_loop_on_each_stack(entries, run):
    """Each stack's issues from its batch equal the loop's, whatever the
    batch bound (None: the default); the check at the end of a round raises
    the first issue of the first failing stack in store order."""
    stacks, tol = run
    dim = stacks[0].shape[1]
    want = [loop_validate_resolution(list(a), tol) for a in stacks]
    with pytest.MonkeyPatch.context() as m:
        if entries is not None:
            m.setattr(quantum, "_GRAM_ENTRIES", entries)
        got = [None] * len(stacks)
        for batch, a in _batches(stacks):
            for s, issues in zip(batch, _issues(a, tol)):
                got[s] = issues
        assert got == want
        model = QuantumModel({"A": np.diag(np.arange(dim, dtype=float))}, tau_proj=tol)
        start = len(model.contexts)
        for s, a in enumerate(stacks):
            model.contexts[f"c{s}"] = QuantumContext(tuple(map(str, range(len(a)))), a)
        first = next((s, issues[0]) for s, issues in enumerate(want) if issues)
        with pytest.raises(StructureError) as raised:
            model._check(start)
    assert str(raised.value) == f"context 'c{first[0]}': {first[1]}"


def test_a_join_without_atoms_fails_its_round_check():
    """At tau_proj = 0.3 every product of X0*Z0's and Z1's atoms is within
    tol of zero, so their join has no atoms: the round's check takes the
    empty stack and names it, as validate_resolution does."""
    assert validate_resolution(np.zeros((0, 4, 4), dtype=complex), 0.3) == [
        "atoms do not sum to the identity"
    ]
    with pytest.raises(StructureError) as raised:
        QuantumModel(local_pauli_model(2, "XZ", 21).observables, tau_proj=0.3)
    assert str(raised.value) == "context 'X0*Z0*Z1': atoms do not sum to the identity"


@pytest.mark.parametrize("tau", [0.0, 0.5, 0.999, 1.0, 10.0])
def test_trivial_context_is_checked_in_closed_form(tau):
    """The identity's one issue as a resolution is a zero atom, within
    tol >= 1: the build raises it exactly when validate_resolution finds it."""
    issues = validate_resolution(np.eye(2, dtype=complex)[None], tau)
    observables = {"Z": np.diag([1.0, -1.0])}
    if not issues:
        assert "1" in QuantumModel(observables, tau_proj=tau).contexts
        return
    with pytest.raises(StructureError) as raised:
        QuantumModel(observables, tau_proj=tau)
    assert str(raised.value) == f"context '1': {issues[0]}"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4, 8, 16]), rank=st.integers(1, 3))
def test_atom_order_reads_the_entries_on_a_tie(seed, dim, rank):
    """Atoms of one rank from a flat basis, |u_ij|^2 = 1/dim, all tie on
    (rank, moment): the order is the full key's, entries and all."""
    g = np.random.default_rng(seed)
    u = atom_basis(g, dim, "flat")
    blocks = np.split(g.permutation(dim), range(rank, dim, rank))
    atoms = [u[:, b] @ u[:, b].conj().T for b in blocks]
    keys = [oracle_atom_sort_key(p) for p in atoms]
    assume(len({k[:2] for k in keys}) < len(keys))
    assert _atom_order(np.stack(atoms)) == sorted(range(len(atoms)), key=keys.__getitem__)


def check_keys_within_a_cell(model: QuantumModel):
    """Each stored context is filed under the key of its candidate's atoms
    (a meet's unsorted sums, a join's products, an observable's
    projections), within one cell of the key of its stored atoms."""
    filed = {cid: key for key, entries in model._cells.items() for _, cid in entries}
    assert filed.keys() == model.contexts.keys()
    for cid, (n, cell) in filed.items():
        own_n, own_cell = model._key(model.contexts[cid].atoms)
        assert own_n == n and abs(own_cell - cell) <= 1, cid


@pytest.mark.parametrize("tau", [1e-8, 1e-3])
@pytest.mark.parametrize("name", ["xyz2", "xz3", "chsh_tau_1e-3"])
def test_keys_from_probe_values_lie_within_a_cell_of_the_atoms_own(name, tau):
    model = QuantumModel(DEDUP_MODELS[name]().observables, tau_proj=tau)
    assert any("*" in cid for cid in model.contexts)
    check_keys_within_a_cell(model)


def test_keys_lie_within_a_cell_at_zero_tolerance():
    """At tau_proj = 0 the cells are r = dim^3 2^-44 wide, and a meet's key
    still lies within one of its atoms' own."""
    model = QuantumModel(exact_diagonal_observables(), 0, 0, 0)
    assert any("^" in cid for cid in model.contexts) and any("*" in cid for cid in model.contexts)
    check_keys_within_a_cell(model)


@settings(max_examples=8, deadline=None)
@given(observables=degenerate_families(), tau=st.sampled_from([1e-8, 1e-3]))
def test_keys_lie_within_a_cell_on_random_families(observables, tau):
    check_keys_within_a_cell(QuantumModel(observables, tau_proj=tau))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_keys_lie_within_a_cell_on_diagonal_families_at_zero_tolerance(data):
    """Diagonal observables of values 0-2 on C^3 to C^6, whose projections,
    sums and products are exact."""
    dim = data.draw(st.integers(3, 6))
    values = st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
    count = data.draw(st.integers(2, 4))
    observables = {f"O{k}": np.diag(np.array(data.draw(values), float)) for k in range(count)}
    check_keys_within_a_cell(QuantumModel(observables, 0, 0, 0))


def test_batches_keep_to_the_memory_rule():
    """With _GRAM_ENTRIES cut to three products, on the xz4 golden (dim 16,
    up to 16 atoms): every run holds at most _GRAM_ENTRIES entries of
    products, or one pair's, and every batch of the check at most that of
    atoms, or one context's; what each call allocates at its peak stays
    within a few times the larger of the bound and one item, where the
    whole (n, n) table of a 16-atom context would be 16 times the item.
    The build is the default one, bit for bit."""
    want = built(loaded(GOLDEN / "xz4_seed0.json"))
    limit = 3 * 16**2
    calls: Counter = Counter()

    def spy(helper, kind, items):
        def wrapped(*args):
            sizes = items(*args)
            assert len(sizes) == 1 or sum(sizes) <= limit, (kind, sizes)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = helper(*args)
            peak = tracemalloc.get_traced_memory()[1] - start
            assert peak <= 6 * 16 * max(limit, *sizes), (kind, sizes, peak)
            calls[kind] += 1
            return out

        return wrapped

    # an item: one pair's products, or one context's atoms
    products = spy(
        quantum._products, "products", lambda pairs, *_: [a.atoms.size * len(b.atoms) for a, b in pairs]
    )
    issues = spy(quantum._issues, "issues", lambda a, _: [a[0].size] * len(a))
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(quantum, "_GRAM_ENTRIES", limit)
            m.setattr(quantum, "_products", products)
            m.setattr(quantum, "_issues", issues)
            model = load_model(str(GOLDEN / "xz4_seed0.json"))
    finally:
        tracemalloc.stop()
    assert calls["products"] > 20 and calls["issues"] > 5
    assert built(model) == want


# -- the one chunker against the three loops it replaced ---------------------------


def oracle_base_chunks(counts: list[int], dim: int, entries: int) -> list[list[int]]:
    """gram._bases_of's loop once: contexts of these atom counts in chunks of
    at most entries // dim^2 atoms, or one context alone."""
    limit = max(1, entries // dim**2)
    out, chunk, atoms = [], [], 0
    for i, n in enumerate(counts):
        if chunk and atoms + n > limit:
            out.append(chunk)
            chunk, atoms = [], 0
        chunk.append(i)
        atoms += n
    return out + [chunk]


def oracle_check_batches(counts: list[int], dim: int, entries: int) -> list[list[int]]:
    """quantum._batches' step once: stacks of these atom counts grouped by
    count, in order of first appearance, each group cut every
    entries // (n dim^2) stacks, or at every stack."""
    groups: dict[int, list[int]] = {}
    for s, n in enumerate(counts):
        groups.setdefault(n, []).append(s)
    out = []
    for members in groups.values():
        per = max(1, entries // max(1, counts[members[0]] * dim**2))
        out += [members[lo : lo + per] for lo in range(0, len(members), per)]
    return out


def oracle_join_runs(todo: list[tuple[int, int, bool]], dim: int, entries: int) -> list[list[int]]:
    """QuantumModel._run's scans of a round's list as _round once made them,
    todo holding (n_a, n_b, join): at each join candidate not in the last
    run, the candidates from there on while their products hold at most
    `entries` entries, or the first alone; each run as indices of todo."""
    runs, run = [], []
    for k, (_, _, join) in enumerate(todo):
        if join and k not in run:
            run, size = [], 0
            for i in range(k, len(todo)):
                na, nb, j = todo[i]
                if j:
                    size += na * nb * dim**2
                    if run and size > entries:
                        break
                    run.append(i)
            runs.append(run)
    return runs


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 60), max_size=30), limit=st.integers(1, 150))
def test_runs_keep_the_order_and_the_bound(sizes, limit):
    """The runs concatenate to the items in order; each holds at most the
    limit or is one item, and takes every item that still fits."""
    items = list(enumerate(sizes))
    runs = list(_runs(items, lambda item: item[1], limit))
    assert [item for run in runs for item in run] == items
    for run, after in zip(runs, runs[1:] + [None]):
        total = sum(n for _, n in run)
        assert run and (len(run) == 1 or total <= limit)
        assert after is None or total + after[0][1] > limit


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(1, 8), min_size=1, max_size=20),
    dim=st.sampled_from([1, 2, 4, 8]),
    entries=st.sampled_from([1, 16, 100, 256, 4096]),
)
def test_bases_and_check_batches_are_the_loops_chunks(counts, dim, entries):
    """_bases_of measures, and _batches stacks, exactly the chunks of the
    loops they replaced, at every bound."""
    ctxs = [QuantumContext(tuple(map(str, range(n))), np.zeros((n, dim, dim))) for n in counts]
    index = {id(c): i for i, c in enumerate(ctxs)}
    chunks = []

    def measured(run, _):
        chunks.append([index[id(c)] for c in run])
        return [None] * len(run)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gram, "_GRAM_ENTRIES", entries)
        m.setattr(quantum, "_GRAM_ENTRIES", entries)
        m.setattr(gram, "_measured_bases", measured)
        assert _bases_of(ctxs) == [None] * len(ctxs)
        batches = [batch for batch, _ in _batches([c.atoms for c in ctxs])]
    assert chunks == oracle_base_chunks(counts, dim, entries)
    assert batches == oracle_check_batches(counts, dim, entries)


def oracle_product_slices(count: int, dim: int, entries: int) -> list[list[int]]:
    """_issues' step loop once: count dim x dim products in slices of
    entries // dim^2 products, or of one."""
    step = max(1, entries // dim**2)
    return [list(range(lo, min(lo + step, count))) for lo in range(0, count, step)]


@settings(max_examples=20, deadline=None)
@given(run=resolution_runs())
def test_check_products_are_the_loops_slices(run):
    """_issues cuts its products p_i p_i, then p_i p_j (i < j), with _runs
    into exactly the slices of the step loop it replaced, at every bound
    from 1 to 4096 entries, and finds the same issues."""
    stacks, tol = run
    dim = stacks[0].shape[1]
    batches = [a for _, a in _batches(stacks)]
    want = [_issues(a, tol) for a in batches]
    for entries in [1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1000, 1024, 4095, 4096]:
        calls = []

        def spy(items, size, limit):
            runs = list(_runs(items, size, limit))
            calls.append(runs)
            return iter(runs)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(quantum, "_GRAM_ENTRIES", entries)
            m.setattr(quantum, "_runs", spy)
            got = [_issues(a, tol) for a in batches]
        assert got == want
        slices = []
        for a in batches:
            k, n = a.shape[:2]
            slices += [oracle_product_slices(k * n, dim, entries)]
            slices += [oracle_product_slices(k * n * (n - 1) // 2, dim, entries)]
        assert calls == slices


@pytest.mark.parametrize("entries", [3 * 8**2, 16 * 8**2, 4096])
def test_a_build_makes_the_three_loops_chunks(entries):
    """On the xz3 golden (dim 8) with _GRAM_ENTRIES at `entries` in both
    modules: each round's join candidates multiplied, run by run, are the
    runs that _run's scans made of them, and the bases measured and the
    contexts checked are the loops' chunks, call by call; the build is the
    default one."""
    rounds, bases, checks = [], [], []
    products, bases_of, batches = quantum._products, quantum._bases_of, quantum._batches
    measured, round_ = gram._measured_bases, QuantumModel._round

    def spy_round(self, pairs, images):
        rounds.append([])
        return round_(self, pairs, images)

    def spy_products(pairs, tol):
        rounds[-1].append([(len(a.atoms), len(b.atoms)) for a, b in pairs])
        return products(pairs, tol)

    def spy_bases(ctxs):
        bases.append(([len(c.atoms) for c in ctxs], []))
        return bases_of(ctxs)

    def spy_measured(run, dim):
        bases[-1][1].append(len(run))
        return measured(run, dim)

    def spy_batches(stacks):
        out = list(batches(stacks))
        checks.append(([len(a) for a in stacks], [batch for batch, _ in out]))
        return iter(out)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gram, "_GRAM_ENTRIES", entries)
        m.setattr(quantum, "_GRAM_ENTRIES", entries)
        m.setattr(quantum, "_products", spy_products)
        m.setattr(quantum, "_bases_of", spy_bases)
        m.setattr(gram, "_measured_bases", spy_measured)
        m.setattr(quantum, "_batches", spy_batches)
        m.setattr(QuantumModel, "_round", spy_round)
        model = load_model(str(GOLDEN / "xz3_seed0.json"))
    assert built(model) == built(loaded(GOLDEN / "xz3_seed0.json"))
    for runs in rounds:
        todo = [(na, nb, True) for run in runs for na, nb in run]
        ends = itertools.accumulate(len(run) for run in runs)
        got = [list(range(end - len(run), end)) for run, end in zip(runs, ends)]
        assert got == oracle_join_runs(todo, 8, entries)
    assert sum(map(len, rounds)) > len(rounds) and bases and checks
    for counts, chunks in bases:
        assert chunks == [len(chunk) for chunk in oracle_base_chunks(counts, 8, entries)]
    for counts, got in checks:
        assert got == oracle_check_batches(counts, 8, entries)


# -- elementary propositions against the spectral products -----------------------


def oracle_elementary(model: QuantumModel, name: str, delta) -> ElementaryProposition:
    """(context, atoms) for 'measured name, result in delta' from products:
    the atoms q of the observable's context under the spectral projection P
    of delta, P q = q, which must sum to P."""
    cid = model.obs_context[name]
    ctx = model.contexts[cid]
    proj = spectral_projection(model.observables[name], delta, model.tau_herm, model.tau_eig)
    under = [k for k, q in enumerate(ctx.atoms) if below(proj, q, model.tau_proj)]
    assert _maxabs(ctx.atoms[under].sum(axis=0) - proj) <= model.tau_proj, (name, delta)
    return ElementaryProposition(cid, frozenset(ctx.atom_names[k] for k in under))


def check_elementary(model: QuantumModel):
    """The lookup equals the oracle for every observable and every non-empty
    subset of its eigenvalue clusters."""
    for name, sd in model.spectra.items():
        n = len(sd.eigenvalues)
        for ks in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(1, n + 1)
        ):
            delta = [sd.eigenvalues[k] for k in ks]
            assert model.elementary(name, delta) == oracle_elementary(model, name, delta), (name, ks)


@pytest.mark.parametrize(
    "path",
    [FIXTURES / "one_qubit.json", GOLDEN / "xz3_seed0.json", GOLDEN / "xyz2_seed0.json"],
    ids=lambda p: p.stem,
)
def test_elementary_matches_oracle_on_files(path):
    check_elementary(load_model(str(path)))


@settings(max_examples=5, deadline=None)
@given(angles=st.lists(st.integers(0, 359), min_size=4, max_size=4))
def test_chsh_elementary_matches_oracle(angles):
    check_elementary(build_chsh_frame(BellScenario.from_angles(*angles)).model)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(2, "XYZ"), (3, "XZ")]))
def test_pauli_elementary_matches_oracle(seed, shape):
    check_elementary(local_pauli_model(*shape, seed))


@pytest.mark.parametrize(
    "observables, twin, onto",
    [
        # -3 Sz's clusters -3, 3 are Sz's atoms -1, 1 the other way round
        ({"Sz": SZ, "W": -3 * SZ}, "W", "Sz"),
        # the same diagonal atoms, in the clusters' order 1, 2, 0
        ({"A": np.diag([0, 1, 2]), "B": np.diag([2, 0, 1])}, "B", "A"),
        ({"Sz": SZ, "T": 2 * np.eye(2)}, "T", "1"),
    ],
    ids=["minus_3_sz", "permuted_diagonal", "scaled_identity"],
)
def test_elementary_of_a_deduplicated_observable_matches_oracle(observables, twin, onto):
    """An observable whose context was stored before it, with its atoms in
    another order than its clusters, or as the trivial context."""
    model = QuantumModel(observables)
    assert model.obs_context[twin] == onto
    check_elementary(model)
