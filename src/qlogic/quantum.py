"""Quantum instantiation: abelian contexts from finite Hermitian matrices.

An observable generates a context whose atoms are its spectral
projections.  A set of observables generates a context poset closed
under pairwise meets (intersection of algebras) and commuting joins
(products of atoms); the order is algebra inclusion, i.e. atom
refinement.

Every relation between two contexts is read from one overlap graph that
links atoms p and q iff ||p q||_max > tau_proj, the single tolerance
decision for meet, join, order and embedding: c1 <= c2 iff every atom of
c2 is linked to exactly one atom of c1, the one it embeds under; a
comparable pair is skipped, as its meet and join are the pair itself;
otherwise the meet's atoms are the sums over the graph's connected
components, and the join of a commuting pair has the non-zero products
p q as atoms.  The products p q that make the graph also decide
commutation: for Hermitian p and q, (p q)^dagger = q p.

A context with n atoms p_k is looked up among the stored ones in a grid
hash on (n, f // w) with f = sum_k <v, p_k v>^2 for a fixed unit probe v
and a cell width w = 4 n dim tau_proj, wide enough that every stored
context with the same atoms within tau_proj lies in the context's cell or
a neighbour (see QuantumModel._find_equal).  The closure settles a
candidate's duplicate before it builds the candidate as a context: each
stored context keeps its probe values <v, p_k v>, a meet's are sums of
them over the components, and a join's come from its products, so the key
is known first; stored contexts in its cells are compared with the
candidate's atoms, and only a candidate that matches none is sorted, named,
checked as a resolution of the identity and stored.  Rounding is all that
separates a probe-sum key from one computed on the summed atoms, and the
cell width has room for it (see QuantumModel._add_meet).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, StructureError
from .formulas import WORD
from .poset import ContextPoset, LocalAlgebra
from .sections import BOTTOM, ElementaryProposition, Frame

TAU_HERM = 1e-8
TAU_PROJ = 1e-8
TAU_EIG = 1e-6

TRIVIAL_ID = "1"
TRIVIAL_ATOM = "1"


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_hermitian(m: np.ndarray, tol: float = TAU_HERM) -> bool:
    return m.shape[0] == m.shape[1] and _maxabs(m - m.conj().T) <= tol


def is_projection(m: np.ndarray, tol: float = TAU_PROJ) -> bool:
    return is_hermitian(m, tol) and _maxabs(m @ m - m) <= tol


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Clustered eigenvalues with matching spectral projections.

    Compared and hashed by identity: the projections are an array."""

    eigenvalues: tuple[float, ...]
    projections: np.ndarray  # (clusters, dim, dim): row k belongs to eigenvalue k


def spectral_decompose(
    h: np.ndarray, tau_herm: float = TAU_HERM, tau_eig: float = TAU_EIG
) -> SpectralData:
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tau_herm):
        raise DomainError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[clusters[-1][-1]] > tau_eig * scale:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    eigenvalues = []
    projections = []
    for idx in clusters:
        spread = w[idx[-1]] - w[idx[0]]
        if spread > tau_eig * scale:
            raise DomainError(
                f"eigenvalue cluster spreads {spread:.3g} across {len(idx)} "
                f"eigenvalues, more than tau_eig * scale = {tau_eig * scale:.3g}"
            )
        cols = v[:, idx]
        eigenvalues.append(float(np.mean(w[idx])))
        projections.append(cols @ cols.conj().T)
    return SpectralData(tuple(eigenvalues), np.stack(projections))


def _match_clusters(
    sd: SpectralData, delta: Iterable[float], tau_eig: float, what: str
) -> set[int]:
    """The indices of the eigenvalue clusters of the values in delta; each
    value must lie within tau_eig * scale of exactly one cluster."""
    scale = max(1.0, max(abs(e) for e in sd.eigenvalues))
    out = set()
    for x in delta:
        matches = [
            i
            for i, e in enumerate(sd.eigenvalues)
            if abs(e - float(x)) <= tau_eig * scale
        ]
        if not matches:
            raise DomainError(f"value {x} not in the spectrum of {what}")
        if len(matches) > 1:
            raise DomainError(
                f"value {x} matches {len(matches)} eigenvalue clusters of {what}"
            )
        out.add(matches[0])
    return out


def spectral_projection(
    h: np.ndarray,
    delta: Iterable[float],
    tau_herm: float = TAU_HERM,
    tau_eig: float = TAU_EIG,
) -> np.ndarray:
    """Spectral projection onto the eigenvalue clusters matching delta, each
    cluster summed once however often delta names it."""
    sd = spectral_decompose(h, tau_herm, tau_eig)
    return sd.projections[sorted(_match_clusters(sd, delta, tau_eig, "the matrix"))].sum(axis=0)


# -- contexts ---------------------------------------------------------------


def _atom_order(stack: np.ndarray) -> list[int]:
    """Indices that sort a stack of atoms by rank, then by the moment
    sum_i i p_ii rounded to 6 digits, then by the entries rounded to 6
    digits, real parts before imaginary parts."""
    n, dim, _ = stack.shape
    diag = np.diagonal(stack, axis1=1, axis2=2)
    ranks = np.rint(np.sum(diag, axis=1).real).astype(int).tolist()
    moments = np.sum(diag * np.arange(dim), axis=1).real.tolist()
    flat = np.round(stack, 6).reshape(n, -1)
    keys = list(
        zip(ranks, (round(m, 6) for m in moments), flat.real.tolist(), flat.imag.tolist())
    )
    return sorted(range(n), key=keys.__getitem__)


def _pairing(
    atoms1: Sequence[np.ndarray], atoms2: Sequence[np.ndarray], tol: float
) -> list[int] | None:
    """Greedy matching of two resolutions of identity within tolerance: each
    atom of atoms1 in turn takes the first remaining atom of atoms2 within
    tol in max-abs, read off one table of all the pairs' distances.  The
    index in atoms2 taken by each atom of atoms1, or None if one finds none."""
    if len(atoms1) != len(atoms2):
        return None
    a, b = np.asarray(atoms1), np.asarray(atoms2)
    close = (np.abs(a[:, None] - b[None]).max(axis=(2, 3)) <= tol).tolist()
    remaining = list(range(len(b)))
    taken = []
    for row in close:
        for k, j in enumerate(remaining):
            if row[j]:
                taken.append(remaining.pop(k))
                break
        else:
            return None
    return taken


def same_atoms(
    atoms1: Sequence[np.ndarray], atoms2: Sequence[np.ndarray], tol: float = TAU_PROJ
) -> bool:
    """Whether the two resolutions of identity match atom for atom within
    tol in max-abs (see _pairing)."""
    return _pairing(atoms1, atoms2, tol) is not None


def validate_resolution(atoms: Sequence[np.ndarray], tol: float = TAU_PROJ) -> list[str]:
    """What keeps the atoms from being non-zero, pairwise orthogonal
    projections that sum to the identity, each within tol in max-abs;
    all pairwise products come from one batched matmul."""
    a = np.asarray(atoms)
    n, dim = len(a), a.shape[1]
    prods = np.matmul(a[:, None], a[None])
    herm = np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= tol
    idem = np.abs(prods[np.arange(n), np.arange(n)] - a).max(axis=(1, 2)) <= tol
    zero = np.abs(a).max(axis=(1, 2)) <= tol
    apart = (np.abs(prods).max(axis=(2, 3)) > tol).tolist()
    issues = []
    for i in range(n):
        if not (herm[i] and idem[i]):
            issues.append(f"atom {i} is not a projection")
        if zero[i]:
            issues.append(f"atom {i} is zero")
        issues += [f"atoms {i},{j} are not orthogonal" for j in range(i + 1, n) if apart[i][j]]
    if _maxabs(a.sum(axis=0) - np.eye(dim)) > tol:
        issues.append("atoms do not sum to the identity")
    return issues


@dataclass(frozen=True, eq=False)
class QuantumContext:
    """An abelian context: named atomic projections resolving the identity.

    The atoms are held once, as one (atoms, dim, dim) array: one given as
    such an array is kept without a copy, a sequence is stacked once.  A
    context is compared and hashed by identity."""

    atom_names: tuple[str, ...]
    atoms: np.ndarray

    def __post_init__(self):
        if not isinstance(self.atoms, np.ndarray):
            object.__setattr__(self, "atoms", np.stack(self.atoms))


def _trivial_context(dim: int) -> QuantumContext:
    return QuantumContext((TRIVIAL_ATOM,), np.eye(dim, dtype=complex)[None])


def _spectral_context(sd: SpectralData, name: str, dim: int) -> QuantumContext:
    """The context of a spectral decomposition: its projections, named after
    the clustered eigenvalues; one cluster gives the trivial context."""
    if len(sd.projections) == 1:
        return _trivial_context(dim)
    names = tuple(f"{name}={e:g}" for e in sd.eigenvalues)
    return QuantumContext(names, sd.projections)


def generated_context(
    h: np.ndarray,
    name: str = "A",
    tau_herm: float = TAU_HERM,
    tau_eig: float = TAU_EIG,
) -> QuantumContext:
    """The context generated by one observable."""
    return _spectral_context(spectral_decompose(h, tau_herm, tau_eig), name, h.shape[0])


def _overlap(
    c1: QuantumContext, c2: QuantumContext, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """All atom products prods[i, j] = p_i q_j of two contexts, and the
    overlap graph edges[i, j] = ||p_i q_j||_max > tol."""
    prods = np.matmul(c1.atoms[:, None], c2.atoms[None])
    return prods, np.abs(prods).max(axis=(2, 3)) > tol


def _commute(prods: np.ndarray, tol: float) -> bool:
    """Whether the atoms whose products _overlap returned commute within tol:
    p q - q p = p q - (p q)^dagger for Hermitian p and q.  A pair that does
    not commute mostly shows it in the first atom's products, so those are
    tested alone first.  The adjoints are copied out contiguous, which a
    subtraction of the strided view makes several times slower at dim 16."""
    first = prods[:1]
    if _maxabs(first - first.conj().swapaxes(-1, -2)) > tol:
        return False
    d = np.ascontiguousarray(prods.swapaxes(-1, -2))
    np.conjugate(d, out=d)
    np.subtract(prods, d, out=d)
    return _maxabs(d) <= tol


def _components(edges: np.ndarray) -> list[tuple[int, ...]]:
    """The c1-atom indices of each connected component of the overlap graph,
    in order of their least index; union-find over the edges, with c1's atoms
    as nodes 0..n1-1 and c2's after them.  Exact for meets: a component's
    atoms on either side sum to the same projection, and every common
    element is a union of components."""
    n1 = len(edges)
    root = list(range(n1 + edges.shape[1]))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    for i, row in enumerate(edges.tolist()):
        for j, linked in enumerate(row):
            if linked:
                root[find(i)] = find(n1 + j)
    comps: dict[int, list[int]] = {}
    for i in range(n1):
        comps.setdefault(find(i), []).append(i)
    return [tuple(c) for c in comps.values()]


def _row_masks(edges: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, bit j for column j (a Python
    int, so a context of more than 63 atoms fits)."""
    return [sum(1 << j for j, linked in enumerate(row) if linked) for row in edges.tolist()]


@dataclass
class QuantumModel:
    """Observables, their generated context poset, and the section frame."""

    observables: dict[str, np.ndarray]
    tau_herm: float = TAU_HERM
    tau_proj: float = TAU_PROJ
    tau_eig: float = TAU_EIG
    dim: int = field(init=False)
    contexts: dict[str, QuantumContext] = field(init=False)
    obs_context: dict[str, str] = field(init=False)
    spectra: dict[str, SpectralData] = field(init=False)
    poset: ContextPoset = field(init=False)
    frame: Frame = field(init=False)
    _probe: np.ndarray = field(init=False, repr=False, compare=False)
    # context id -> [<v, p_k v> for its atoms p_k], the probe values of _cell
    _x: dict[str, list[float]] = field(init=False, repr=False, compare=False)
    # (number of atoms, cell) -> [(insertion index, context id)], see _cell
    _cells: dict[tuple[int, int], list[tuple[int, str]]] = field(
        init=False, repr=False, compare=False
    )
    # observable -> the atom of its context for each of its eigenvalue clusters
    _cluster_atoms: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # an observable name is a formula identifier, so none spells a
        # generated context id ("1", "(a^b)", "a*b") and overwrites its context
        for name in self.observables:
            if not (isinstance(name, str) and re.fullmatch(WORD, name)):
                raise DomainError(f"observable name {name!r} is not an identifier ({WORD})")
        mats = {k: np.asarray(v, dtype=complex) for k, v in self.observables.items()}
        dims = {m.shape for m in mats.values()}
        if len(dims) > 1:
            raise DomainError("observables have mismatched dimensions")
        if not mats:
            raise DomainError("at least one observable is required")
        self.dim = next(iter(mats.values())).shape[0]
        self.observables = mats
        self.spectra = {
            k: spectral_decompose(m, self.tau_herm, self.tau_eig)
            for k, m in mats.items()
        }
        self._build()

    # -- poset construction ------------------------------------------------

    def _find_equal(self, atoms: Sequence[np.ndarray], key: tuple[int, int]) -> str | None:
        """The earliest stored context whose atoms match `atoms` within tau_proj.

        A match has the same number n of atoms and pairs each atom p_k with
        an atom q_k, max|p_k - q_k| <= tau, so |<v, p_k v> - <v, q_k v>| <=
        ||p_k - q_k||_2 <= dim tau for the unit probe v.  Clipped to [0, 1],
        which moves no two values apart, each square moves by at most
        2 dim tau, and f by at most 2 n dim tau, half the cell width: every
        match lies in the key's cell or a neighbour, and the earliest of
        those is the earliest of all.
        """
        n, cell = key
        for _, cid in sorted(
            entry for c in (cell - 1, cell, cell + 1) for entry in self._cells.get((n, c), ())
        ):
            if same_atoms(atoms, self.contexts[cid].atoms, self.tau_proj):
                return cid
        return None

    def _probe_values(self, stack: np.ndarray) -> list[float]:
        """<v, p_k v> for the atoms p_k of a stack and the probe v."""
        return (stack @ self._probe).dot(self._probe.conj()).real.tolist()

    def _cell(self, x: Sequence[float]) -> tuple[int, int]:
        """(n, f // (4 n dim tau_proj)) for the probe values x_k of n atoms
        and f = sum_k x_k^2, each x_k clipped to [0, 1]; the width has 1e-12
        more for the rounding of f, and is that alone for a negative or NaN
        tau_proj, under which same_atoms matches nothing."""
        n = len(x)
        f = sum(min(max(xk, 0.0), 1.0) ** 2 for xk in x)
        width = 4 * n * self.dim * self.tau_proj
        width = width + 1e-12 if width >= 0 else 1e-12
        return n, math.floor(f / width)

    def _store(self, cid: str, ctx: QuantumContext, key: tuple[int, int], x: list[float]) -> str:
        for issue in validate_resolution(ctx.atoms, self.tau_proj):
            raise StructureError(f"context {cid!r}: {issue}")
        self._cells.setdefault(key, []).append((len(self.contexts), cid))
        self.contexts[cid] = ctx
        self._x[cid] = x
        return cid

    def _add(self, cid: str, ctx: QuantumContext) -> str:
        x = self._probe_values(ctx.atoms)
        key = self._cell(x)
        found = self._find_equal(ctx.atoms, key)
        return found if found is not None else self._store(cid, ctx, key, x)

    def _add_meet(self, a: str, b: str, edges: np.ndarray) -> str:
        """The id of the meet of contexts a and b, whose overlap graph is
        `edges`: the earliest stored context with its atoms, else the meet
        stored as a new context.

        The meet's atoms are sums of a's atoms over the components, so its
        probe values are the same sums of a's stored ones, and its key comes
        without a matmul; the atom order, the names and the resolution check
        are for a new context only.  This key differs from the one of the
        summed atoms' own probe values by rounding alone.  Either way, the
        value x_c of a component of rank r_c is within (4 dim + 4) u r_c of
        the exact probe value (u = 2^-53: a probe <v, p v> of a projection
        p is off by at most (2 dim + 4) u |v|^T |p| |v| <= (2 dim + 4) u
        ||p||_F, ||p||_F = sqrt(rank p), and the sums add at most r_c
        roundings of numbers <= 1).  As the ranks sum to dim, f is within
        eps = 2 (4 dim + 4) u dim of exact, 2.4e-13 at dim 16.  A candidate
        and its match then have computed f at most 2 n dim tau + 2 eps
        apart; _find_equal's argument leaves 2 n dim tau + 1e-12 of the cell
        width for that, and the 1e-12 alone covers 2 eps up to dim 23 at
        any tau_proj >= 0.
        """
        comps = _components(edges)
        xa, ca = self._x[a], self.contexts[a]
        x = [sum(xa[i] for i in comp) for comp in comps]
        key = self._cell(x)
        meet = np.stack([sum(ca.atoms[i] for i in comp) for comp in comps])
        found = self._find_equal(meet, key)
        if found is not None:
            return found
        k = _atom_order(meet)
        names = tuple(f"m{i}" for i in range(len(k)))
        return self._store(f"({a}^{b})", QuantumContext(names, meet[k]), key, [x[i] for i in k])

    def _add_join(self, a: str, b: str, prods: np.ndarray, edges: np.ndarray) -> str:
        """The id of the join of commuting contexts a and b, the non-zero
        products prods[edges]: the earliest stored context with its atoms,
        else the join stored as a new context."""
        atoms = prods[edges]
        x = self._probe_values(atoms)
        key = self._cell(x)
        found = self._find_equal(atoms, key)
        if found is not None:
            return found
        na, nb = self.contexts[a].atom_names, self.contexts[b].atom_names
        names = tuple(f"{na[i]}.{nb[j]}" for i, j in np.argwhere(edges).tolist())
        return self._store(f"{a}*{b}", QuantumContext(names, atoms), key, x)

    def _build(self):
        self.contexts = {}
        self.obs_context = {}
        # the probe of the dedup grid (_cell), in closed form
        idx = np.arange(1, self.dim + 1)
        probe = np.sqrt(idx) * np.exp(1j * idx * 0.6180339887498949)
        self._probe = probe / np.linalg.norm(probe)
        self._x = {}
        self._cells = {}
        self._add(TRIVIAL_ID, _trivial_context(self.dim))
        # an observable's eigenvalue cluster k is atom k of its own context,
        # or the atom that _find_equal's match paired it with
        self._cluster_atoms = {}
        for name in sorted(self.observables):
            ctx = _spectral_context(self.spectra[name], name, self.dim)
            cid = self.obs_context[name] = self._add(name, ctx)
            stored = self.contexts[cid]
            if stored is ctx:
                ks = range(len(ctx.atoms))
            else:
                ks = _pairing(ctx.atoms, stored.atoms, self.tau_proj)
            self._cluster_atoms[name] = tuple(stored.atom_names[k] for k in ks)
        # close under pairwise meets and commuting joins; a pair taken once
        # yields no new context when taken again, so each pair is taken once.
        # order[a, b] = (edges, a <= b, b <= a); a comparable pair has the
        # pair itself as meet and join, both stored already
        order: dict[tuple[str, str], tuple[np.ndarray, bool, bool]] = {}
        while pairs := [
            ab for ab in itertools.combinations(sorted(self.contexts), 2) if ab not in order
        ]:
            for a, b in pairs:
                ca, cb = self.contexts[a], self.contexts[b]
                prods, e = _overlap(ca, cb, self.tau_proj)
                a_le_b = bool(np.all(e.sum(axis=0) == 1))
                b_le_a = bool(np.all(e.sum(axis=1) == 1))
                order[a, b] = e, a_le_b, b_le_a
                if a_le_b or b_le_a:
                    continue
                self._add_meet(a, b, e)
                if _commute(prods, self.tau_proj):
                    self._add_join(a, b, prods, e)
        contexts = {
            cid: LocalAlgebra(ctx.atom_names) for cid, ctx in self.contexts.items()
        }
        # an embedding is the overlap graph read by rows: per atom of the
        # lower context, the mask of the upper atoms it is linked to
        images = {}
        for (a, b), (e, a_le_b, b_le_a) in order.items():
            if a_le_b:
                images[a, b] = _row_masks(e)
            if b_le_a:
                images[b, a] = _row_masks(e.T)
        self.poset = ContextPoset(contexts, list(images), images)
        self.frame = Frame(self.poset)

    # -- propositions -------------------------------------------------------

    def coerce(self, name: str, tokens: Iterable[str]) -> list[float]:
        """The numbers that the textual outcome tokens of the named observable
        spell; elementary matches them against its spectrum."""
        if name not in self.observables:
            raise DomainError(f"unknown observable {name!r}")
        try:
            return [float(t) for t in tokens]
        except ValueError as exc:
            raise DomainError(f"outcomes of {name!r} must be numbers: {exc}") from None

    def elementary(self, name: str, delta: Iterable[float]) -> ElementaryProposition:
        """(generated context, atom subset) for 'measured name, result in delta':
        the atoms of the eigenvalue clusters that delta names."""
        if name not in self.observables:
            raise DomainError(f"unknown observable {name!r}")
        delta = list(delta)
        if not delta:
            return BOTTOM
        clusters = _match_clusters(self.spectra[name], delta, self.tau_eig, repr(name))
        atoms = self._cluster_atoms[name]
        return ElementaryProposition(self.obs_context[name], frozenset(atoms[k] for k in clusters))
