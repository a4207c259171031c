"""Quantum instantiation: abelian contexts from finite Hermitian matrices.

An observable generates a context whose atoms are its spectral
projections.  A set of observables generates a context poset closed
under pairwise meets (intersection of algebras) and commuting joins
(products of atoms); the order is algebra inclusion, i.e. atom
refinement.

Every relation between two contexts is read from one overlap graph that
links atoms p and q iff ||p q||_max > tau_proj, the single tolerance
decision for meet, join, order and embedding: the meet's atoms are the
sums over its connected components, the join of a pair that passes
contexts_commute has the non-zero products p q as atoms, and c1 <= c2 iff
every atom of c2 is linked to exactly one atom of c1, the one it embeds
under.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, StructureError
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


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigenvalues with matching spectral projections."""

    eigenvalues: tuple[float, ...]
    projections: tuple[np.ndarray, ...]


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
    return SpectralData(tuple(eigenvalues), tuple(projections))


def _spectral_sum(
    sd: SpectralData, delta: Iterable[float], tau_eig: float, what: str
) -> np.ndarray:
    """Sum of the spectral projections of the values in delta; each value
    must lie within tau_eig * scale of exactly one eigenvalue cluster."""
    scale = max(1.0, max(abs(e) for e in sd.eigenvalues))
    out = np.zeros_like(sd.projections[0])
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
        out = out + sd.projections[matches[0]]
    return out


def spectral_projection(
    h: np.ndarray,
    delta: Iterable[float],
    tau_herm: float = TAU_HERM,
    tau_eig: float = TAU_EIG,
) -> np.ndarray:
    """Spectral projection onto the eigenvalue clusters matching delta."""
    sd = spectral_decompose(h, tau_herm, tau_eig)
    return _spectral_sum(sd, delta, tau_eig, "the matrix")


# -- contexts ---------------------------------------------------------------


def _atom_sort_key(p: np.ndarray) -> tuple:
    rank = int(round(float(np.real(np.trace(p)))))
    pos = np.arange(p.shape[0])
    moment = float(np.real(np.sum(np.diag(p) * pos)))
    flat = np.round(p, 6)
    return (rank, round(moment, 6), tuple(flat.real.ravel()), tuple(flat.imag.ravel()))


def same_atoms(
    atoms1: Sequence[np.ndarray], atoms2: Sequence[np.ndarray], tol: float = TAU_PROJ
) -> bool:
    """Greedy matching of two resolutions of identity within tolerance."""
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


def validate_resolution(atoms: Sequence[np.ndarray], tol: float = TAU_PROJ) -> list[str]:
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


@dataclass(frozen=True)
class QuantumContext:
    """An abelian context: named atomic projections resolving the identity."""

    atom_names: tuple[str, ...]
    atoms: tuple[np.ndarray, ...]

    def atom(self, name: str) -> np.ndarray:
        return self.atoms[self.atom_names.index(name)]

    def projection_of(self, element: frozenset) -> np.ndarray:
        dim = self.atoms[0].shape[0]
        out = np.zeros((dim, dim), dtype=complex)
        for name in element:
            out = out + self.atom(name)
        return out


def _trivial_context(dim: int) -> QuantumContext:
    return QuantumContext((TRIVIAL_ATOM,), (np.eye(dim, dtype=complex),))


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


def contexts_commute(
    c1: QuantumContext, c2: QuantumContext, tol: float = TAU_PROJ
) -> bool:
    return all(
        _maxabs(p @ q - q @ p) <= tol for p in c1.atoms for q in c2.atoms
    )


def _overlap(
    c1: QuantumContext, c2: QuantumContext, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """All atom products prods[i, j] = p_i q_j of two contexts, and the
    overlap graph edges[i, j] = ||p_i q_j||_max > tol."""
    prods = np.matmul(np.stack(c1.atoms)[:, None], np.stack(c2.atoms)[None])
    return prods, np.abs(prods).max(axis=(2, 3)) > tol


def _components(edges: np.ndarray) -> set[tuple[int, ...]]:
    """The c1-atom indices of each connected component of the overlap graph.
    Exact for meets: a component's atoms on either side sum to the same
    projection, and every common element is a union of components."""
    reach = edges @ edges.T
    while True:
        grown = reach @ reach
        if np.array_equal(grown, reach):
            return {tuple(np.flatnonzero(row)) for row in reach}
        reach = grown


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

    def __post_init__(self):
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

    def _find_equal(self, ctx: QuantumContext) -> str | None:
        for cid, existing in self.contexts.items():
            if same_atoms(ctx.atoms, existing.atoms, self.tau_proj):
                return cid
        return None

    def _add(self, cid: str, ctx: QuantumContext) -> str:
        found = self._find_equal(ctx)
        if found is not None:
            return found
        for issue in validate_resolution(ctx.atoms, self.tau_proj):
            raise StructureError(f"context {cid!r}: {issue}")
        self.contexts[cid] = ctx
        return cid

    def _build(self):
        self.contexts = {}
        self.obs_context = {}
        self._add(TRIVIAL_ID, _trivial_context(self.dim))
        for name in sorted(self.observables):
            ctx = _spectral_context(self.spectra[name], name, self.dim)
            self.obs_context[name] = self._add(name, ctx)
        # close under pairwise meets and commuting joins; a pair taken once
        # yields no new context when taken again, so each pair is taken once
        edges: dict[tuple[str, str], np.ndarray] = {}
        while pairs := [
            ab for ab in itertools.combinations(sorted(self.contexts), 2) if ab not in edges
        ]:
            for a, b in pairs:
                ca, cb = self.contexts[a], self.contexts[b]
                prods, e = _overlap(ca, cb, self.tau_proj)
                edges[a, b] = e
                meet = sorted(
                    (sum(ca.atoms[i] for i in comp) for comp in _components(e)),
                    key=_atom_sort_key,
                )
                self._add(
                    f"({a}^{b})",
                    QuantumContext(tuple(f"m{k}" for k in range(len(meet))), tuple(meet)),
                )
                if contexts_commute(ca, cb, self.tau_proj):
                    self._add(
                        f"{a}*{b}",
                        QuantumContext(
                            tuple(
                                f"{ca.atom_names[i]}.{cb.atom_names[j]}"
                                for i, j in zip(*np.nonzero(e))
                            ),
                            tuple(prods[e]),
                        ),
                    )
        contexts = {
            cid: LocalAlgebra(ctx.atom_names) for cid, ctx in self.contexts.items()
        }
        embeddings = {}
        for a, ca in self.contexts.items():
            for b, cb in self.contexts.items():
                if a == b:
                    continue
                e = edges[a, b] if a < b else edges[b, a].T
                if not np.all(e.sum(axis=0) == 1):
                    continue
                embeddings[(a, b)] = {
                    n: frozenset(cb.atom_names[j] for j in np.flatnonzero(row))
                    for n, row in zip(ca.atom_names, e)
                }
        self.poset = ContextPoset(contexts, list(embeddings), embeddings)
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
        """(generated context, atom subset) for 'measured name, result in delta'."""
        if name not in self.observables:
            raise DomainError(f"unknown observable {name!r}")
        sd = self.spectra[name]
        cid = self.obs_context[name]
        ctx = self.contexts[cid]
        delta = list(delta)
        if not delta:
            return BOTTOM
        proj = _spectral_sum(sd, delta, self.tau_eig, repr(name))
        atoms = frozenset(
            n
            for n, q in zip(ctx.atom_names, ctx.atoms)
            if _maxabs(proj @ q - q) <= self.tau_proj
        )
        if _maxabs(ctx.projection_of(atoms) - proj) > self.tau_proj:
            raise StructureError(
                f"projection for {name!r} does not decompose into context atoms"
            )
        return ElementaryProposition(cid, atoms)

