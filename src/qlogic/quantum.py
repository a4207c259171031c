"""Quantum instantiation: abelian contexts from finite Hermitian matrices.

An observable generates a context whose atoms are its spectral
projections.  A set of observables generates a context poset closed
under pairwise meets (intersection of algebras) and commuting joins
(products of atoms); the order is algebra inclusion, i.e. atom
refinement.

Every relation between two contexts is read from one overlap graph that
links atoms p and q iff ||p q||_max > tau_proj, the single tolerance
decision for meet, join, order and embedding.  The graph is packed once
into one Python int per atom of c1, the mask of the c2 atoms it is linked
to (see _row_masks), and read from those ints alone: c1 <= c2 iff every
atom of c2 is linked to exactly one atom of c1, the one it embeds under,
i.e. the rows are disjoint and cover c2 (see _embeddings); a comparable
pair is skipped, as its meet and join are the pair itself; otherwise the
meet's atoms are the sums over the graph's connected components, merged
from rows that share a bit (see _components), and the join of a
commuting pair has the non-zero products p q as atoms.  The products
p q that make the graph also decide commutation: for Hermitian p and q,
(p q)^dagger = q p.

That one decision, and the commutation of a pair, are read where they
can be certified from small Gram blocks instead of the products (see
qlogic.gram).  A context that enters a closure round of at least
_MIN_GRAM_PAIRS non-trivial pairs gets an orthonormal basis whose column
groups span its atoms' ranges, from one eigh of sum_k k p_k, with a
residual measured once.  A pair with a block the Gram matrix leaves
undecided, and a join candidate, which needs the products anyway, take
_overlap and _commute, so every decision equals theirs.  The trivial
context takes no matrix work: it lies below every other context, its one
atom mapping to all.

A context with n atoms p_k is looked up among the stored ones in a grid
hash on (n, f // w) with f = sum_k <v, p_k v>^2 for a fixed unit probe v
and a cell width w = 4 n dim tau_proj, wide enough that every stored
context with the same atoms within tau_proj lies in the context's cell or
a neighbour (see QuantumModel._find_equal).  Each stored context is held
as its atoms alone.  The closure settles every candidate (the trivial
context, an observable's, a meet or a join) the same way before it builds
it: the key comes from the candidate's atoms, the stored contexts in its
cells are compared with them, and only a candidate that matches none is
sorted, named, checked as a resolution of the identity and stored (see
QuantumModel._settle).  A meet is settled once per (context, component
masks): the same key always forms the same candidate, bit for bit, and
the store only appends, so the memo returns what settling again would
(see QuantumModel._add_meet).  The closure records each comparable pair's
embedding as it finds the pair.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, StructureError
from .formulas import WORD
from .gram import _Basis, _bases_of, _certificates, _row_masks
from .poset import ContextPoset, LocalAlgebra, _bits
from .sections import BOTTOM, ElementaryProposition, Frame

TAU_HERM = 1e-8
TAU_PROJ = 1e-8
TAU_EIG = 1e-6
# the fewest non-trivial pairs of a closure round read from Gram blocks: with
# the bases they need, the blocks cost a fixed 50-60 numpy calls, as much as
# about five pairs' exact products, and in a first round most pairs commute
# and need their products anyway
_MIN_GRAM_PAIRS = 10
TOLERANCES = ("tau_herm", "tau_proj", "tau_eig")  # the options a quantum model file may set

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


def _embeddings(rows: list[int], n2: int) -> tuple[list[int] | None, list[int] | None]:
    """The embeddings of c1 in c2 and of c2 in c1 read from the row masks of
    their overlap graph, c2 having n2 atoms; None for a pair not so ordered.
    c1 <= c2 iff every column has exactly one bit: the rows are pairwise
    disjoint (their bit counts add up to the bits of their union) and cover
    all n2 columns; the rows are then the embedding.  c2 <= c1 iff every row
    has exactly one bit; the embedding is the transpose, each column the
    mask of the rows holding its bit."""
    union = 0
    for r in rows:
        union |= r
    up = rows if union == (1 << n2) - 1 and sum(map(int.bit_count, rows)) == n2 else None
    down = None
    if all(r and not r & (r - 1) for r in rows):
        down = [0] * n2
        for i, r in enumerate(rows):
            down[r.bit_length() - 1] |= 1 << i
    return up, down


def _components(rows: Sequence[int]) -> tuple[int, ...]:
    """The connected components of an overlap graph given by its row masks,
    each as the mask of its c1 atoms, in order of their least index.  Each
    row in turn merges with the components whose c2 atoms it shares a bit
    with; the components so far have disjoint c2 masks, so one pass merges
    all it must.  Exact for meets: a component's atoms on either side sum to
    the same projection, and every common element is a union of components.
    The tuple of masks keys the meet memo (see QuantumModel._add_meet)."""
    comps: list[tuple[int, int]] = []  # (c1 mask, c2 mask)
    for i, r in enumerate(rows):
        own, linked, apart = 1 << i, r, []
        for c1, c2 in comps:
            if c2 & r:
                own, linked = own | c1, linked | c2
            else:
                apart.append((c1, c2))
        comps = apart + [(own, linked)]
    return tuple(sorted((c1 for c1, _ in comps), key=lambda m: m & -m))


@dataclass(eq=False)
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
    _probe: np.ndarray = field(init=False, repr=False)
    # (number of atoms, cell) -> [(insertion index, context id)], see _key
    _cells: dict[tuple[int, int], list[tuple[int, str]]] = field(init=False, repr=False)
    # (context, its atoms' component masks) -> the id of that meet, see _add_meet
    _meets: dict[tuple[str, tuple[int, ...]], str] = field(init=False, repr=False)
    # observable -> the atom of its context for each of its eigenvalue clusters
    _cluster_atoms: dict[str, tuple[str, ...]] = field(init=False, repr=False)
    # context id -> its basis, or None for one that takes the exact path, made
    # when the context first enters a round of Gram blocks, see _certify
    _bases: dict[str, _Basis | None] = field(init=False, repr=False)

    def __post_init__(self):
        for option in TOLERANCES:
            tau = getattr(self, option)
            if not 0 <= tau < math.inf:  # NaN fails too
                raise DomainError(f"option {option!r} must be finite and at least 0, got {tau!r}")
        # an observable name is a formula identifier, so none spells a
        # generated context id ("1", "(a^b)", "a*b") and overwrites its context
        for name in self.observables:
            if not (isinstance(name, str) and re.fullmatch(WORD, name)):
                raise DomainError(f"observable name {name!r} is not an identifier ({WORD})")
        mats = {k: np.asarray(v, dtype=complex) for k, v in self.observables.items()}
        for k, m in mats.items():
            if not np.isfinite(m).all():
                raise DomainError(f"observable {k!r} has a non-finite entry")
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

    def _key(self, atoms: np.ndarray) -> tuple[int, int]:
        """(n, f // (4 n dim tau_proj)) for a stack of n atoms p_k, with
        f = sum_k x_k^2 over their probe values x_k = <v, p_k v>, each
        clipped to [0, 1]; the width has 1e-12 more for the rounding of f."""
        x = (atoms @ self._probe).dot(self._probe.conj()).real.tolist()
        n = len(x)
        f = sum(min(max(xk, 0.0), 1.0) ** 2 for xk in x)
        return n, math.floor(f / (4 * n * self.dim * self.tau_proj + 1e-12))

    def _settle(self, atoms: np.ndarray, new: Callable[[], tuple[str, QuantumContext]]) -> str:
        """The id of the earliest stored context whose atoms match `atoms`;
        only when none does, new() gives the (id, context) with these atoms,
        which is checked as a resolution of the identity and stored."""
        key = self._key(atoms)
        found = self._find_equal(atoms, key)
        if found is not None:
            return found
        cid, ctx = new()
        for issue in validate_resolution(ctx.atoms, self.tau_proj):
            raise StructureError(f"context {cid!r}: {issue}")
        self._cells.setdefault(key, []).append((len(self.contexts), cid))
        self.contexts[cid] = ctx
        return cid

    def _add_meet(self, a: str, b: str, comps: tuple[int, ...]) -> str:
        """The id of the meet of contexts a and b, whose overlap graph has the
        components `comps` (masks of a's atoms, see _components): its atoms
        are the sums of a's atoms over the components, sorted and named only
        for a new context.

        Settled once per (a, comps): the candidate is stacked from a's stored
        atoms, summed in index order, so the same key always forms a
        bitwise-identical array, and the store only ever appends, so the
        earliest stored match that _settle returned the first time is still
        the earliest.  The memo returns exactly the id a fresh _settle would.
        """
        key = (a, comps)
        cid = self._meets.get(key)
        if cid is None:
            atoms = self.contexts[a].atoms
            meet = np.stack([sum(atoms[i] for i in _bits(m)) for m in comps])

            def new() -> tuple[str, QuantumContext]:
                k = _atom_order(meet)
                return f"({a}^{b})", QuantumContext(tuple(f"m{i}" for i in range(len(k))), meet[k])

            cid = self._meets[key] = self._settle(meet, new)
        return cid

    def _add_join(self, a: str, b: str, prods: np.ndarray, edges: np.ndarray) -> str:
        """The id of the join of commuting contexts a and b, whose atoms are
        the non-zero products prods[edges], named only for a new context."""
        atoms = prods[edges]

        def new() -> tuple[str, QuantumContext]:
            na, nb = self.contexts[a].atom_names, self.contexts[b].atom_names
            names = tuple(f"{na[i]}.{nb[j]}" for i, j in np.argwhere(edges).tolist())
            return f"{a}*{b}", QuantumContext(names, atoms)

        return self._settle(atoms, new)

    def _certify(
        self, pairs: list[tuple[str, str]]
    ) -> dict[tuple[str, str], tuple[list[int] | None, bool]]:
        """The certificates (see _certificates) of the pairs whose contexts
        both have a basis, each basis measured when its context first needs
        it.  A round of fewer than _MIN_GRAM_PAIRS pairs gets none."""
        if len(pairs) < _MIN_GRAM_PAIRS:
            return {}
        if fresh := sorted({c for ab in pairs for c in ab} - self._bases.keys()):
            self._bases.update(zip(fresh, _bases_of([self.contexts[c] for c in fresh])))
        based = [
            (a, b) for a, b in pairs if self._bases[a] is not None and self._bases[b] is not None
        ]
        if not based:
            return {}
        certs = _certificates([(self._bases[a], self._bases[b]) for a, b in based], self.tau_proj)
        return dict(zip(based, certs))

    def _build(self):
        self.contexts = {}
        self.obs_context = {}
        # the probe of the dedup grid (_key), in closed form
        idx = np.arange(1, self.dim + 1)
        probe = np.sqrt(idx) * np.exp(1j * idx * 0.6180339887498949)
        self._probe = probe / np.linalg.norm(probe)
        self._cells = {}
        trivial = _trivial_context(self.dim)
        self._settle(trivial.atoms, lambda: (TRIVIAL_ID, trivial))
        # an observable's eigenvalue cluster k is atom k of its own context,
        # or the atom that _find_equal's match paired it with
        self._cluster_atoms = {}
        for name in sorted(self.observables):
            ctx = _spectral_context(self.spectra[name], name, self.dim)
            cid = self.obs_context[name] = self._settle(ctx.atoms, lambda: (name, ctx))
            stored = self.contexts[cid]
            if stored is ctx:
                ks = range(len(ctx.atoms))
            else:
                ks = _pairing(ctx.atoms, stored.atoms, self.tau_proj)
            self._cluster_atoms[name] = tuple(stored.atom_names[k] for k in ks)
        # close under pairwise meets and commuting joins; a pair taken once
        # yields no new context when taken again, so each pair is taken once,
        # in sorted order.  The trivial context lies below every other, its
        # one atom mapping to all of theirs.  A comparable pair has the pair
        # itself as meet and join, both stored already; its embedding is read
        # off the overlap graph's row masks.  _overlap and _commute decide
        # what the Gram blocks do not certify, and make the products of a
        # join candidate
        self._meets = {}
        self._bases = {}
        taken: set[tuple[str, str]] = set()
        images = {}
        while pairs := [
            ab for ab in itertools.combinations(sorted(self.contexts), 2) if ab not in taken
        ]:
            taken.update(pairs)
            certified = self._certify([ab for ab in pairs if TRIVIAL_ID not in ab])
            for a, b in pairs:
                if TRIVIAL_ID in (a, b):
                    other = b if a == TRIVIAL_ID else a
                    images[TRIVIAL_ID, other] = [(1 << len(self.contexts[other].atoms)) - 1]
                    continue
                ca, cb = self.contexts[a], self.contexts[b]
                rows, apart = certified.get((a, b), (None, False))
                prods = None
                if rows is None:
                    prods, e = _overlap(ca, cb, self.tau_proj)
                    rows = _row_masks(e)
                up, down = _embeddings(rows, len(cb.atoms))
                if up is not None:
                    images[a, b] = up
                if down is not None:
                    images[b, a] = down
                if up is not None or down is not None:
                    continue
                self._add_meet(a, b, _components(rows))
                if apart:
                    continue
                if prods is None:
                    prods, e = _overlap(ca, cb, self.tau_proj)
                if _commute(prods, self.tau_proj):
                    self._add_join(a, b, prods, e)
        contexts = {
            cid: LocalAlgebra(ctx.atom_names) for cid, ctx in self.contexts.items()
        }
        self.poset = ContextPoset(contexts, embeddings=images)
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
