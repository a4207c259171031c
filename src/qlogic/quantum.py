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
qlogic.gram).  A context that enters a run (see below) of at least
_MIN_GRAM_PAIRS pairs gets an orthonormal basis whose column groups span
its atoms' ranges, from one eigh of sum_k k p_k, with a residual measured
once.  A pair with a block the Gram matrix leaves undecided, and a join
candidate, which needs the products anyway, are multiplied (see
_products), so every decision equals the products'.  The trivial context
is never paired: it lies below every other context, its one atom mapping
to all, so its embeddings are written once the rounds are done, and no
round, run, certificate or product ever holds it.

Each closure round pairs the other contexts stored when it starts, keeping
the pairs with a member that the last round stored, and takes them in runs
of at most _GRAM_ENTRIES pairs.  Each run has two passes over its pairs
(see QuantumModel._round): the first reads the graphs from their
certificates, records the comparable pairs' embeddings and lists the meets
and join candidates in pair order; the second walks that list in order and
settles it.  Only the second stores contexts, and no pair of the round
holds one it stored, so the runs settle in the round's pair order whatever
their size.  The numpy work is done in bounded batches, a few calls over
many small matrices instead of many calls over one each, as in batched
BLAS (Dongarra et al., 2017): the join candidates' products, graphs and
commutation, and at the round's end the check of its new contexts as
resolutions of the identity (see _issues).  Every batch walks its own list
in order and is cut by one rule (see gram._runs): the items in runs of at
most _GRAM_ENTRIES complex entries (or pairs) or one item alone, one run
alive at a time.  So the round's pairs, the Gram bases and blocks, the
second pass's list (a pair that is no join candidate holding no entries)
and the new contexts in store order each fall into runs of their own list,
and nothing regroups a list by atom count but the products within a run.

A context with n atoms p_k is looked up among the stored ones in a grid
hash on (n, f // w) with f = sum_k x_k^2 over its probe values
x_k = <v, p_k v> for a fixed unit probe v, and a cell width
w = 4 n dim tau_proj + dim^3 2^-44, wide enough that every stored context
with the same atoms within tau_proj lies in the context's cell or a
neighbour.  Every candidate is keyed the same way, from its own atoms as
they stand (see QuantumModel._key and _find_equal).  Each stored context
is held as its atoms alone.  The closure settles every candidate (the
trivial context, an observable's, a meet or a join) the same way before
it builds it: the stored contexts in its key's cells are compared with
its atoms, and only a candidate that matches none is sorted, named and
stored, to be checked at the end of its round, the trivial context and the
observables' before the first (see QuantumModel._settle and _check).

A meet is read off the order before any candidate is formed (see
QuantumModel._add_meet).  A graph with one component gives the trivial
context, exactly: its one sum is bit for bit the sum that _check held within
tau_proj of the identity.  The closure records each comparable pair's
embedding x <= y as it finds the pair, and with it x as the meet keyed by y
and the partition of y's atoms that x's atoms make.  Only a meet that
neither gives is stacked and settled, once per (context, component masks):
the same key always forms the same candidate, bit for bit, and the store
only appends, so the memo returns what settling again would.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, StructureError
from .formulas import WORD
from .gram import _Basis, _bases_of, _certificates, _row_masks, _runs
from .poset import ContextPoset, LocalAlgebra, _bits
from .sections import BOTTOM, ElementaryProposition, Frame

TAU_HERM = 1e-8
TAU_PROJ = 1e-8
TAU_EIG = 1e-6
# the fewest non-trivial pairs of a round's run read from Gram blocks: with
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
    # a difference past the float range reads inf: simply not Hermitian
    with np.errstate(over="ignore", invalid="ignore"):
        return m.shape[0] == m.shape[1] and _maxabs(m - m.conj().T) <= tol


def is_projection(m: np.ndarray, tol: float = TAU_PROJ) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        return is_hermitian(m, tol) and _maxabs(m @ m - m) <= tol


def _matrices(value, what: str, ndim: int = 2) -> np.ndarray:
    """value as a complex array of one non-empty square matrix (ndim 2) or a
    stack of them (ndim 3, empty too), all entries finite; else
    DomainError, naming `what`."""
    try:
        m = np.asarray(value, dtype=complex)
    except OverflowError:  # an int past the float range
        raise DomainError(f"{what} has an entry past the float range") from None
    except (TypeError, ValueError):  # a ragged list, a string, an object
        raise DomainError(f"{what} is not an array of numbers") from None
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or not m.shape[-1]:
        kind = "a non-empty square matrix" if ndim == 2 else "a stack of non-empty square matrices"
        raise DomainError(f"{what} must be {kind}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError(f"{what} has a non-finite entry")
    return m


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Clustered eigenvalues with matching spectral projections.

    Compared and hashed by identity: the projections are an array."""

    eigenvalues: tuple[float, ...]
    projections: np.ndarray  # (clusters, dim, dim): row k belongs to eigenvalue k


def spectral_decompose(
    h: np.ndarray, tau_herm: float = TAU_HERM, tau_eig: float = TAU_EIG
) -> SpectralData:
    h = _matrices(h, "matrix")
    if not is_hermitian(h, tau_herm):
        raise DomainError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    top = float(np.max(np.abs(w)))
    # past this bound a gap between eigenvalues or a cluster's sum may overflow
    bound = np.finfo(float).max / (2 * len(w))
    if not top <= bound:  # inf and NaN too
        e = w[np.argmax(np.abs(w))]
        raise DomainError(f"eigenvalue {e:g} exceeds max_float / (2 dim) = {bound:.3g} in magnitude")
    scale = max(1.0, top)
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
    value must be a real number within tau_eig * scale of exactly one
    cluster."""
    scale = max(1.0, max(abs(e) for e in sd.eigenvalues))
    out = set()
    for x in delta:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise DomainError(f"value {x!r} is not a real number")
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


# _atom_order's rounding in decimals, so that noise far below 1e-6 seldom moves an atom's name
_NAME_DIGITS = 6


def _atom_order(stack: np.ndarray) -> list[int]:
    """Indices that sort a stack of atoms by rank, then by the moment
    sum_i i p_ii, then by the entries, real parts before imaginary parts,
    moments and entries rounded to _NAME_DIGITS.  Entries are read only on a
    tie in (rank, moment): the sort is stable, so otherwise they decide nothing."""
    n, dim, _ = stack.shape
    diag = np.diagonal(stack, axis1=1, axis2=2)
    ranks = np.rint(np.sum(diag, axis=1).real).astype(int).tolist()
    moments = [round(m, _NAME_DIGITS) for m in np.sum(diag * np.arange(dim), axis=1).real.tolist()]
    keys = list(zip(ranks, moments))
    if len(set(keys)) < n:
        flat = np.round(stack, _NAME_DIGITS).reshape(n, -1)
        keys = list(zip(ranks, moments, flat.real.tolist(), flat.imag.tolist()))
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
    projections that sum to the identity, each within tol in max-abs: the
    one-stack call of _issues."""
    return _issues([_matrices(atoms, "atoms", 3)], tol)[0]


def _issues(stacks: Sequence[np.ndarray], tol: float) -> list[list[str]]:
    """validate_resolution's issues of each stack of atoms, all of one
    dimension and of any atom counts, in order: per atom i, not a projection
    (Hermitian and p_i p_i = p_i), zero, then not orthogonal to each later
    atom j (p_i p_j = 0); last, not summing to the identity.  The atoms are
    concatenated once; their products p_i p_i, then p_i p_j, i < j, are made
    in runs (see _runs) of at most _GRAM_ENTRIES entries, or one product,
    never as one (n, n) table, and each stack is summed on its own."""
    dim = stacks[0].shape[-1]
    counts = [len(a) for a in stacks]
    flat = np.concatenate(stacks)
    herm = np.abs(flat - flat.conj().swapaxes(1, 2)).max(axis=(1, 2))
    zero = iter((np.abs(flat).max(axis=(1, 2)) <= tol).tolist())
    idem = np.empty(len(flat))
    for run in _runs(range(len(flat)), lambda _: dim * dim):
        p = flat[run[0] : run[-1] + 1]
        idem[run] = np.abs(p @ p - p).max(axis=(1, 2))
    proj = iter(((herm <= tol) & (idem <= tol)).tolist())
    # each stack's pairs, shifted to where its atoms start in flat
    starts = [0, *itertools.accumulate(counts[:-1])]
    upper = [_upper(n) for n in counts]
    left, right = np.concatenate(upper, axis=1) + np.repeat(starts, [u.shape[1] for u in upper])
    apart = np.empty(len(left))
    for run in _runs(range(len(left)), lambda _: dim * dim):
        apart[run] = np.abs(flat[left[run]] @ flat[right[run]]).max(axis=(1, 2))
    apart = iter((apart > tol).tolist())
    sums = np.stack([a.sum(axis=0) for a in stacks])
    whole = (np.abs(sums - np.eye(dim)).max(axis=(1, 2)) > tol).tolist()
    out = []
    for n, bad in zip(counts, whole):
        issues = []
        for i in range(n):
            if not next(proj):
                issues.append(f"atom {i} is not a projection")
            if next(zero):
                issues.append(f"atom {i} is zero")
            issues += [f"atoms {i},{j} are not orthogonal" for j in range(i + 1, n) if next(apart)]
        if bad:
            issues.append("atoms do not sum to the identity")
        out.append(issues)
    return out


@functools.lru_cache(maxsize=64)
def _upper(n: int) -> np.ndarray:
    """(2, n (n - 1) / 2): the atom indices i < j of the pairs of a stack of
    n atoms, row by row: (0, 1), (0, 2), ..., (1, 2), ..."""
    return np.array(np.triu_indices(n, 1))


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
    sd = spectral_decompose(h, tau_herm, tau_eig)
    return _spectral_context(sd, name, sd.projections.shape[-1])


def _products(
    pairs: Sequence[tuple[QuantumContext, QuantumContext]], tol: float
) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """For each pair (c1, c2) of contexts, all of one dimension: the atom
    products prods[i, j] = p_i q_j, the overlap graph edges[i, j] =
    ||p_i q_j||_max > tol, and whether the atoms commute within tol.  The
    pairs of the same atom counts are multiplied in one batch, each product
    made alone, as the pair's own (n1, n2) batch would make it.
    Commutation is read off the products: p q - q p = p q - (p q)^dagger
    for Hermitian p and q."""
    out: list = [None] * len(pairs)
    groups: dict[tuple[int, int], list[int]] = {}
    for t, (c1, c2) in enumerate(pairs):
        groups.setdefault((len(c1.atoms), len(c2.atoms)), []).append(t)
    for ts in groups.values():
        a = np.stack([pairs[t][0].atoms for t in ts])
        b = np.stack([pairs[t][1].atoms for t in ts])
        prods = a[:, :, None] @ b[:, None]
        edges = np.abs(prods).max(axis=(3, 4)) > tol
        # the adjoints copied out contiguous, which a subtraction of the
        # strided view makes several times slower at dim 16
        d = np.ascontiguousarray(prods.swapaxes(3, 4))
        np.conjugate(d, out=d)
        np.subtract(prods, d, out=d)
        commute = (np.abs(d).max(axis=(1, 2, 3, 4)) <= tol).tolist()
        for t, p, e, c in zip(ts, prods, edges, commute):
            out[t] = (p, e, c)
    return out


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
    return _partition(c1 for c1, _ in comps)


def _partition(masks: Iterable[int]) -> tuple[int, ...]:
    """Disjoint masks in order of their least index: the meet memo's key
    (see QuantumModel._add_meet), from _components or from an embedding."""
    return tuple(sorted(masks, key=lambda m: m & -m))


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
    # (context, a partition of its atoms as masks) -> the id of the meet with
    # those atom sums, settled or read off a recorded embedding, see _add_meet
    _meets: dict[tuple[str, tuple[int, ...]], str] = field(init=False, repr=False)
    # observable -> the atom of its context for each of its eigenvalue clusters
    _cluster_atoms: dict[str, tuple[str, ...]] = field(init=False, repr=False)
    # context id -> its basis, or None for one that takes the exact path, made
    # when the context first enters a round of Gram blocks, see _certify
    _bases: dict[str, _Basis | None] = field(init=False, repr=False)

    def __post_init__(self):
        for option in TOLERANCES:
            value = getattr(self, option)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"option {option!r} must be a number, got {value!r}")
            try:
                tau = float(value)
            except OverflowError:  # an int past the float range
                raise DomainError(f"option {option!r} is past the float range") from None
            if not 0 <= tau < math.inf:  # NaN fails too
                raise DomainError(f"option {option!r} must be finite and at least 0, got {value!r}")
            setattr(self, option, tau)
        # an observable name is a formula identifier, so none spells a
        # generated context id ("1", "(a^b)", "a*b") and overwrites its context
        for name in self.observables:
            if not (isinstance(name, str) and re.fullmatch(WORD, name)):
                raise DomainError(f"observable name {name!r} is not an identifier ({WORD})")
        mats = {k: _matrices(v, f"observable {k!r}") for k, v in self.observables.items()}
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
        2 dim tau, and the exact f by at most 2 n dim tau.  Each key's f is
        within r / 4 of its atoms' exact f (see _key), so two matching keys'
        f differ by at most half the cell width, 2 n dim tau + r / 2, and
        their f / w, rounded once more, by less than 1, at tau_proj = 0 too:
        every match lies in the key's cell or a neighbour, and the earliest
        of those is the earliest of all.
        """
        n, cell = key
        for _, cid in sorted(
            entry for c in (cell - 1, cell, cell + 1) for entry in self._cells.get((n, c), ())
        ):
            if same_atoms(atoms, self.contexts[cid].atoms, self.tau_proj):
                return cid
        return None

    def _key(self, atoms: np.ndarray) -> tuple[int, int]:
        """(n, f // w) for a stack of n atoms p_k: f = sum_k x_k^2 over their
        probe values x_k = <v, p_k v>, each clipped to [0, 1], and the cell
        width w = 4 n dim tau_proj + r, r = dim^3 2^-44 for rounding.

        Each x_k is computed as (p_k v) . conj(v).  With u = 2^-53 and
        gamma_k = k u / (1 - k u), Higham's bound on an inner product of
        length k (Accuracy and Stability of Numerical Algorithms, ch. 3)
        puts it within 3 gamma_(dim+2) |v|^T |p_k| |v| <= 6 gamma_(dim+2) dim
        of <v, p_k v> for entries of p_k at most 2, as near-projections and
        their sums and products have.  Over at most dim atoms, with
        |a^2 - b^2| <= 2|a - b| on [0, 1] and the rounding of the squares
        and of f, f lies within 13 dim^2 (dim + 2) u of its exact value to
        first order, well inside r / 4 = 128 dim^3 u."""
        n = len(atoms)
        x = (atoms @ self._probe).dot(self._probe.conj()).real.tolist()
        f = sum(min(max(xk, 0.0), 1.0) ** 2 for xk in x)
        return n, math.floor(f / (4 * n * self.dim * self.tau_proj + self.dim**3 * 2**-44))

    def _settle(self, atoms: np.ndarray, new: Callable[[], tuple[str, QuantumContext]]) -> str:
        """The id of the earliest stored context whose atoms match `atoms`,
        looked up under their key (see _key); only when none does, new()
        gives the (id, context) with these atoms, which is stored under that
        key, and checked with the rest of its round (see _check)."""
        key = self._key(atoms)
        found = self._find_equal(atoms, key)
        if found is not None:
            return found
        cid, ctx = new()
        self._cells.setdefault(key, []).append((len(self.contexts), cid))
        self.contexts[cid] = ctx
        return cid

    def _check(self, start: int) -> None:
        """Checks the contexts stored from insertion index `start` on as
        resolutions of the identity, walked in store order in runs of at most
        _GRAM_ENTRIES entries of atoms, or one context alone, as
        gram._bases_of cuts them (see _runs and _issues); raises the first
        issue of the first failing context as it comes to it."""
        fresh = itertools.islice(self.contexts.items(), start, None)
        for run in _runs(fresh, lambda item: item[1].atoms.size):
            for (cid, _), issues in zip(run, _issues([ctx.atoms for _, ctx in run], self.tau_proj)):
                if issues:
                    raise StructureError(f"context {cid!r}: {issues[0]}")

    def _add_meet(self, a: str, b: str, comps: tuple[int, ...]) -> str:
        """The id of the meet of contexts a and b, whose overlap graph has the
        components `comps` (masks of a's atoms, see _components): its atoms
        are the sums of a's atoms over the components, keyed in that order,
        sorted and named only for a new context.  It is read off the order
        where it can be, and only a meet that is not is stacked and settled.

        One component: the meet is the trivial context.  The candidate would
        be the one sum of all of a's atoms in index order, 0 + p_0 + p_1 +
        ..., bit for bit the a.atoms.sum(axis=0) that _check held within
        tau_proj of the identity before a was paired; so _settle would find
        the trivial context, which is stored first, the earliest of all.

        Otherwise the memo: a meet is settled once per (a, comps), since the
        same key always stacks a bitwise-identical candidate from a's stored
        atoms and the store only ever appends, so the earliest stored match
        that _settle returned the first time is still the earliest.  The
        memo is also seeded by the order: each recorded x <= y puts x under
        (y, x's atoms as masks of y's, see _partition), so a meet already
        placed below a is read from its embedding, not stacked again.  A
        seed can differ from a fresh settle only near tau_proj, where the
        settle would find an earlier near match of x or store a near
        duplicate of it, one the order could not tell from x."""
        if len(comps) == 1:
            return TRIVIAL_ID
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

    def _certify(
        self, pairs: list[tuple[str, str]]
    ) -> dict[tuple[str, str], tuple[list[int] | None, bool]]:
        """The certificates (see _certificates) of the pairs whose contexts
        both have a basis, each basis measured when its context first needs
        it.  A run of fewer than _MIN_GRAM_PAIRS pairs gets none."""
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

    def _round(self, pairs: list[tuple[str, str]], images: dict) -> None:
        """One run of a closure round's pairs, in two passes.  The first reads
        each pair's graph from its certificate, records a comparable pair's
        embeddings, and lists the meet (by components) and whether the pair
        is a join candidate, not certified apart; a pair without a certified
        graph is listed for its products.  The second walks the list in
        order, in runs (see _runs) of at most _GRAM_ENTRIES entries of join
        candidates' products, a pair that is no candidate counting none: a
        run's candidates are multiplied in one _products call, none for a run
        without one, and the run is settled in order before the next is made."""

        def ordered(a: str, b: str, rows: list[int]) -> bool:
            """Records the embeddings of a comparable pair, each also as the
            meet of its upper context with the partition it makes there."""
            up, down = _embeddings(rows, len(self.contexts[b].atoms))
            if up is not None:
                images[a, b] = up
                self._meets.setdefault((b, _partition(up)), a)
            if down is not None:
                images[b, a] = down
                self._meets.setdefault((a, _partition(down)), b)
            return up is not None or down is not None

        def settle(run: list) -> None:
            """Settles one run of the list; its products die with the call."""
            joins = [(self.contexts[a], self.contexts[b]) for a, b, _, join in run if join]
            made = iter(_products(joins, self.tau_proj) if joins else ())
            for a, b, comps, join in run:
                if join:
                    prods, edges, commute = next(made)
                if comps is None:
                    rows = _row_masks(edges)
                    if ordered(a, b, rows):
                        continue
                    comps = _components(rows)
                self._add_meet(a, b, comps)
                if join and commute:
                    atoms = prods[edges]

                    def new() -> tuple[str, QuantumContext]:
                        na, nb = self.contexts[a].atom_names, self.contexts[b].atom_names
                        names = tuple(f"{na[i]}.{nb[j]}" for i, j in np.argwhere(edges).tolist())
                        return f"{a}*{b}", QuantumContext(names, atoms)

                    self._settle(atoms, new)

        certified = self._certify(pairs)
        todo = []  # (a, b, components or None for a graph still to make, products needed)
        for a, b in pairs:
            rows, apart = certified.get((a, b), (None, False))
            if rows is None:
                todo.append((a, b, None, True))
            elif not ordered(a, b, rows):
                todo.append((a, b, _components(rows), not apart))

        def entries(item: tuple) -> int:
            """A join candidate's products hold n_a n_b dim^2 entries, a meet none."""
            a, b, _, join = item
            return self.contexts[a].atoms.size * len(self.contexts[b].atoms) if join else 0

        for run in _runs(todo, entries):
            settle(run)

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
        self._check(0)
        # close under pairwise meets and commuting joins; a pair taken once
        # yields no new context when taken again, so a round pairs the
        # contexts stored when it starts, in sorted order, and keeps the
        # pairs with a member the last round stored (the first round keeps
        # every pair).  It takes them in runs of at most _GRAM_ENTRIES pairs
        # (see _runs); a context it stores is checked at its end, before any
        # product is made of it.  A comparable pair has the pair itself as
        # meet and join, both stored already; its embedding is read off the
        # overlap graph's row masks.  The trivial context, stored first, is
        # never paired: it lies below every other, its meet with any is
        # itself and its join the other, so it enters the order once the
        # rounds are done, its one atom mapping to all of each other's
        self._meets = {}
        self._bases = {}
        images = {}
        start = 1
        while start < len(self.contexts):
            fresh = set(itertools.islice(self.contexts, start, None))
            start = len(self.contexts)
            pairs = itertools.combinations(sorted(self.contexts.keys() - {TRIVIAL_ID}), 2)
            kept = (ab for ab in pairs if not fresh.isdisjoint(ab))
            for run in _runs(kept, lambda _: 1):
                self._round(run, images)
            self._check(start)
        for cid, ctx in itertools.islice(self.contexts.items(), 1, None):
            images[TRIVIAL_ID, cid] = [(1 << len(ctx.atoms)) - 1]
        contexts = {
            cid: LocalAlgebra(ctx.atom_names) for cid, ctx in self.contexts.items()
        }
        self.poset = ContextPoset(contexts, embeddings=images)
        # equality and order are two decisions, which a large tau_proj can
        # set at odds: refuse a closure that fails its own check.  The poset
        # refuses maps that are no embeddings and paths that do not compose;
        # the closure gives every comparable pair, so a chain of given pairs
        # whose end pair it left out breaks transitivity; then the meets
        ids = sorted(contexts)
        bit = {c: 1 << k for k, c in enumerate(ids)}
        given = dict(bit)
        for a, b in images:
            given[a] |= bit[b]
        for a in ids:
            for b in (ids[k] for k in _bits(given[a] & ~bit[a])):
                for c in (ids[k] for k in _bits(given[b] & ~given[a])):
                    raise StructureError(f"order not transitive at {a!r} <= {b!r} <= {c!r}")
        issues = self.poset.validate()
        if issues:
            raise StructureError(issues[0])
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
