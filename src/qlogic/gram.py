"""Certified overlap and commutation decisions from Gram blocks.

The quantum closure decides, for each pair of contexts a and b, the
overlap graph ||p_i q_j||_max > tau_proj and whether every p_i commutes
with every q_j (see quantum._products).  Both are read here, where
they can be certified, from the Gram matrix G = U_a^dagger U_b of two
orthonormal bases, one per context, whose
column groups span the atoms' ranges (see _measured_bases): its blocks'
Frobenius norms bound max|p_i q_j| within a factor dim, and the
off-block mass of G Lambda_b G^dagger is ||[p_i, sum_j j q_j]||_F, so a
value far enough from the tolerance on the right side decides the
question as the products would (see _certificates, after the
principal-angle bounds of Bjorck and Golub, Numerical methods for
computing angles between linear subspaces, 1973).  A call stacks the
distinct bases of its pairs once, U and the column groups, 24 dim^2
bytes a basis, and reads the pairs in bounded batches, never one Gram
matrix over all pairs at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .quantum import QuantumContext

_EPS = float(np.finfo(float).eps)
# complex entries per stack of dim x dim matrices in one batch
_GRAM_ENTRIES = 2**12


def _row_masks(edges: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, bit j for column j: packed to
    bytes once, each row's bytes read as one Python int, so a context of
    more than 63 atoms fits.  The ints hold the whole graph, so the order,
    embeddings and components read from them (quantum._embeddings and
    quantum._components) are exact integer work on the one tolerance
    decision, made by quantum._products or certified equal to it (see
    _certificates)."""
    packed = np.packbits(edges, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]


@dataclass(frozen=True, eq=False)
class _Basis:
    """A stored context's atoms as column groups of one near-unitary U: the
    columns with label k span atom p_k's range, and rho bounds both
    max|p_k - V_k V_k^dagger|, V_k those columns, and max|U^dagger U - 1|."""

    u: np.ndarray  # (dim, dim)
    labels: np.ndarray  # (dim,) float: the atom of each column, non-decreasing
    n: int  # the number of atoms
    rho: float


def _bases_of(ctxs: Sequence[QuantumContext]) -> list[_Basis | None]:
    """The bases of contexts of one dimension, measured in batches of at
    most _GRAM_ENTRIES / dim^2 atoms (see _measured_bases)."""
    dim = ctxs[0].atoms.shape[1]
    limit = max(1, _GRAM_ENTRIES // dim**2)
    out: list[_Basis | None] = []
    chunk: list[QuantumContext] = []
    atoms = 0
    for ctx in ctxs:
        if chunk and atoms + len(ctx.atoms) > limit:
            out += _measured_bases(chunk, dim)
            chunk, atoms = [], 0
        chunk.append(ctx)
        atoms += len(ctx.atoms)
    return out + _measured_bases(chunk, dim)


def _groups(labels: np.ndarray) -> np.ndarray:
    """(..., dim, dim) float from (..., dim) labels: row k is 1 on the
    columns of atom k, the rows past the atoms 0."""
    return (np.arange(labels.shape[-1])[:, None] == labels[..., None, :]).astype(float)


def _measured_bases(ctxs: Sequence[QuantumContext], dim: int) -> list[_Basis | None]:
    """The bases of the contexts, measured at once.  A context's U is the
    eigenvector matrix of sum_k k p_k, whose eigenvalue k, in ascending
    order, belongs to atom k, all from one eigh call; the group sizes are
    its atoms' traces rounded, and rho is measured, plus 2 dim eps for its
    own rounding.  None for a context whose sizes do not split dim, or with
    16 dim rho > 1, past which the bounds of _certificates are not derived."""
    counts = [len(c.atoms) for c in ctxs]
    starts = [0, *itertools.accumulate(counts[:-1])]
    atoms = np.concatenate([c.atoms for c in ctxs])
    sizes = np.rint(np.trace(atoms, axis1=1, axis2=2).real).astype(int).tolist()
    owner, local, labels, fits = [], [], [], []
    for i, (at, n) in enumerate(zip(starts, counts)):
        part = sizes[at : at + n]
        fits.append(min(part) >= 1 and sum(part) == dim)
        owner += [i] * n
        # each atom's index in its context; 0 in a context that keeps no
        # basis, which may hold more atoms than dim has column groups
        local += range(n) if fits[-1] else [0] * n
        labels.append(
            [k for k, size in enumerate(part) for _ in range(size)] if fits[-1] else [0] * dim
        )
    labels = np.array(labels, dtype=float)
    u = np.linalg.eigh(np.add.reduceat(np.array(local)[:, None, None] * atoms, starts))[1]
    own = u[owner]
    recon = (own * _groups(labels)[owner, local][:, None]) @ own.conj().swapaxes(1, 2)
    residual = np.maximum.reduceat(np.abs(recon - atoms).max(axis=(1, 2)), starts)
    ortho = np.abs(u.conj().swapaxes(1, 2) @ u - np.eye(dim)).max(axis=(1, 2))
    rho = (np.maximum(residual, ortho) + 2 * dim * _EPS).tolist()
    return [
        _Basis(u[i], labels[i], n, rho[i]) if fits[i] and 16 * dim * rho[i] <= 1 else None
        for i, n in enumerate(counts)
    ]


def _certificates(
    pairs: Sequence[tuple[_Basis, _Basis]], tol: float
) -> list[tuple[list[int] | None, bool]]:
    """For each pair (a, b) of bases, all of one dimension, the row masks of
    the overlap graph that the products would give, or None when a block is
    not certified, and whether the atoms are certified not to commute.
    Read from the Gram matrices G = U_a^dagger U_b of bounded batches of
    pairs, the distinct bases stacked once.

    Edges: the block G_ij holds the overlaps of the columns of p_i and q_j,
    so for an exactly unitary U, F_ij = ||G_ij||_F = ||p_i q_j||_F, and
    max|p_i q_j| <= F_ij <= dim max|p_i q_j|.  With rho the largest residual
    of the bases, o = 2 dim rho + dim eps bounds how far ||U||_2^2 and
    sigma_min(U)^2 stray from 1 (by Gershgorin on U^dagger U - 1), and
    delta = 4 sqrt(dim) rho + dim rho^2 + 32 dim^2 eps bounds the max-abs
    effect of the residuals p_k - V_k V_k^dagger on a product and the
    rounding of both readings.  So (1 + 2 o) F <= tol - delta certifies a
    non-edge and (1 - o) F > dim (tol + delta) an edge.  At tol = 0 no
    non-edge is certified.

    Non-commutation: K = G Lambda_b G^dagger, Lambda_b holding the atom
    index of each of b's columns, is sum_j j q_j in a's basis, so
    S_i^2 = 2 sum_{x in i, y not in i} |K_xy|^2 = ||[p_i, sum_j j q_j]||_F^2
    for exactly unitary U.  If the products commuted, every max|[p_i, q_j]|
    would be at most tol + 2 delta, and S_i at most m dim (tol + 2 delta)
    with m = n_b (n_b - 1) / 2, up to the terms in o and the rounding of K
    that the threshold adds.  Squares are compared, so no square root is
    taken of a rounding error."""
    index = {x: i for i, x in enumerate(dict.fromkeys(itertools.chain.from_iterable(pairs)))}
    dim = pairs[0][0].u.shape[0]
    rho = max(x.rho for x in index)
    o = 2 * dim * rho + dim * _EPS
    r = 32 * dim * dim * _EPS
    delta = 4 * math.sqrt(dim) * rho + dim * rho * rho + r
    lo = (tol - delta) / (1 + 2 * o)
    lo2 = lo * lo if lo >= 0 else -1.0
    hi2 = (dim * (tol + delta) / (1 - o)) ** 2
    # the least S_i^2 that certifies non-commutation, by the number of b's atoms
    apart2 = [
        (
            (m * (m - 1) / 2 * dim * (tol + 2 * delta) + 4 * m * math.sqrt(dim) * o) / (1 - o)
            + m * r
        ) ** 2
        for m in range(dim + 1)
    ]
    u = np.stack([x.u for x in index])
    labels = np.stack([x.labels for x in index])
    groups = _groups(labels)
    out = []
    step = max(1, _GRAM_ENTRIES // dim**2)
    for start in range(0, len(pairs), step):
        batch = pairs[start : start + step]
        ia, ib = np.array([(index[a], index[b]) for a, b in batch]).T
        ga = groups[ia]
        g = u[ia].conj().swapaxes(1, 2) @ u[ib]
        f2 = np.abs(g)
        f2 *= f2
        f2 = ga @ f2 @ groups[ib].swapaxes(1, 2)
        edge = f2 > hi2
        # the blocks decided either way; a padding block (f2 = 0) is
        # decided, as a non-edge, exactly when lo >= 0
        decided = (edge | (f2 <= lo2)).sum(axis=(1, 2)).tolist()
        k = g * labels[ib][:, None]
        k = np.abs(k @ np.conjugate(g, out=g).swapaxes(1, 2))
        k *= k
        off = (2 * ((ga @ k) * (1 - ga)).sum(axis=2).max(axis=1)).tolist()
        rows = _row_masks(edge.reshape(-1, dim))
        for t, (a, b) in enumerate(batch):
            sure = decided[t] == (dim * dim if lo >= 0 else a.n * b.n)
            out.append((rows[t * dim : t * dim + a.n] if sure else None, off[t] > apart2[b.n]))
    return out
