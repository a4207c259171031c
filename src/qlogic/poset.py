"""Finite posets of measurement contexts.

A context is identified by a string id and carries a finite Boolean
algebra given by its atoms; elements of the algebra are frozensets of
atom names.  Contexts are ordered by informativeness: ``c1 <= c2`` means
a measurement in ``c2`` settles every question ``c1`` can answer, that is,
c1's algebra embeds in c2's, so a poset is given by its embeddings alone.
An embedding maps each coarse atom to the fine atoms refining it, in one
format, in and out: per atom of the lower context, in its
``LocalAlgebra.atoms`` order, an int whose bit s is the upper context's
atom s.  A map of the wrong length, or naming an atom the upper context
lacks, is no embedding and is refused on construction.  The order,
validate(), embed() and the (context, atom) point poset, whose up-sets are
the sections (Birkhoff), are all read from these masks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DomainError, QLogicError, ResourceLimitError, StructureError, UnknownContextError
)

Element = frozenset  # subset of a context's atoms

DEFAULT_ENUM_GUARD = 10**6
ENUM_GUARD_ENV = "QLOGIC_ENUM_GUARD"


def check_enumeration(bound: int) -> None:
    """Refuse, before any work, an enumeration of up to bound = 2^k items
    over the guard read from QLOGIC_ENUM_GUARD (default 10**6); the error
    names the bound as 2^k."""
    text = os.environ.get(ENUM_GUARD_ENV)
    try:
        guard = int(text) if text else DEFAULT_ENUM_GUARD
    except ValueError:
        raise QLogicError(f"{ENUM_GUARD_ENV} must be an integer, got {text!r}") from None
    if bound > guard:
        raise ResourceLimitError(
            f"enumeration bound 2^{bound.bit_length() - 1} exceeds guard {guard}"
        )


@dataclass(frozen=True)
class LocalAlgebra:
    """Finite Boolean algebra presented by its atoms."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not self.atoms:
            raise StructureError("a local algebra needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise StructureError("atoms must be pairwise distinct")

    @property
    def top(self) -> Element:
        return frozenset(self.atoms)

    def contains(self, x: Element) -> bool:
        return x <= self.top

    def elements(self) -> Iterable[Element]:
        """All 2^n elements, bottom first, in a stable order (guarded)."""
        n = len(self.atoms)
        check_enumeration(1 << n)
        for mask in range(1 << n):
            yield frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _extreme(mask: int, masks: list[int]) -> int | None:
    """The member g of mask whose masks[g] holds all of mask, or None."""
    rest = mask
    while rest:
        g = (rest & -rest).bit_length() - 1
        if masks[g] & mask == mask:
            return g
        rest &= rest - 1
    return None


class PointTable(NamedTuple):
    """The (context, atom) point poset, one bit per point, a context's
    points consecutive: (c1, a1) <= (c2, a2) iff c1 <= c2, a2 lies inside a1."""

    points: tuple[tuple[str, str], ...]  # bit -> (context, atom)
    index: dict[tuple[str, str], int]  # (context, atom) -> bit
    up: tuple[int, ...]  # bit -> mask of the point's up-set
    down: tuple[int, ...]  # bit -> mask of the point's down-set, the transpose of up
    top: int  # mask of every point
    spans: tuple[tuple[str, int], ...]  # per context: (context, mask of its points)


class ContextPoset:
    """Immutable poset of contexts with local algebras and embeddings.

    Parameters
    ----------
    contexts:
        mapping id -> LocalAlgebra.
    embeddings:
        (lower, upper) -> per atom of lower, in its atoms order, the int
        mask of upper's atom indices it maps to.  Each key is a pair of the
        strict order (c1 <= c2 iff c1's algebra embeds in c2's): the order
        is stored as given plus reflexivity and is not closed transitively,
        so validate() reports a missing transitive pair or a cycle.  An
        embedding whose length is not lower's atom count, or with a
        negative mask or a mask bit at or past upper's atom count, raises
        StructureError.

    The i-th id of ``context_ids`` (sorted) is bit i of two masks per
    context: ``_up[i]`` holds the contexts above i, ``_down[i]`` those
    below it, both including i.  ``_images[i, j]`` holds the embedding of
    i into j for each i <= j as given (the identity for i == j).
    """

    def __init__(
        self,
        contexts: Mapping[str, LocalAlgebra],
        embeddings: Mapping[tuple[str, str], Sequence[int]],
    ):
        self._contexts = dict(contexts)
        self._ids = tuple(sorted(self._contexts))
        self._bit = {c: i for i, c in enumerate(self._ids)}
        self._up = [1 << i for i in range(len(self._ids))]
        self._down = list(self._up)
        widths = [len(self._contexts[c].atoms) for c in self._ids]
        self._images = {}
        for (a, b), got in embeddings.items():
            i, j = self._index(a), self._index(b)
            if len(got) != widths[i] or min(got) < 0 or max(got) >> widths[j]:
                raise StructureError(f"embedding {a!r} -> {b!r} cannot be applied")
            self._up[i] |= 1 << j
            self._down[j] |= 1 << i
            self._images[i, j] = tuple(got)
        for i, n in enumerate(widths):
            self._images[i, i] = tuple(1 << t for t in range(n))
        everything = (1 << len(self._ids)) - 1
        minima = [c for c, up in zip(self._ids, self._up) if up == everything]
        if len(minima) != 1:
            raise StructureError(f"poset must have a unique least element, got {minima}")
        self._least = minima[0]

    # -- basic access ---------------------------------------------------

    @property
    def context_ids(self) -> tuple[str, ...]:
        return self._ids

    def _index(self, c: str) -> int:
        try:
            return self._bit[c]
        except KeyError:
            raise UnknownContextError(f"unknown context {c!r}") from None

    def algebra(self, c: str) -> LocalAlgebra:
        self._index(c)
        return self._contexts[c]

    @property
    def least(self) -> str:
        return self._least

    # -- order ----------------------------------------------------------

    def leq(self, c1: str, c2: str) -> bool:
        """True iff c2 is at least as informative as c1."""
        return bool(self._up[self._index(c1)] >> self._index(c2) & 1)

    def upset(self, c: str) -> frozenset:
        return frozenset(self._ids[i] for i in _bits(self._up[self._index(c)]))

    def meet_contexts(self, c1: str, c2: str) -> str:
        """Greatest lower bound; always exists (worst case the least element)."""
        lower = self._down[self._index(c1)] & self._down[self._index(c2)]
        g = _extreme(lower, self._down)
        if g is None:
            raise StructureError(f"no greatest lower bound for {c1!r}, {c2!r}")
        return self._ids[g]

    def try_join_contexts(self, c1: str, c2: str) -> str | None:
        """Least upper bound, or None when the pair is incompatible."""
        upper = self._up[self._index(c1)] & self._up[self._index(c2)]
        g = _extreme(upper, self._up)
        return None if g is None else self._ids[g]

    def covers(self) -> list[tuple[str, str]]:
        """Pairs a < b with no context strictly between, in sorted-id order."""
        return [
            (self._ids[i], self._ids[j])
            for i, up in enumerate(self._up)
            for j in _bits(up & ~(1 << i))
            if up & self._down[j] == 1 << i | 1 << j
        ]

    # -- embeddings -----------------------------------------------------

    def embed(self, c1: str, c2: str, x: Element) -> Element:
        """Image of an element of c1 inside c2 (requires c1 <= c2)."""
        if not self.leq(c1, c2):
            raise UnknownContextError(f"{c1!r} is not below {c2!r}")
        images, algebra = self._images[self._bit[c1], self._bit[c2]], self._contexts[c1]
        if not algebra.contains(x):
            raise DomainError(f"value not in the local algebra of {c1!r}")
        m = 0
        for a in x:
            m |= images[algebra.atoms.index(a)]
        return frozenset(self._contexts[c2].atoms[s] for s in _bits(m))

    @cached_property
    def point_table(self) -> PointTable:
        """The (context, atom) point poset, built on first use from the
        embeddings."""
        atoms = [self._contexts[c].atoms for c in self._ids]
        points = [(c, x) for c, a in zip(self._ids, atoms) for x in a]
        index = {p: b for b, p in enumerate(points)}
        first = [index[c, a[0]] for c, a in zip(self._ids, atoms)]
        up = []
        for i in range(len(self._ids)):
            # (first bit of j, images of i's atoms in j) for each j above i
            rows = [(first[j], self._images[i, j]) for j in _bits(self._up[i])]
            up += [sum(images[t] << f for f, images in rows) for t in range(len(atoms[i]))]
        down = [0] * len(points)
        for p, mask in enumerate(up):
            for q in _bits(mask):
                down[q] |= 1 << p
        spans = [(c, (1 << f + len(a)) - (1 << f)) for c, f, a in zip(self._ids, first, atoms)]
        return PointTable(
            tuple(points), index, tuple(up), tuple(down), (1 << len(points)) - 1, tuple(spans)
        )

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """Check every structural invariant; return a list of violations,
        in sorted-id order."""
        issues: list[str] = []
        ids, up, down, images = self._ids, self._up, self._down, self._images
        # per strict pair: antisymmetry, transitivity (reflexivity by build),
        # and a well-formed embedding
        for i, a in enumerate(ids):
            for j in _bits(up[i] & ~(1 << i)):
                b = ids[j]
                if up[j] >> i & 1:
                    issues.append(f"order not antisymmetric: {a!r} ~ {b!r}")
                for k in _bits(up[j] & ~up[i]):
                    issues.append(f"order not transitive at {a!r} <= {b!r} <= {ids[k]!r}")
                got = images[i, j]
                if not all(got):
                    issues.append(f"embedding {a!r} -> {b!r} drops an atom")
                seen = 0
                for m in got:
                    if m & seen:
                        issues.append(f"embedding {a!r} -> {b!r} atom images overlap")
                        break
                    seen |= m
                if seen != (1 << len(self._contexts[b].atoms)) - 1:
                    issues.append(f"embedding {a!r} -> {b!r} does not cover the target top")
        # composition along chains a <. b < c: on a partial order this
        # covers every chain, by induction on the interval from a to b.
        # Atom t of a composes iff its image in c is the union of the
        # images in c of the atoms of b it maps to.  On a cycle of the
        # order c may be a.
        for a, b in self.covers():
            i, j = self._bit[a], self._bit[b]
            ab = None  # (t, s) for each atom s of b in the image of atom t of a
            for k in _bits(up[i] & up[j] & ~(1 << j)):
                c = ids[k]
                if ab is None:
                    ab = [(t, s) for t, m in enumerate(images[i, j]) for s in _bits(m)]
                bc, ac = images[j, k], images[i, k]
                via = [0] * len(ac)
                for t, s in ab:
                    via[t] |= bc[s]
                if tuple(via) != ac:
                    issues += [
                        f"embedding composition fails {a!r}->{b!r}->{c!r} at {atom!r}"
                        for atom, direct, composed in zip(self._contexts[a].atoms, ac, via)
                        if direct != composed
                    ]
        # closure under pairwise meets: a comparable pair has one, its
        # lower member, so only incomparable pairs i < j are searched and
        # each missing meet is reported for both orders of the pair.  The
        # down-sets are also kept with the contexts renumbered by down-set
        # size: in a partial order a meet has the largest down-set of the
        # lower bounds (the least context is always one), so the highest
        # of them is tried first, and the scan of every lower bound runs
        # only when it fails.
        rank = sorted(range(len(ids)), key=lambda g: (down[g].bit_count(), g))
        position = {g: r for r, g in enumerate(rank)}
        ranked = [sum(1 << position[x] for x in _bits(down[g])) for g in range(len(ids))]
        by_rank = [ranked[g] for g in rank]
        missing = []
        for i in range(len(ids)):
            for j in _bits(~(up[i] | down[i]) & ~((2 << i) - 1) & (1 << len(ids)) - 1):
                lower = ranked[i] & ranked[j]
                if by_rank[lower.bit_length() - 1] & lower == lower:
                    continue
                if _extreme(down[i] & down[j], down) is None:
                    missing += [(i, j), (j, i)]
        issues += [f"no meet for {ids[i]!r}, {ids[j]!r}" for i, j in sorted(missing)]
        return issues

    def __repr__(self):
        return f"ContextPoset({len(self._contexts)} contexts, least={self._least!r})"
