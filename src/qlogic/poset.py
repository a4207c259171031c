"""Finite posets of measurement contexts.

A context is identified by a string id and carries a finite Boolean
algebra given by its atoms; elements of the algebra are frozensets of
atom names.  Contexts are ordered by informativeness: ``c1 <= c2`` means
a measurement in ``c2`` settles every question ``c1`` can answer, that is,
c1's algebra embeds in c2's.  A poset is given by the embeddings of some
of its pairs, and those pairs generate the order: it is their
reflexive-transitive closure, so a builder may hand over the covers alone,
as the classical one does, or every pair, as the quantum one does.  An
embedding maps each coarse atom to the fine atoms refining it, in one
format, in and out: per atom of the lower context, in its
``LocalAlgebra.atoms`` order, an int whose bit s is the upper context's
atom s.

Construction refuses what has no (context, atom) point poset: a given
map whose masks do not partition the upper context's atoms, so no
Boolean-algebra embedding; a cycle of given pairs; a missing least
context; and two paths of given pairs that embed a context differently in
one above it.  It then holds the point poset's up-sets, whose unions are
the sections (Birkhoff), and embed() reads them; validate() is left with
the one check that is not about a pair or a path, closure under meets.
"""

from __future__ import annotations

import bisect
import itertools
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
    return next((g for g in _bits(mask) if masks[g] & mask == mask), None)


def _partitions(masks: Sequence[int], n: int, width: int) -> bool:
    """Whether masks are n positive ints that partition the bits below
    width: no two share a bit, and together they hold every one of them
    and no other."""
    if len(masks) != n or not all(isinstance(m, int) and m > 0 for m in masks):
        return False
    union = 0
    for m in masks:
        union |= m
    return union == (1 << width) - 1 and sum(map(int.bit_count, masks)) == width


def _turned(succ: list[list[int]]) -> list[list[int]]:
    """succ with every pair turned round: per node, the nodes that list it."""
    pred: list[list[int]] = [[] for _ in succ]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    return pred


def _topological(succ: list[list[int]]) -> list[int]:
    """The nodes with each one before its successors (Kahn).  On a cycle
    the nodes on it, and those above it, are left out."""
    into = [len(js) for js in _turned(succ)]
    order = [i for i, k in enumerate(into) if not k]
    for i in order:  # grows while it is walked
        for j in succ[i]:
            into[j] -= 1
            if not into[j]:
                order.append(j)
    return order


def _reach(succ: list[list[int]], walk: list[int], seeds: Sequence[int] = ()) -> list[int]:
    """Per node, the union of the seeds (by default, their own bits) of the
    nodes reachable from it along succ, itself included, in one pass over
    walk, which holds each node after all its successors."""
    reach = list(seeds) or [1 << i for i in range(len(succ))]
    for i in walk:
        for j in succ[i]:
            reach[i] |= reach[j]
    return reach


class PointTable(NamedTuple):
    """The (context, atom) point poset, one bit per point, a context's
    points consecutive: (c1, a1) <= (c2, a2) iff c1 <= c2, a2 lies inside a1."""

    points: tuple[tuple[str, str], ...]  # bit -> (context, atom)
    index: dict[tuple[str, str], int]  # (context, atom) -> bit
    up: tuple[int, ...]  # bit -> mask of the point's up-set
    down: tuple[int, ...]  # bit -> mask of the point's down-set, up transposed
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
        mask of upper's atom indices it maps to.  The given pairs generate
        the order (c1 <= c2 iff c1's algebra embeds in c2's): it is their
        reflexive-transitive closure, and every cover of it is a given
        pair.  A pair (c, c) is the identity, whatever partition is given
        for it.

    Construction raises StructureError, in this order, for:

    - a map that is not one positive mask per atom of lower, the masks
      partitioning upper's atoms: "embedding 'a' -> 'b' cannot be applied";
    - a cycle of given pairs: "order not antisymmetric: 'a' ~ 'b'", naming
      one given pair on it;
    - no least context;
    - two paths of given pairs from a to d that send an atom x of a to
      different atoms of d: "embedding paths 'a' -> 'd' disagree at 'x'".

    The i-th id of ``context_ids`` (sorted) is bit i of two masks per
    context: ``_up[i]`` holds the contexts above i in the closure,
    ``_down[i]`` those below it (made on first use), both including i.
    ``_succ[i]`` lists the contexts given above i, ``_images[i, j]`` holds
    the embedding of each given pair i < j, and ``_order`` all contexts
    with each before those given above it.  Every relation of contexts is
    closed by _reach, along the given pairs or along them turned round, in
    ``_order``.  Context i's points are the bits from ``_first[i]`` up to
    ``_first[i + 1]``, one per atom, and ``_rows[p]`` is point p's up-set.
    """

    def __init__(
        self,
        contexts: Mapping[str, LocalAlgebra],
        embeddings: Mapping[tuple[str, str], Sequence[int]],
    ):
        self._contexts = dict(contexts)
        self._ids = tuple(sorted(self._contexts))
        self._bit = {c: i for i, c in enumerate(self._ids)}
        self._succ = [[] for _ in self._ids]
        widths = [len(self._contexts[c].atoms) for c in self._ids]
        self._images = {}
        for (a, b), got in embeddings.items():
            i, j = self._index(a), self._index(b)
            if not _partitions(got, widths[i], widths[j]):
                raise StructureError(f"embedding {a!r} -> {b!r} cannot be applied")
            if i != j:
                self._succ[i].append(j)
                self._images[i, j] = tuple(got)
        for js in self._succ:
            js.sort()
        self._order = _topological(self._succ)
        if len(self._order) < len(self._ids):
            # each context left out has one left out given below it; n steps
            # down, for the n contexts left out, revisit one, so the last two
            # lie on a cycle and the last step is a given pair on it
            out = set(range(len(self._ids))).difference(self._order)
            pred, j = _turned(self._succ), min(out)
            for _ in out:
                i, j = j, next(k for k in pred[j] if k in out)
            raise StructureError(f"order not antisymmetric: {self._ids[j]!r} ~ {self._ids[i]!r}")
        self._up = _reach(self._succ, self._order[::-1])
        everything = (1 << len(self._ids)) - 1
        if everything not in self._up:
            raise StructureError("poset must have a least element")
        self._least = self._ids[self._up.index(everything)]
        self._first = [0, *itertools.accumulate(widths)]
        self._rows = self._point_rows()

    def _point_rows(self) -> list[int]:
        """Each point's row, the mask of its up-set: the point's own bit
        or-ed with the rows of its images in each context given above its
        own, found context by context in ``_order`` reversed.

        Every given map partitions its target's atoms, so its composite
        along any path does too, and a row holds, at each context d above,
        the union of the point's images along all the paths to d.  The rows
        of one context's atoms are thus disjoint iff every path gives the
        same images, which is composition.  At the first context whose rows
        overlap, the atom whose row meets an earlier one's is refused, with
        the context of the overlap's lowest point, where its paths disagree."""
        first, ids, images = self._first, self._ids, self._images
        rows = [1 << p for p in range(first[-1])]
        for i in reversed(self._order):
            seen = 0
            for t, p in enumerate(range(first[i], first[i + 1])):
                row = rows[p]
                for j in self._succ[i]:
                    for s in _bits(images[i, j][t]):
                        row |= rows[first[j] + s]
                shared = row & seen
                if shared:
                    d = ids[bisect.bisect_right(first, (shared & -shared).bit_length() - 1) - 1]
                    atom = self._contexts[ids[i]].atoms[t]
                    raise StructureError(f"embedding paths {ids[i]!r} -> {d!r} disagree at {atom!r}")
                rows[p] = row
                seen |= row
        return rows

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

    @cached_property
    def _down(self) -> list[int]:
        """Per context, the mask of the contexts below it, itself included,
        on first use: the given pairs turned round, closed in ``_order``."""
        return _reach(_turned(self._succ), self._order)

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
        return [(self._ids[i], self._ids[j]) for i, j in self._covers]

    @cached_property
    def _covers(self) -> list[tuple[int, int]]:
        """The covers as index pairs, in sorted-id order: the given pairs
        with no context strictly between.  No other pair can be a cover: a
        shortest path of given pairs to it passes a third context."""
        up, down = self._up, self._down
        return [
            (i, j) for i, js in enumerate(self._succ) for j in js if up[i] & down[j] == 1 << i | 1 << j
        ]

    # -- embeddings -----------------------------------------------------

    def embed(self, c1: str, c2: str, x: Element) -> Element:
        """Image of an element of c1 inside c2 (requires c1 <= c2): the
        points of c2 in the rows of x's atoms."""
        if not self.leq(c1, c2):
            raise UnknownContextError(f"{c1!r} is not below {c2!r}")
        algebra, atoms = self._contexts[c1], self._contexts[c2].atoms
        if not algebra.contains(x):
            raise DomainError(f"value not in the local algebra of {c1!r}")
        f, g = self._first[self._bit[c1]], self._first[self._bit[c2]]
        m = 0
        for a in x:
            m |= self._rows[f + algebra.atoms.index(a)]
        return frozenset(atoms[s] for s in _bits(m >> g & (1 << len(atoms)) - 1))

    @cached_property
    def point_table(self) -> PointTable:
        """The (context, atom) point poset, built on first use: ``up`` is
        the rows.  ``down`` starts at each point's own bit, and each
        context in ``_order`` or-s its points' down-sets into those of their
        images in each context given above it, so that a down-set is whole
        before it is passed on."""
        first, up = self._first, self._rows
        atoms = [self._contexts[c].atoms for c in self._ids]
        points = [(c, x) for c, a in zip(self._ids, atoms) for x in a]
        index = {p: b for b, p in enumerate(points)}
        down = [1 << p for p in range(len(points))]
        for i in self._order:
            for j in self._succ[i]:
                for p, m in enumerate(self._images[i, j], first[i]):
                    for s in _bits(m):
                        down[first[j] + s] |= down[p]
        spans = [(c, (1 << f + len(a)) - (1 << f)) for c, f, a in zip(self._ids, first, atoms)]
        return PointTable(
            tuple(points), index, tuple(up), tuple(down), (1 << len(points)) - 1, tuple(spans)
        )

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """The pairs of incomparable contexts without a meet, each as
        "no meet for 'a', 'b'", in sorted-id order, found on the first call
        and kept (a copy each call).  Everything else a poset must be, a
        partial order whose embeddings compose, it is by construction."""
        return list(self._issues)

    @cached_property
    def _issues(self) -> list[str]:
        """validate()'s missing meets, found on its first call.  A
        comparable pair has one, its lower member, so only incomparable
        pairs i < j are searched and each missing meet is reported for both
        orders of the pair.  ``ranked`` holds the down-sets by position in
        _order, a linear extension: a meet lies above every other lower
        bound, so it is the last of them, and the pair has one iff its last
        lower bound holds them all."""
        ids, up, down = self._ids, self._up, self._down
        bit = {g: 1 << r for r, g in enumerate(self._order)}
        ranked = _reach(_turned(self._succ), self._order, [bit[g] for g in range(len(ids))])
        last = [ranked[g] for g in self._order]
        missing = []
        for i in range(len(ids)):
            for j in _bits(~(up[i] | down[i]) & ~((2 << i) - 1) & (1 << len(ids)) - 1):
                lower = ranked[i] & ranked[j]
                if last[lower.bit_length() - 1] & lower != lower:
                    missing += [(i, j), (j, i)]
        return [f"no meet for {ids[i]!r}, {ids[j]!r}" for i, j in sorted(missing)]

    def __repr__(self):
        return f"ContextPoset({len(self._contexts)} contexts, least={self._least!r})"
