"""Finite posets of measurement contexts.

A context is identified by a string id and carries a finite Boolean
algebra given by its atoms; elements of the algebra are frozensets of
atom names.  Contexts are ordered by informativeness: ``c1 <= c2`` means
a measurement in ``c2`` settles every question ``c1`` can answer, that is,
c1's algebra embeds in c2's.  A poset is given by the embeddings of some
of its pairs, and those pairs generate the order: it is their
reflexive-transitive closure, so a builder may hand over the covers alone,
as the classical one does, or every pair, as the quantum one does.  A pair
that was not given embeds along a path of given pairs, composed on first
use.  An embedding maps each coarse atom to the fine atoms refining it, in
one format, in and out: per atom of the lower context, in its
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
    return next((g for g in _bits(mask) if masks[g] & mask == mask), None)


def _compose(ab: Sequence[int], bc: Sequence[int]) -> tuple[int, ...]:
    """The embedding a -> c through b: per atom of a, the union of the
    images in c of the atoms of b it maps to."""
    ac = []
    for m in ab:
        image = 0
        for s in _bits(m):
            image |= bc[s]
        ac.append(image)
    return tuple(ac)


def _turned(succ: list[list[int]]) -> list[list[int]]:
    """succ with every pair turned round: per node, the nodes that list it."""
    pred: list[list[int]] = [[] for _ in succ]
    for i, js in enumerate(succ):
        for j in js:
            pred[j].append(i)
    return pred


def _topological(succ: list[list[int]]) -> list[int] | None:
    """The nodes with each one before its successors (Kahn), or None when
    succ has a cycle."""
    into = [len(js) for js in _turned(succ)]
    order = [i for i, k in enumerate(into) if not k]
    for i in order:  # grows while it is walked
        for j in succ[i]:
            into[j] -= 1
            if not into[j]:
                order.append(j)
    return order if len(order) == len(succ) else None


def _reach(succ: list[list[int]], walk: list[int] | None, seeds: Sequence[int] = ()) -> list[int]:
    """Per node, the union of the seeds (by default, their own bits) of the
    nodes reachable from it along succ, itself included.  One pass over
    walk, which holds each node after all its successors, finds them; on a
    cycle there is no such order (walk is None), and passes over every node
    repeat until none changes."""
    reach = list(seeds) or [1 << i for i in range(len(succ))]
    again = True
    while again:
        again = False
        for i in range(len(succ)) if walk is None else walk:
            m = reach[i]
            for j in succ[i]:
                m |= reach[j]
            if m != reach[i]:
                reach[i] = m
                again = walk is None
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
        pair.  An embedding whose length is not lower's atom count, or
        with a negative mask or a mask bit at or past upper's atom count,
        raises StructureError.  A pair (c, c) is the identity, whatever
        is given for it.

    A cycle of given pairs is kept, and validate() reports it.  It also
    reports a chain of given pairs whose end pair was not given, unless
    every given pair is a cover: that is the Hasse form, a covers-only
    hand-over, whose closure is the order by design.  A builder that hands
    over every comparable pair, as the quantum one does, thus sees a
    tolerance that breaks transitivity.

    The i-th id of ``context_ids`` (sorted) is bit i of two masks per
    context: ``_up[i]`` holds the contexts above i in the closure,
    ``_down[i]`` those below it (made on first use), both including i.
    ``_succ[i]`` lists the contexts given above i, and ``_order`` all
    contexts with each before those given above it (None on a cycle).
    Every relation, of contexts or of points, is closed by _reach, along
    the given pairs or along them turned round, in ``_order``.
    ``_images[i, j]`` holds the embedding of i into j for each given pair
    and for i == j; _image composes the rest.
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
            if len(got) != widths[i] or min(got) < 0 or max(got) >> widths[j]:
                raise StructureError(f"embedding {a!r} -> {b!r} cannot be applied")
            if i != j:
                self._succ[i].append(j)
                self._images[i, j] = tuple(got)
        for i, n in enumerate(widths):
            self._images[i, i] = tuple(1 << t for t in range(n))
            self._succ[i].sort()
        self._order = _topological(self._succ)
        self._up = _reach(self._succ, None if self._order is None else self._order[::-1])
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
        """Image of an element of c1 inside c2 (requires c1 <= c2)."""
        if not self.leq(c1, c2):
            raise UnknownContextError(f"{c1!r} is not below {c2!r}")
        images, algebra = self._image(self._bit[c1], self._bit[c2]), self._contexts[c1]
        if not algebra.contains(x):
            raise DomainError(f"value not in the local algebra of {c1!r}")
        m = 0
        for a in x:
            m |= images[algebra.atoms.index(a)]
        return frozenset(self._contexts[c2].atoms[s] for s in _bits(m))

    def _image(self, i: int, j: int) -> tuple[int, ...]:
        """The embedding of i into j, for i <= j: the given one, or else the
        composite along the first shortest path of given pairs, searched
        breadth first from i with each context's successors in sorted-id
        order.  Each composite the search makes is kept."""
        images = self._images
        got = images.get((i, j))
        reached, frontier = 1 << i, [i]
        while got is None:
            ahead = []
            for a in frontier:
                for b in self._succ[a]:
                    if not reached >> b & 1:
                        reached |= 1 << b
                        ahead.append(b)
                        if (i, b) not in images:
                            images[i, b] = _compose(images[i, a], images[a, b])
            frontier = ahead
            got = images.get((i, j))
        return got

    def _point_pairs(self, first: list[int]) -> list[list[int]]:
        """Per point, the points directly above it: (c, t) lies below
        (d, s) for each given pair c < d whose image of t holds s."""
        above: list[list[int]] = [[] for _ in range(first[-1])]
        for i, js in enumerate(self._succ):
            for j in js:
                f = first[j]
                for p, m in enumerate(self._images[i, j], first[i]):
                    while m:
                        low = m & -m
                        above[p].append(f + low.bit_length() - 1)
                        m ^= low
        return above

    def _point_walk(self, first: list[int], up: bool) -> list[int] | None:
        """The points context by context in ``_order``, reversed if up, so
        that _reach finds a point's up-set (or its down-set) in one pass;
        None on a cycle."""
        if self._order is None:
            return None
        order = self._order[::-1] if up else self._order
        return [p for i in order for p in range(first[i], first[i + 1])]

    @cached_property
    def _rows(self) -> tuple[list[int], list[int]]:
        """Each context's first point bit, then the number of points; and
        each point's row, the mask of its up-set in the point table.  The
        row of point (c, t) is its own bit or-ed with the rows of the images
        of t in each context given above c."""
        first = [0]
        for c in self._ids:
            first.append(first[-1] + len(self._contexts[c].atoms))
        return first, _reach(self._point_pairs(first), self._point_walk(first, up=True))

    @cached_property
    def point_table(self) -> PointTable:
        """The (context, atom) point poset, built on first use from the
        embeddings.  ``down`` is found by the same walk as the rows, over
        the point pairs turned round, from the least context upward."""
        first, up = self._rows
        atoms = [self._contexts[c].atoms for c in self._ids]
        points = [(c, x) for c, a in zip(self._ids, atoms) for x in a]
        index = {p: b for b, p in enumerate(points)}
        down = _reach(_turned(self._point_pairs(first)), self._point_walk(first, up=False))
        spans = [(c, (1 << f + len(a)) - (1 << f)) for c, f, a in zip(self._ids, first, atoms)]
        return PointTable(
            tuple(points), index, tuple(up), tuple(down), (1 << len(points)) - 1, tuple(spans)
        )

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """Check every structural invariant; return a list of violations,
        in sorted-id order.

        The per-pair checks run on the given pairs: a cycle (a given pair
        whose upper context lies below its lower one in the closure), a
        chain of given pairs whose end pair was not given (unless every
        given pair is a cover), and an embedding that drops an atom, makes
        two images overlap or misses part of the target.

        Composition is then one test per context, _disjoint: the rows of
        its atoms are pairwise disjoint.  Once the per-pair checks find
        nothing, the order is a partial order and every given embedding
        maps the atoms to non-empty, disjoint images that cover the target,
        so every path of given pairs from a to d splits d's atoms by the
        images of a's atoms along it.  A row holds, at d, the union of an
        atom's images over all those paths; the unions are disjoint iff
        every path gives the same split, which is composition.  When a
        per-pair check or the test fails, the per-chain loop words the
        violations, reading the composed image of a pair that was not
        given."""
        issues: list[str] = []
        ids, up, down, images = self._ids, self._up, self._down, self._images
        hasse = len(self._covers) == sum(map(len, self._succ))
        given = [1 << i | sum(1 << j for j in js) for i, js in enumerate(self._succ)]
        for i, a in enumerate(ids):
            for j in self._succ[i]:
                b = ids[j]
                if up[j] >> i & 1:
                    issues.append(f"order not antisymmetric: {a!r} ~ {b!r}")
                for k in () if hasse else _bits(given[j] & ~given[i]):
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
        if issues or not self._disjoint():
            # composition along chains a <. b < c, worded when a pair check
            # or the row test fails: on a partial order this covers every
            # path, by induction on the interval from a to c.  Atom t of a
            # composes iff its image in c is the union of the images in c of
            # the atoms of b it maps to.  On a cycle of the order c may be a.
            for i, j in self._covers:
                a, b = ids[i], ids[j]
                for k in _bits(up[i] & up[j] & ~(1 << j)):
                    c = ids[k]
                    ac, via = self._image(i, k), _compose(images[i, j], self._image(j, k))
                    if via != ac:
                        issues += [
                            f"embedding composition fails {a!r}->{b!r}->{c!r} at {atom!r}"
                            for atom, direct, composed in zip(self._contexts[a].atoms, ac, via)
                            if direct != composed
                        ]
        # closure under pairwise meets: a comparable pair has one, its
        # lower member, so only incomparable pairs i < j are searched and
        # each missing meet is reported for both orders of the pair.
        # ``ranked`` holds the down-sets by position in _order, a linear
        # extension: a meet lies above every other lower bound, so it is the
        # last of them, and the pair has one iff its last lower bound holds
        # them all.  On a cycle the positions are the indices, and where the
        # last lower bound fails every one is tried.
        order = self._order or range(len(ids))
        bit = {g: 1 << r for r, g in enumerate(order)}
        ranked = _reach(_turned(self._succ), self._order, [bit[g] for g in range(len(ids))])
        last = [ranked[g] for g in order]
        missing = []
        for i in range(len(ids)):
            for j in _bits(~(up[i] | down[i]) & ~((2 << i) - 1) & (1 << len(ids)) - 1):
                lower = ranked[i] & ranked[j]
                if last[lower.bit_length() - 1] & lower != lower:
                    if self._order or _extreme(lower, down) is None:
                        missing += [(i, j), (j, i)]
        issues += [f"no meet for {ids[i]!r}, {ids[j]!r}" for i, j in sorted(missing)]
        return issues

    def _disjoint(self) -> bool:
        """True iff the rows of each context's atoms are pairwise disjoint,
        that is, their bit counts sum to the bit count of their union: at
        each context d above, the atoms' images along all paths of given
        pairs never share an atom of d."""
        first, rows = self._rows
        for f, g in zip(first, first[1:]):
            union = total = 0
            for row in rows[f:g]:
                union |= row
                total += row.bit_count()
            if union.bit_count() != total:
                return False
        return True

    def __repr__(self):
        return f"ContextPoset({len(self._contexts)} contexts, least={self._least!r})"
