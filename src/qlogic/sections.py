"""Heyting algebra of monotone sections over a context poset.

A section assigns to every context an element of its local algebra,
monotonically along the informativeness order.  Equivalently, a section
is an up-set of the poset P of points (c, a), a an atom of context c,
ordered by (c1, a1) <= (c2, a2) iff c1 <= c2 and a2 refines a1
(Birkhoff's representation of a finite distributive lattice).  A frame
compiles P once into bitmasks: meet, join and order are ``&``, ``|``
and a subset test, U -> V is the set of points whose up-set misses
U \\ V, and enumeration lists the up-sets of P, at most 2^|P| of them.
:class:`Section` is the boundary type that callers see.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, ResourceLimitError
from .poset import ContextPoset, Element

DEFAULT_ENUM_GUARD = 10**6
ENUM_GUARD_ENV = "QLOGIC_ENUM_GUARD"


@dataclass(frozen=True)
class Section:
    """Monotone assignment of local elements, one per context."""

    items: tuple[tuple[str, Element], ...]

    @staticmethod
    def from_dict(values: Mapping[str, Iterable[str]]) -> "Section":
        return Section(
            tuple(sorted((c, frozenset(v)) for c, v in values.items()))
        )

    def as_dict(self) -> dict[str, Element]:
        return dict(self.items)

    def value(self, c: str) -> Element:
        for ctx, v in self.items:
            if ctx == c:
                return v
        raise KeyError(c)

    def __repr__(self):
        parts = ", ".join(
            f"{c}:{{{','.join(sorted(v))}}}" for c, v in self.items if v
        )
        return f"Section({parts or 'BOT'})"


@dataclass(frozen=True)
class ElementaryProposition:
    """A single-context proposition: (context, non-bottom local element).

    The distinguished contradiction is represented with ``context=None``
    and an empty value; use :data:`BOTTOM`.
    """

    context: str | None
    value: Element

    @property
    def is_bottom(self) -> bool:
        return self.context is None

    def __post_init__(self):
        if self.context is None:
            if self.value:
                raise DomainError("the bottom proposition carries no value")
        elif not self.value:
            raise DomainError("empty values must use the distinguished Bottom")


BOTTOM = ElementaryProposition(None, frozenset())


class _PointTable(NamedTuple):
    """The (context, atom) point poset, one bit per point."""

    points: tuple[tuple[str, str], ...]  # bit -> (context, atom)
    index: dict[tuple[str, str], int]  # (context, atom) -> bit
    up: tuple[int, ...]  # bit -> mask of the point's up-set
    top: int  # mask of every point


class LawCounts(NamedTuple):
    """Passing counts of :meth:`Frame.check_laws` over n sections."""

    sections: int  # n
    monotone: int  # of n sections
    implies: int  # of n^2 pairs
    adjunction: int  # of n^3 triples
    distributive: int | None  # of n^3 triples, None unless exhaustive


class Frame:
    """Section frame (Heyting algebra) over a context poset."""

    def __init__(self, poset: ContextPoset):
        self.poset = poset
        self._ids = poset.context_ids

    @cached_property
    def _table(self) -> _PointTable:
        points = tuple((c, a) for c in self._ids for a in self.poset.algebra(c).atoms)
        index = {p: i for i, p in enumerate(points)}
        up = []
        for c, a in points:
            mask = 0
            for d in self.poset.upset(c):
                for b in self.poset.embed(c, d, frozenset({a})):
                    mask |= 1 << index[(d, b)]
            up.append(mask)
        return _PointTable(points, index, tuple(up), (1 << len(points)) - 1)

    def _mask(self, s: Section) -> int:
        index = self._table.index
        return sum(1 << index[(c, a)] for c, v in s.items for a in v)

    def _section(self, mask: int) -> Section:
        values: dict[str, list[str]] = {c: [] for c in self._ids}
        for p, (c, a) in enumerate(self._table.points):
            if mask >> p & 1:
                values[c].append(a)
        return Section(tuple((c, frozenset(v)) for c, v in values.items()))

    # -- construction ---------------------------------------------------

    def section(self, values: Mapping[str, Iterable[str]]) -> Section:
        """Build and validate a section from a context -> element mapping."""
        missing = set(self._ids) - set(values)
        if missing:
            raise DomainError(f"section misses contexts {sorted(missing)}")
        d = {c: frozenset(values[c]) for c in self._ids}
        for c in self._ids:
            if not self.poset.algebra(c).contains(d[c]):
                raise DomainError(f"value at {c!r} is not in its local algebra")
        s = Section.from_dict(d)
        if not self.is_monotone(s):
            raise DomainError("section violates monotonicity")
        return s

    def is_monotone(self, s: Section) -> bool:
        """True iff the section's points form an up-set."""
        mask = self._mask(s)
        up = self._table.up
        return all(not up[p] & ~mask for p in range(len(up)) if mask >> p & 1)

    def top(self) -> Section:
        return self._section(self._table.top)

    def bottom(self) -> Section:
        return self._section(0)

    # -- elementary propositions -----------------------------------------

    def embed_elementary(self, e: ElementaryProposition) -> Section:
        """The up-set generated by the proposition's points."""
        if not e.is_bottom and not self.poset.algebra(e.context).contains(e.value):
            raise DomainError(f"value not in local algebra of {e.context!r}")
        t = self._table
        mask = 0
        for a in e.value:
            mask |= t.up[t.index[(e.context, a)]]
        return self._section(mask)

    def elementary_leq(self, e1: ElementaryProposition, e2: ElementaryProposition) -> bool:
        return self.leq(self.embed_elementary(e1), self.embed_elementary(e2))

    def elementary_meet(
        self, e1: ElementaryProposition, e2: ElementaryProposition
    ) -> ElementaryProposition:
        if e1.is_bottom or e2.is_bottom:
            return BOTTOM
        c = self.poset.try_join_contexts(e1.context, e2.context)
        if c is None:
            return BOTTOM
        v = self.poset.embed(e1.context, c, e1.value) & self.poset.embed(
            e2.context, c, e2.value
        )
        if not v:
            return BOTTOM
        return ElementaryProposition(c, v)

    def decompose_to_elementary(self, s: Section) -> list[ElementaryProposition]:
        """Bohrified pieces: the non-bottom local values of the section."""
        return [
            ElementaryProposition(c, v) for c, v in s.items if v
        ]

    # -- lattice operations ------------------------------------------------

    def meet(self, sections: Iterable[Section]) -> Section:
        mask = self._table.top
        for s in sections:
            mask &= self._mask(s)
        return self._section(mask)

    def join(self, sections: Iterable[Section]) -> Section:
        mask = 0
        for s in sections:
            mask |= self._mask(s)
        return self._section(mask)

    def leq(self, s1: Section, s2: Section) -> bool:
        return not self._mask(s1) & ~self._mask(s2)

    def _implies(self, u: int, v: int) -> int:
        bad = u & ~v
        return sum(1 << p for p, up in enumerate(self._table.up) if not up & bad)

    def implies(self, s1: Section, s2: Section) -> Section:
        """Relative pseudo-complement: the points whose up-set misses s1 \\ s2."""
        return self._section(self._implies(self._mask(s1), self._mask(s2)))

    def neg(self, s: Section) -> Section:
        return self.implies(s, self.bottom())

    # -- quotients -------------------------------------------------------

    def evaluate_at(self, s: Section, c: str) -> Element:
        """Image of the section under the coarse quotient at context c."""
        self.poset.algebra(c)
        return s.value(c)

    def restrict_upset(self, c: str) -> "Frame":
        """The refined conditional logic: the frame over the up-set of c."""
        ups = self.poset.upset(c)
        contexts = {d: self.poset.algebra(d) for d in ups}
        order = [
            (a, b)
            for a in ups
            for b in ups
            if a != b and self.poset.leq(a, b)
        ]
        embeddings = {
            (a, b): {
                atom: self.poset.embed(a, b, frozenset({atom}))
                for atom in contexts[a].atoms
            }
            for a, b in order
        }
        return Frame(ContextPoset(contexts, order, embeddings))

    # -- enumeration and law suites -----------------------------------------

    def enumeration_bound(self) -> int:
        """2^|P|: the number of subsets of the (context, atom) points."""
        return 1 << sum(len(self.poset.algebra(c).atoms) for c in self._ids)

    def _upsets(self) -> list[int]:
        guard = int(os.environ.get(ENUM_GUARD_ENV) or DEFAULT_ENUM_GUARD)
        bound = self.enumeration_bound()
        if bound > guard:
            raise ResourceLimitError(f"enumeration bound {bound} exceeds guard {guard}")
        up = self._table.up
        # decide points from the top down (a higher point has a smaller
        # up-set): p may join an up-set U of the points decided so far iff
        # the rest of its up-set lies in U, so no choice is ever undone
        masks = [0]
        for p in sorted(range(len(up)), key=lambda p: up[p].bit_count()):
            rest = up[p] & ~(1 << p)
            masks += [m | 1 << p for m in masks if m & rest == rest]
        return masks

    def enumerate_sections(self) -> list[Section]:
        """All monotone sections, each exactly once (guarded)."""
        return [self._section(m) for m in self._upsets()]

    def decidable_elements(self) -> list[Section]:
        """Sections S with S v ~S = TOP."""
        top = self._table.top
        return [
            self._section(m)
            for m in self._upsets()
            if m | self._implies(m, 0) == top
        ]

    def check_laws(self, exhaustive: bool = False) -> LawCounts:
        """Run the Heyting law suites on the masks of one enumeration.

        A section passes monotonicity when its up-set comes back from the
        boundary type as a monotone Section with the same points.  For each
        pair (U1, U2), U1 -> U2 is compared with the join of its witnesses,
        the up-sets W with W & U1 <= U2; for each up-set U the
        adjunction U <= (U1 -> U2) iff U & U1 <= U2 is compared with that
        same witness test.  ``exhaustive`` adds distributivity on every
        triple.  The guard fails before any of this work.
        """
        ups = self._upsets()
        n = len(ups)
        monotone = 0
        for m in ups:
            s = self._section(m)
            monotone += self._mask(s) == m and self.is_monotone(s)
        implies_ok = adjunction_ok = 0
        for u1 in ups:
            for u2 in ups:
                bad = u1 & ~u2
                imp = self._implies(u1, u2)
                implies_ok += imp == _join_witnesses(ups, bad)
                adjunction_ok += sum(
                    (not u & ~imp) == (not u & bad) for u in ups
                )
        distributive = None
        if exhaustive:
            distributive = sum(
                _distributes(*t) for t in itertools.product(ups, repeat=3)
            )
        return LawCounts(n, monotone, implies_ok, adjunction_ok, distributive)


def _join_witnesses(ups: Iterable[int], bad: int) -> int:
    """The join of the up-sets W that miss bad = U \\ V: W & U <= V."""
    joined = 0
    for w in ups:
        if not w & bad:
            joined |= w
    return joined


def _distributes(u1: int, u2: int, u3: int) -> bool:
    """U1 /\\ (U2 \\/ U3) == (U1 /\\ U2) \\/ (U1 /\\ U3) on up-set masks."""
    return u1 & (u2 | u3) == (u1 & u2) | (u1 & u3)
