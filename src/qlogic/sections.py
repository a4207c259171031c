"""Heyting algebra of monotone sections over a context poset.

A section assigns to every context an element of its local algebra,
monotonically along the informativeness order.  Equivalently, a section
is an up-set of the poset P of points (c, a), a an atom of context c,
ordered by (c1, a1) <= (c2, a2) iff c1 <= c2 and a2 lies inside a1
(Birkhoff's representation of a finite distributive lattice).  The
context poset compiles P once into bitmasks (``ContextPoset.point_table``).
A frame over the contexts above c, the refined logic at c or the whole
frame at the least c, reads them cut to the up-set Q of those contexts'
points: meet, join and order are ``&``, ``|`` and a subset test, U -> V
is Q minus the down-closure of U \\ V, enumeration lists the up-sets
inside Q, and the decidables are the unions of Q's components, with no
enumeration.  :class:`Section` is the boundary type that callers see.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, UnknownContextError
from .poset import ContextPoset, Element, LocalAlgebra, PointTable, _bits, check_enumeration


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


class LawCounts(NamedTuple):
    """Passing counts of :meth:`Frame.check_laws` over n sections."""

    sections: int  # n
    monotone: int  # of n sections
    implies: int  # of n^2 pairs
    adjunction: int  # of n^3 triples
    distributive: int | None  # of n^2 pairs, None unless exhaustive


class Frame:
    """Section frame (Heyting algebra) over the contexts above ``least``."""

    def __init__(self, poset: ContextPoset):
        self.poset = poset
        self.least = poset.least
        # the bits of one context's points in a mask -> their atoms; contexts
        # hold disjoint bits, and 0 decodes to the empty set in every one
        self._decoded: dict[int, Element] = {}

    @cached_property
    def context_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.poset.upset(self.least)))

    @cached_property
    def _table(self) -> PointTable:
        """The point table with ``top`` Q and ``spans`` the frame's contexts."""
        t, ups = self.poset.point_table, self.poset.upset(self.least)
        spans = tuple((c, span) for c, span in t.spans if c in ups)
        return t._replace(top=sum(span for _, span in spans), spans=spans)

    def _algebra(self, c: str) -> LocalAlgebra:
        if not self.poset.leq(self.least, c):  # c is no context of this frame
            raise UnknownContextError(f"unknown context {c!r}")
        return self.poset.algebra(c)

    def _mask(self, s: Section) -> int:
        index = self._table.index
        return sum(1 << index[(c, a)] for c, v in s.items for a in v)

    def _section(self, mask: int) -> Section:
        t = self._table
        items = []
        for c, span in t.spans:
            chunk = mask & span
            value = self._decoded.get(chunk)
            if value is None:
                value = self._decoded[chunk] = frozenset(t.points[p][1] for p in _bits(chunk))
            items.append((c, value))
        return Section(tuple(items))

    # -- construction ---------------------------------------------------

    def section(self, values: Mapping[str, Iterable[str]]) -> Section:
        """Build and validate a section from a context -> element mapping."""
        for c in values:
            self._algebra(c)  # UnknownContextError for a key that is no context
        missing = set(self.context_ids) - set(values)
        if missing:
            raise DomainError(f"section misses contexts {sorted(missing)}")
        for c in self.context_ids:
            if not self.poset.algebra(c).contains(frozenset(values[c])):
                raise DomainError(f"value at {c!r} is not in its local algebra")
        s = Section.from_dict(values)
        if not self.is_monotone(s):
            raise DomainError("section violates monotonicity")
        return s

    def is_monotone(self, s: Section) -> bool:
        """True iff the section's points form an up-set."""
        mask = self._mask(s)
        up = self._table.up
        return all(not up[p] & ~mask for p in _bits(mask))

    def top(self) -> Section:
        return self._section(self._table.top)

    def bottom(self) -> Section:
        return self._section(0)

    # -- elementary propositions -----------------------------------------

    def embed_elementary(self, e: ElementaryProposition) -> Section:
        """The up-set generated by the proposition's points."""
        if not e.is_bottom and not self._algebra(e.context).contains(e.value):
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
        for e in (e1, e2):
            self._algebra(e.context)
        c = self.poset.try_join_contexts(e1.context, e2.context)
        if c is None:
            return BOTTOM
        v = self.poset.embed(e1.context, c, e1.value) & self.poset.embed(e2.context, c, e2.value)
        return ElementaryProposition(c, v) if v else BOTTOM

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
        """U -> V: the points whose up-set misses bad = U \\ V, the complement
        of the down-closure of bad.  A point of bad already in the closure
        adds nothing, so each step takes the lowest point not yet inside."""
        t = self._table
        below, rest = 0, u & ~v
        while rest:
            below |= t.down[(rest & -rest).bit_length() - 1]
            rest &= ~below
        return t.top & ~below

    def implies(self, s1: Section, s2: Section) -> Section:
        """Relative pseudo-complement: the points whose up-set misses s1 \\ s2."""
        return self._section(self._implies(self._mask(s1), self._mask(s2)))

    def neg(self, s: Section) -> Section:
        return self.implies(s, self.bottom())

    # -- quotients -------------------------------------------------------

    def evaluate_at(self, s: Section, c: str) -> Element:
        """Image of the section under the coarse quotient at context c."""
        self._algebra(c)
        return s.value(c)

    def restrict_upset(self, c: str) -> "Frame":
        """The refined conditional logic: the frame over the up-set of c."""
        self._algebra(c)
        sub = Frame(self.poset)
        sub.least = c
        return sub

    # -- enumeration and law suites -----------------------------------------

    def enumeration_bound(self) -> int:
        """2^|Q|: the number of subsets of the frame's (context, atom) points."""
        return 1 << sum(len(self.poset.algebra(c).atoms) for c in self.context_ids)

    def _decision_order(self) -> list[int]:
        """Q's points from the top down: a higher point has a smaller up-set."""
        t = self._table
        return sorted(_bits(t.top), key=lambda p: t.up[p].bit_count())

    def _upsets(self) -> list[int]:
        check_enumeration(self.enumeration_bound())
        up = self._table.up
        # decide points from the top down: p may join an up-set U of the
        # points decided so far iff the rest of its up-set lies in U, so no
        # choice is ever undone
        masks = [0]
        for p in self._decision_order():
            rest = up[p] & ~(1 << p)
            masks += [m | 1 << p for m in masks if m & rest == rest]
        return masks

    def enumerate_sections(self) -> list[Section]:
        """All monotone sections, each exactly once (guarded)."""
        return [self._section(m) for m in self._upsets()]

    def decidable_elements(self) -> list[Section]:
        """Sections S with S v ~S = TOP, in the order of the enumeration
        (guarded by 2^k for k connected components).

        ~S is the complement of S's down-closure, so S v ~S = TOP iff S is
        also a down-set: a union of connected components of Q's order.
        Each point of Q lies above exactly one point of the least context,
        as the poset's paths compose, so the components are those points'
        up-sets.  ``_upsets`` lists its masks in binary counting order over
        the decision order, the point decided last the most significant,
        so a union of components sorts as if each component were its last
        decided point.  Walking that order backwards meets each component
        first at that point, and counting over the components in reverse
        gives the enumeration's order.
        """
        t = self._table
        least = dict(t.spans)[self.least]
        components, seen = [], 0
        for p in reversed(self._decision_order()):
            if not seen >> p & 1:
                components.append(t.up[(t.down[p] & least).bit_length() - 1])
                seen |= components[-1]
        check_enumeration(1 << len(components))
        masks = [0]
        for component in reversed(components):
            masks += [m | component for m in masks]
        return [self._section(m) for m in masks]

    def check_laws(self, exhaustive: bool = False) -> LawCounts:
        """Run the Heyting law suites on the masks of one enumeration.

        A section passes monotonicity when its up-set comes back from the
        boundary type as a monotone Section with the same points.  For each
        pair (U1, U2), U1 -> U2 is compared with the join of its witnesses,
        the up-sets W with W & U1 <= U2; for each up-set U the
        adjunction U <= (U1 -> U2) iff U & U1 <= U2 is compared with that
        same witness test.  Both depend on the pair only through
        bad = U1 \\ U2 and imp = U1 -> U2, and most pairs share them, so
        ``_implies`` runs once per pair (n^2 calls) and the witness join
        and the n-term adjunction count once per distinct (bad, imp).
        ``exhaustive`` adds distributivity: for each pair, the boundary
        meet and join of the two Sections must be the enumerated Sections
        of U1 & U2 and U1 | U2; up-sets under & and | distribute, so the
        frame does when its meet and join agree with them.  The guard
        fails before any of this work.
        """
        ups = self._upsets()
        n = len(ups)
        monotone = 0
        sections = [self._section(m) for m in ups]
        for m, s in zip(ups, sections):
            monotone += self._mask(s) == m and self.is_monotone(s)
        implies_ok = adjunction_ok = 0
        passed: dict[tuple[int, int], tuple[bool, int]] = {}
        for u1 in ups:
            for u2 in ups:
                bad = u1 & ~u2
                imp = self._implies(u1, u2)
                ok = passed.get((bad, imp))
                if ok is None:
                    ok = passed[bad, imp] = (
                        imp == _join_witnesses(ups, bad),
                        sum((not u & ~imp) == (not u & bad) for u in ups),
                    )
                implies_ok += ok[0]
                adjunction_ok += ok[1]
        distributive = None
        if exhaustive:
            enumerated = dict(zip(ups, sections))
            distributive = sum(
                self.meet([s1, s2]) == enumerated.get(u1 & u2)
                and self.join([s1, s2]) == enumerated.get(u1 | u2)
                for u1, s1 in zip(ups, sections)
                for u2, s2 in zip(ups, sections)
            )
        return LawCounts(n, monotone, implies_ok, adjunction_ok, distributive)


def _join_witnesses(ups: Iterable[int], bad: int) -> int:
    """The join of the up-sets W that miss bad = U \\ V: W & U <= V."""
    joined = 0
    for w in ups:
        if not w & bad:
            joined |= w
    return joined
