"""Finite posets of measurement contexts.

A context is identified by a string id and carries a finite Boolean
algebra given by its atoms; elements of the algebra are frozensets of
atom names.  Contexts are ordered by informativeness: ``c1 <= c2`` means
a measurement in ``c2`` settles every question ``c1`` can answer.  For
every ordered pair an embedding maps each coarse atom to the set of fine
atoms refining it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import StructureError, UnknownContextError

Element = frozenset  # subset of a context's atoms


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
        """All 2^n elements, bottom first, in a stable order."""
        n = len(self.atoms)
        for mask in range(1 << n):
            yield frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1)


class ContextPoset:
    """Immutable poset of contexts with local algebras and embeddings.

    Parameters
    ----------
    contexts:
        mapping id -> LocalAlgebra.
    order:
        iterable of (lower, upper) pairs; closed reflexively and
        transitively on construction.
    embeddings:
        (lower, upper) -> {coarse atom -> frozenset of fine atoms} for
        every strict pair of the order.  Identity pairs are implied.
    """

    def __init__(
        self,
        contexts: Mapping[str, LocalAlgebra],
        order: Iterable[tuple[str, str]],
        embeddings: Mapping[tuple[str, str], Mapping[str, frozenset]],
    ):
        self._contexts = dict(contexts)
        rel = {(c, c) for c in self._contexts}
        rel.update((a, b) for a, b in order)
        # the relation is stored as given (plus reflexivity); validate()
        # reports missing transitive edges instead of papering over them
        self._order = frozenset(rel)
        self._embeddings = {
            pair: {k: frozenset(v) for k, v in emb.items()}
            for pair, emb in embeddings.items()
        }
        self._least = self._find_least()

    # -- basic access ---------------------------------------------------

    @property
    def context_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._contexts))

    def algebra(self, c: str) -> LocalAlgebra:
        try:
            return self._contexts[c]
        except KeyError:
            raise UnknownContextError(c) from None

    @property
    def least(self) -> str:
        return self._least

    def _find_least(self) -> str:
        minima = [
            c
            for c in self._contexts
            if all((c, d) in self._order for d in self._contexts)
        ]
        if len(minima) != 1:
            raise StructureError(f"poset must have a unique least element, got {minima}")
        return minima[0]

    # -- order ----------------------------------------------------------

    def leq(self, c1: str, c2: str) -> bool:
        """True iff c2 is at least as informative as c1."""
        self.algebra(c1), self.algebra(c2)
        return (c1, c2) in self._order

    def upset(self, c: str) -> frozenset:
        self.algebra(c)
        return frozenset(d for d in self._contexts if self.leq(c, d))

    def meet_contexts(self, c1: str, c2: str) -> str:
        """Greatest lower bound; always exists (worst case the least element)."""
        lower = [c for c in self._contexts if self.leq(c, c1) and self.leq(c, c2)]
        for c in lower:
            if all(self.leq(d, c) for d in lower):
                return c
        raise StructureError(f"no greatest lower bound for {c1!r}, {c2!r}")

    def try_join_contexts(self, c1: str, c2: str) -> str | None:
        """Least upper bound, or None when the pair is incompatible."""
        upper = [c for c in self._contexts if self.leq(c1, c) and self.leq(c2, c)]
        for c in upper:
            if all(self.leq(c, d) for d in upper):
                return c
        return None

    # -- embeddings -----------------------------------------------------

    def embed(self, c1: str, c2: str, x: Element) -> Element:
        """Image of an element of c1 inside c2 (requires c1 <= c2)."""
        if c1 == c2:
            return x
        if not self.leq(c1, c2):
            raise UnknownContextError(f"{c1!r} is not below {c2!r}")
        emb = self._embeddings[(c1, c2)]
        out: set = set()
        for a in x:
            out |= emb[a]
        return frozenset(out)

    # -- validation -----------------------------------------------------

    def validate(self) -> list[str]:
        """Check every structural invariant; return a list of violations."""
        issues: list[str] = []
        ids = self.context_ids
        # partial order: antisymmetry and transitivity (reflexivity by build)
        for a, b in self._order:
            if a != b and (b, a) in self._order:
                issues.append(f"order not antisymmetric: {a!r} ~ {b!r}")
        for a, b in self._order:
            for b2, c in self._order:
                if b2 == b and (a, c) not in self._order:
                    issues.append(f"order not transitive at {a!r} <= {b!r} <= {c!r}")
        # embeddings present and well formed for each strict pair
        for a, b in self._order:
            if a == b:
                continue
            emb = self._embeddings.get((a, b))
            if emb is None:
                issues.append(f"missing embedding {a!r} -> {b!r}")
                continue
            alg_a, alg_b = self._contexts[a], self._contexts[b]
            if set(emb) != set(alg_a.atoms):
                issues.append(f"embedding {a!r} -> {b!r} not total on atoms")
                continue
            images = [emb[x] for x in alg_a.atoms]
            if any(not img for img in images):
                issues.append(f"embedding {a!r} -> {b!r} drops an atom")
            seen: set = set()
            for img in images:
                if img & seen:
                    issues.append(f"embedding {a!r} -> {b!r} atom images overlap")
                    break
                seen |= img
            if seen != set(alg_b.atoms):
                issues.append(f"embedding {a!r} -> {b!r} does not cover the target top")
        # composition along chains
        for a in ids:
            for b in ids:
                for c in ids:
                    if a == b or b == c or not (self.leq(a, b) and self.leq(b, c)):
                        continue
                    if not self.leq(a, c):
                        continue  # already reported as a transitivity violation
                    for atom in self._contexts[a].atoms:
                        direct = self.embed(a, c, frozenset({atom}))
                        via = self.embed(b, c, self.embed(a, b, frozenset({atom})))
                        if direct != via:
                            issues.append(
                                f"embedding composition fails {a!r}->{b!r}->{c!r} at {atom!r}"
                            )
        # closure under pairwise meets
        for a in ids:
            for b in ids:
                try:
                    self.meet_contexts(a, b)
                except StructureError:
                    issues.append(f"no meet for {a!r}, {b!r}")
        return issues

    def __repr__(self):
        return f"ContextPoset({len(self._contexts)} contexts, least={self._least!r})"
