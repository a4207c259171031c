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
from typing import Iterable, Iterator, Mapping

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


class ContextPoset:
    """Immutable poset of contexts with local algebras and embeddings.

    Parameters
    ----------
    contexts:
        mapping id -> LocalAlgebra.
    order:
        iterable of (lower, upper) pairs of known ids.  The relation is
        stored as given plus reflexivity and is not closed transitively:
        validate() reports a missing transitive pair.
    embeddings:
        (lower, upper) -> {coarse atom -> frozenset of fine atoms} for
        every strict pair of the order.  Identity pairs are implied.

    The i-th id of ``context_ids`` (sorted) is bit i of two masks per
    context: ``_up[i]`` holds the contexts above i, ``_down[i]`` those
    below it, both including i.
    """

    def __init__(
        self,
        contexts: Mapping[str, LocalAlgebra],
        order: Iterable[tuple[str, str]],
        embeddings: Mapping[tuple[str, str], Mapping[str, frozenset]],
    ):
        self._contexts = dict(contexts)
        self._ids = tuple(sorted(self._contexts))
        self._bit = {c: i for i, c in enumerate(self._ids)}
        self._up = [1 << i for i in range(len(self._ids))]
        self._down = list(self._up)
        for a, b in order:
            i, j = self._index(a), self._index(b)
            self._up[i] |= 1 << j
            self._down[j] |= 1 << i
        self._embeddings = {
            pair: {k: frozenset(v) for k, v in emb.items()}
            for pair, emb in embeddings.items()
        }
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
        """Check every structural invariant; return a list of violations,
        in sorted-id order."""
        issues: list[str] = []
        ids, up, down = self._ids, self._up, self._down
        unusable: set[tuple[str, str]] = set()  # embeddings that cannot be applied
        atom_set = {c: frozenset(alg.atoms) for c, alg in self._contexts.items()}
        # per strict pair: antisymmetry, transitivity (reflexivity by build),
        # and an embedding that is present and well formed
        for i, a in enumerate(ids):
            for j in _bits(up[i] & ~(1 << i)):
                b = ids[j]
                if up[j] >> i & 1:
                    issues.append(f"order not antisymmetric: {a!r} ~ {b!r}")
                for k in _bits(up[j] & ~up[i]):
                    issues.append(f"order not transitive at {a!r} <= {b!r} <= {ids[k]!r}")
                emb = self._embeddings.get((a, b))
                if emb is None:
                    issues.append(f"missing embedding {a!r} -> {b!r}")
                    unusable.add((a, b))
                    continue
                atoms = self._contexts[a].atoms
                if emb.keys() != atom_set[a]:
                    issues.append(f"embedding {a!r} -> {b!r} not total on atoms")
                    unusable.add((a, b))
                    continue
                images = [emb[x] for x in atoms]
                if not all(images):
                    issues.append(f"embedding {a!r} -> {b!r} drops an atom")
                seen: set = set()
                for img in images:
                    if img & seen:
                        issues.append(f"embedding {a!r} -> {b!r} atom images overlap")
                        break
                    seen |= img
                target = atom_set[b]
                if seen != target:
                    issues.append(f"embedding {a!r} -> {b!r} does not cover the target top")
                if not target.issuperset(set().union(*images)):
                    unusable.add((a, b))
        # composition along chains a <. b < c: on a partial order this
        # covers every chain, by induction on the interval from a to b.  A
        # chain through an embedding that is missing, partial or names atoms
        # its target lacks (each reported above) cannot be composed.  Atom t
        # of a composes iff its image in c is the union of the images in c
        # of the atoms of b it maps to, compared as masks over c's atoms.
        bit: dict[str, dict[str, int]] = {}  # context -> atom -> its bit
        masks: dict[tuple[str, str], list[int]] = {}

        def images_of(a: str, c: str) -> list[int]:
            got = masks.get((a, c))
            if got is None:
                atoms = self._contexts[a].atoms
                if a == c:  # on a cycle of the order
                    got = [1 << t for t in range(len(atoms))]
                else:
                    one = bit.get(c)
                    if one is None:
                        one = bit[c] = {x: 1 << s for s, x in enumerate(self._contexts[c].atoms)}
                    emb = self._embeddings[(a, c)]
                    got = [sum(map(one.__getitem__, emb[x])) for x in atoms]
                masks[a, c] = got
            return got

        for a, b in self.covers():
            i, j = self._bit[a], self._bit[b]
            ab = None  # (t, s) for each atom s of b in the image of atom t of a
            for k in _bits(up[i] & up[j] & ~(1 << j)):
                c = ids[k]
                if unusable and not unusable.isdisjoint([(a, b), (a, c), (b, c)]):
                    continue
                if ab is None:
                    ab = [(t, s) for t, m in enumerate(images_of(a, b)) for s in _bits(m)]
                bc, ac = images_of(b, c), images_of(a, c)
                via = [0] * len(ac)
                for t, s in ab:
                    via[t] |= bc[s]
                if via != ac:
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
