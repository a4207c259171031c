"""Classical mechanics instantiation: partitions of a finite outcome space.

Observables are normalized to the partition of the outcome space they
generate.  A closed family of partitions becomes a context poset whose
informativeness order is reverse refinement (finer = more informative);
cells of a partition are the atoms of its local algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .errors import DomainError
from .poset import ContextPoset, LocalAlgebra
from .sections import BOTTOM, ElementaryProposition, Frame

Cell = frozenset
Partition = frozenset  # of Cells


@dataclass(frozen=True)
class OutcomeSpace:
    points: frozenset

    def __post_init__(self):
        if not self.points:
            raise DomainError("outcome space must be non-empty")


@dataclass(frozen=True)
class ClassicalObservable:
    """A named map from outcome-space points to outcome values."""

    name: str
    value_map: tuple[tuple[str, Hashable], ...]

    @staticmethod
    def from_dict(name: str, values: Mapping[str, Hashable]) -> "ClassicalObservable":
        return ClassicalObservable(name, tuple(sorted(values.items())))

    def values(self) -> dict[str, Hashable]:
        return dict(self.value_map)

    def range(self) -> set:
        return set(v for _, v in self.value_map)


def partition_of_observable(obs: ClassicalObservable, omega: OutcomeSpace) -> Partition:
    """Partition into the non-empty fibers of the observable's value map."""
    vm = obs.values()
    if set(vm) != set(omega.points):
        raise DomainError(f"observable {obs.name!r} is not total on the outcome space")
    fibers: dict = {}
    for point, value in vm.items():
        fibers.setdefault(value, set()).add(point)
    return frozenset(frozenset(cell) for cell in fibers.values())


def refines(p1: Partition, p2: Partition) -> bool:
    """True iff every cell of p1 lies inside a cell of p2 (p1 finer)."""
    return all(any(c1 <= c2 for c2 in p2) for c1 in p1)


def partition_meet(p1: Partition, p2: Partition) -> Partition:
    """Common refinement: non-empty pairwise cell intersections."""
    return frozenset(
        c1 & c2 for c1 in p1 for c2 in p2 if c1 & c2
    )


def partition_join(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening: merge the blocks of p1 each cell of p2 touches."""
    block = {x: c1 for c1 in p1 for x in c1}
    for c2 in p2:
        merged = frozenset([x for y in c2 for x in block[y]])
        for x in merged:
            block[x] = merged
    return frozenset(block.values())


def close_partition_family(
    partitions: Iterable[Partition], omega: OutcomeSpace
) -> frozenset:
    """Smallest family containing the inputs and {Omega}, closed under
    pairwise meet and finest-common-coarsening join."""
    family = list(dict.fromkeys([*partitions, frozenset({frozenset(omega.points)})]))
    seen = set(family)
    for k, p1 in enumerate(family):  # the list grows while it is walked
        for p2 in family[:k]:
            for q in (partition_meet(p1, p2), partition_join(p1, p2)):
                if q not in seen:
                    family.append(q)
                    seen.add(q)
    return frozenset(family)


# -- context poset construction ------------------------------------------


def cell_id(cell: Cell) -> str:
    return "{" + ",".join(sorted(str(x) for x in cell)) + "}"


def partition_id(p: Partition) -> str:
    return "/".join(sorted(cell_id(c) for c in p))


def build_classical_frame(
    partitions: Iterable[Partition], omega: OutcomeSpace
) -> tuple[ContextPoset, dict]:
    """Context poset of the closure of the partitions (close_partition_family).

    Returns the poset and a mapping context id -> partition.  The order is
    reverse refinement: a finer partition is the more informative context.
    """
    parts = {partition_id(p): p for p in close_partition_family(partitions, omega)}
    contexts = {
        cid: LocalAlgebra(tuple(sorted(cell_id(c) for c in p)))
        for cid, p in parts.items()
    }
    embeddings = {  # p2 finer: context c2 is more informative
        (c1, c2): {
            cell_id(coarse): frozenset(cell_id(fine) for fine in p2 if fine <= coarse)
            for coarse in p1
        }
        for c1, p1 in parts.items()
        for c2, p2 in parts.items()
        if c1 != c2 and refines(p2, p1)
    }
    return ContextPoset(contexts, list(embeddings), embeddings), parts


@dataclass
class ClassicalModel:
    """A finite outcome space with observables, the partitions of their
    closed family keyed by context id, each observable's context id, and
    the section frame built on top."""

    omega: OutcomeSpace
    observables: dict[str, ClassicalObservable]
    poset: ContextPoset = field(init=False)
    frame: Frame = field(init=False)
    partitions: dict = field(init=False)
    obs_context: dict[str, str] = field(init=False)

    def __post_init__(self):
        base = {
            name: partition_of_observable(obs, self.omega)
            for name, obs in self.observables.items()
        }
        self.poset, self.partitions = build_classical_frame(base.values(), self.omega)
        self.obs_context = {name: partition_id(p) for name, p in base.items()}
        self.frame = Frame(self.poset)

    def coerce(self, name: str, tokens: Iterable[str]) -> list:
        """The outcome values of the named observable that the textual tokens
        spell; other tokens, and those of an unknown name, pass unchanged for
        elementary to reject."""
        obs = self.observables.get(name)
        by_text = {str(v): v for v in obs.range()} if obs else {}
        return [by_text.get(t, t) for t in tokens]

    def elementary(self, name: str, delta_values: Iterable) -> ElementaryProposition:
        """The proposition that a measurement of the named observable gave a
        value in delta_values."""
        if name not in self.observables:
            raise DomainError(f"unknown observable {name!r}")
        obs = self.observables[name]
        rng = obs.range()
        delta = set(delta_values)
        bad = delta - rng
        if bad:
            raise DomainError(
                f"values {sorted(map(str, bad))} not in the range of {name!r}"
            )
        if not delta:
            return BOTTOM
        preimage = {pt for pt, v in obs.value_map if v in delta}
        ctx = self.obs_context[name]
        value = frozenset(cell_id(c) for c in self.partitions[ctx] if c <= preimage)
        return ElementaryProposition(ctx, value)
