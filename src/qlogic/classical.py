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
from .poset import ContextPoset, LocalAlgebra, _bits
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


class _Points:
    """The outcome space's points indexed in sorted-name order.

    A partition of the n points is held as its rows, ``rows[x]`` the mask
    of x's block, packed into one int of n*n bits with row x at bit x*n:
    points x and y share a block iff bit x*n + y is set.  Meet is ``&``, p
    refines q iff ``p & ~q == 0``, and join merges blocks on the rows.
    """

    def __init__(self, omega: OutcomeSpace):
        self.names = tuple(sorted(omega.points, key=str))
        self.n = len(self.names)
        self._index = {x: i for i, x in enumerate(self.names)}
        self._cells: dict[int, tuple[Cell, str]] = {}
        self._diagonals: dict[int, int] = {}

    def pack(self, rows) -> int:
        n = self.n
        return sum(row << x * n for x, row in enumerate(rows))

    def rows(self, packed: int) -> tuple[int, ...]:
        n, full = self.n, (1 << self.n) - 1
        return tuple(packed >> x * n & full for x in range(n))

    def encode(self, p: Partition) -> int:
        rows = [0] * self.n
        for cell in p:
            block = sum(1 << self._index[x] for x in cell)
            for x in cell:
                rows[self._index[x]] = block
        return self.pack(rows)

    def cell(self, block: int) -> tuple[Cell, str]:
        """The cell of a block mask and its id, built once per mask."""
        got = self._cells.get(block)
        if got is None:
            c = frozenset(self.names[x] for x in _bits(block))
            got = self._cells[block] = (c, cell_id(c))
        return got

    def decode(self, packed: int) -> Partition:
        return frozenset(self.cell(block)[0] for block in set(self.rows(packed)))

    def blocks(self, packed: int) -> tuple[int, ...]:
        """The blocks of two or more points."""
        return tuple({row for row in self.rows(packed) if row & row - 1})

    def join(self, packed: int, blocks: Iterable[int]) -> int:
        """Finest common coarsening of a packed partition and the partition
        with the given blocks of two or more points: per block, the blocks
        it touches merge.  A merged block m only grows, so it is or-ed into
        all its rows at once, as m times the int with bit x*n set for each
        point x of m."""
        n, full = self.n, (1 << self.n) - 1
        for b in blocks:
            m = packed >> ((b & -b).bit_length() - 1) * n & full
            rest = b & ~m
            if not rest:
                continue
            while rest:
                m |= packed >> ((rest & -rest).bit_length() - 1) * n & full
                rest &= ~m
            diagonal = self._diagonals.get(m)
            if diagonal is None:
                diagonal = self._diagonals[m] = sum(1 << x * n for x in _bits(m))
            packed |= m * diagonal
        return packed


def _close(points: _Points, family: list[int]) -> list[int]:
    """The packed partitions, {Omega} added, closed under meet and join.

    Each pair is taken once, when the later of the two is walked; a
    comparable pair is skipped, since its meet and join are the pair."""
    family = list(dict.fromkeys([*family, points.pack([(1 << points.n) - 1] * points.n)]))
    blocks = [points.blocks(e) for e in family]
    seen = set(family)
    for k, e1 in enumerate(family):  # the list grows while it is walked
        for i in range(k):
            e2 = family[i]
            meet = e1 & e2
            if meet == e1 or meet == e2:
                continue
            for q in (meet, points.join(e1, blocks[i])):
                if q not in seen:
                    seen.add(q)
                    family.append(q)
                    blocks.append(points.blocks(q))
    return family


def close_partition_family(
    partitions: Iterable[Partition], omega: OutcomeSpace
) -> frozenset:
    """Smallest family containing the inputs and {Omega}, closed under
    pairwise meet and finest-common-coarsening join."""
    points = _Points(omega)
    family = _close(points, [points.encode(p) for p in partitions])
    return frozenset(points.decode(e) for e in family)


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
    An embedding sends each coarse cell to the fine cells whose lowest
    point it holds.
    """
    points = _Points(omega)
    family = _close(points, [points.encode(p) for p in partitions])
    ids, parts, contexts = [], {}, {}
    where = []  # per partition: point -> index of its cell among the atoms
    lows = []  # per partition: the lowest point of each atom
    for e in family:
        rows = points.rows(e)
        blocks = sorted(set(rows), key=lambda block: points.cell(block)[1])
        atoms = tuple(points.cell(block)[1] for block in blocks)
        cid = "/".join(atoms)
        ids.append(cid)
        parts[cid] = frozenset(points.cell(block)[0] for block in blocks)
        contexts[cid] = LocalAlgebra(atoms)
        slot = {block: s for s, block in enumerate(blocks)}
        where.append([slot[block] for block in rows])
        lows.append([(block & -block).bit_length() - 1 for block in blocks])
    images = {}
    for i, e1 in enumerate(family):
        outside = ~e1
        for j, e2 in enumerate(family):
            if e2 & outside or i == j:
                continue
            masks = [0] * len(lows[i])
            for s, low in enumerate(lows[j]):
                masks[where[i][low]] |= 1 << s
            images[ids[i], ids[j]] = masks
    return ContextPoset(contexts, list(images), images), parts


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
        elementary to reject.  A token that spells two values (0 and "0")
        raises DomainError."""
        obs = self.observables.get(name)
        by_text: dict[str, list] = {}
        for v in obs.range() if obs else ():
            by_text.setdefault(str(v), []).append(v)
        values = []
        for t in tokens:
            spelled = by_text.get(t, [t])
            if len(spelled) > 1:
                raise DomainError(
                    f"outcome {t!r} of {name!r} is ambiguous: values "
                    + ", ".join(sorted(map(repr, spelled)))
                )
            values.append(spelled[0])
        return values

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
