"""Classical mechanics instantiation: partitions of a finite outcome space.

Observables are normalized to the partition of the outcome space they
generate.  A closed family of partitions becomes a context poset whose
informativeness order is reverse refinement (finer = more informative);
cells of a partition are the atoms of its local algebra.  A cell is held
as a block mask over the points in ``OutcomeSpace.order()``; its id string
is made once per mask, as an atom name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .errors import DomainError
from .poset import ContextPoset, LocalAlgebra, _bits
from .sections import BOTTOM, ElementaryProposition, Frame

Partition = frozenset  # of cells, each a frozenset of points

# the characters that spell cell ids ({a,b}) and context ids ({a}/{b})
ID_CHARS = ",{}/"


@dataclass(frozen=True)
class OutcomeSpace:
    points: frozenset

    def __post_init__(self):
        if not self.points:
            raise DomainError("outcome space must be non-empty")
        for x in self.order():
            if any(ch in str(x) for ch in ID_CHARS):
                raise DomainError(
                    f"point {str(x)!r}: a point name may not hold ',', '{{', '}}' or '/',"
                    " which spell cell ids"
                )

    def order(self) -> tuple:
        """The points in bit order: bit i of a block mask is point i."""
        return tuple(sorted(self.points, key=str))


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
    """The outcome space's points indexed in bit order (OutcomeSpace.order).

    A partition of the n points is held as its rows, ``rows[x]`` the mask
    of x's block, packed into one int of n*n bits with row x at bit x*n:
    points x and y share a block iff bit x*n + y is set.  Meet is ``&``, p
    is finer than q iff ``p & ~q == 0``, and join merges blocks on the rows.
    """

    def __init__(self, omega: OutcomeSpace):
        self.names = omega.order()
        self.n = len(self.names)
        self.index = {x: i for i, x in enumerate(self.names)}
        self._ids: dict[int, str] = {}
        self._diagonals: dict[int, int] = {}

    def diagonal(self, m: int) -> int:
        """The int with bit x*n set for each point x of the mask m, so that
        m times it holds m in the row of each of its points."""
        d = self._diagonals.get(m)
        if d is None:
            d = self._diagonals[m] = sum(1 << x * self.n for x in _bits(m))
        return d

    def pack(self, blocks: Iterable[int]) -> int:
        """The packed partition with the given blocks."""
        return sum(b * self.diagonal(b) for b in blocks)

    def rows(self, packed: int) -> tuple[int, ...]:
        n, full = self.n, (1 << self.n) - 1
        return tuple(packed >> x * n & full for x in range(n))

    def fibers(self, obs: ClassicalObservable) -> dict:
        """Each outcome value of the observable -> the mask of its preimage."""
        vm = obs.values()
        if vm.keys() != self.index.keys():
            raise DomainError(f"observable {obs.name!r} is not total on the outcome space")
        blocks: dict = {}
        for x, v in vm.items():
            blocks[v] = blocks.get(v, 0) | 1 << self.index[x]
        return blocks

    def cell_id(self, block: int) -> str:
        """The id of a block's cell, made once per mask."""
        got = self._ids.get(block)
        if got is None:
            got = self._ids[block] = cell_id(self.names[x] for x in _bits(block))
        return got

    def blocks(self, packed: int) -> tuple[int, ...]:
        """The blocks of two or more points."""
        return tuple({row for row in self.rows(packed) if row & row - 1})

    def join(self, packed: int, blocks: Iterable[int]) -> int:
        """Finest common coarsening of a packed partition and the partition
        with the given blocks of two or more points: per block, the blocks
        it touches merge.  A merged block m only grows, so it is or-ed into
        all its rows at once, as m times its diagonal."""
        n, full = self.n, (1 << self.n) - 1
        for b in blocks:
            m = packed >> ((b & -b).bit_length() - 1) * n & full
            rest = b & ~m
            if not rest:
                continue
            while rest:
                m |= packed >> ((rest & -rest).bit_length() - 1) * n & full
                rest &= ~m
            packed |= m * self.diagonal(m)
        return packed


def _close(points: _Points, family: list[int]) -> tuple[list[int], list[int]]:
    """The packed partitions, {Omega} added, closed under meet and join, and
    per member the mask of the members at or below it, as fine or finer.

    Partitions are ordered by refinement, finer below, so join coarsens.
    Each member is walked once against the earlier ones: a comparable pair
    is recorded in the coarser member's mask, and an incomparable pair's
    meet (``&``) is added.  Joins are then taken only against the
    join-irreducibles J(F), the members with exactly one lower cover: each
    member x is joined with each j in J(F) it is incomparable to and was
    not joined with yet.  This repeats until no member is new.

    Why that closes F under every join: F holds Omega and is closed under
    meets, so it is a finite lattice, in which every element is the join of
    the join-irreducibles below it (Birkhoff; Davey & Priestley,
    Introduction to Lattices and Order, ch. 2).  Suppose x v j is in F for
    every x in F and j in J(F), and take y in F other than its least member
    (for that one x v y = x).  The iterated join z of the j in J(F) below y
    stays in F, and z <= y.  In the lattice down-set of y in F, y is the
    least upper bound of those j and z is an upper bound of them, so
    z = y.  Hence x v y = x v j_1 v ... v j_k, one step at a time, inside
    F."""
    family = list(dict.fromkeys([*family, points.pack([(1 << points.n) - 1])]))
    seen = set(family)
    down = []  # per member: the mask of the members at or below it
    done = []  # per member: the mask of the members comparable to it or joined with it
    blocks = {}  # per join-irreducible: its blocks, the second argument of a join
    k = 0
    while k < len(family):
        while k < len(family):  # the meets; the list grows while it is walked
            e1, below, comparable = family[k], 1 << k, 1 << k
            for i in range(k):
                meet = e1 & family[i]
                if meet == e1:
                    down[i] |= 1 << k
                elif meet == family[i]:
                    below |= 1 << i
                else:
                    if meet not in seen:
                        seen.add(meet)
                        family.append(meet)
                    continue
                comparable |= 1 << i
                done[i] |= 1 << k
            down.append(below)
            done.append(comparable)
            k += 1
        # x has one lower cover iff its strict down-set is some g's down-set
        downs = set(down)
        irreducible = 0
        for x, d in enumerate(down):
            if d & ~(1 << x) in downs:
                irreducible |= 1 << x
        for x in range(k):
            for j in _bits(irreducible & ~done[x]):
                done[x] |= 1 << j
                done[j] |= 1 << x
                if j not in blocks:
                    blocks[j] = points.blocks(family[j])
                q = points.join(family[x], blocks[j])
                if q not in seen:
                    seen.add(q)
                    family.append(q)
    return family, down


# -- context poset construction ------------------------------------------


def cell_id(cell: Iterable) -> str:
    return "{" + ",".join(sorted(str(x) for x in cell)) + "}"


def build_classical_frame(
    observables: Iterable[ClassicalObservable], omega: OutcomeSpace
) -> tuple[ContextPoset, list[str], dict[str, tuple[int, ...]]]:
    """Context poset of the smallest family that holds the observables'
    partitions and {Omega} and is closed under meet and join.

    Returns the poset, each observable's context id, and each context's
    atoms as block masks over omega.order(), in the context's atom order.
    The order is reverse refinement: a finer partition is the more
    informative context.  The poset is handed the covers alone, read off
    _close's down-set masks, and takes their closure as the order.  An
    embedding sends each coarse cell to the fine cells whose lowest point
    it holds.
    """
    points = _Points(omega)
    inputs = [points.pack(points.fibers(obs).values()) for obs in observables]
    family, down = _close(points, inputs)
    ids, atoms, contexts = [], {}, {}
    where = []  # per partition: point -> index of its cell among the atoms
    lows = []  # per partition: the lowest point of each atom
    for e in family:
        rows = points.rows(e)
        blocks = tuple(sorted(set(rows), key=points.cell_id))
        names = tuple(map(points.cell_id, blocks))
        cid = "/".join(names)
        ids.append(cid)
        atoms[cid] = blocks
        contexts[cid] = LocalAlgebra(names)
        slot = {block: s for s, block in enumerate(blocks)}
        where.append([slot[block] for block in rows])
        lows.append([(block & -block).bit_length() - 1 for block in blocks])
    images = {}  # the covers only: their closure is the order
    for i, lower in enumerate(where):
        finer = down[i] & ~(1 << i)
        past = 0  # the partitions strictly finer than a finer one
        for j in _bits(finer):
            past |= down[j] & ~(1 << j)
        for j in _bits(finer & ~past):
            masks = [0] * len(lows[i])
            for s, low in enumerate(lows[j]):
                masks[lower[low]] |= 1 << s
            images[ids[i], ids[j]] = masks
    position = {e: i for i, e in enumerate(family)}
    return ContextPoset(contexts, embeddings=images), [ids[position[e]] for e in inputs], atoms


@dataclass
class ClassicalModel:
    """A finite outcome space with observables, the section frame built on
    the closed family of their partitions, each context's atoms as block
    masks (build_classical_frame), and each observable's context id."""

    omega: OutcomeSpace
    observables: dict[str, ClassicalObservable]
    poset: ContextPoset = field(init=False)
    frame: Frame = field(init=False)
    blocks: dict[str, tuple[int, ...]] = field(init=False)
    obs_context: dict[str, str] = field(init=False)
    # observable -> outcome value -> the atom of its context that is the
    # value's preimage
    _value_atoms: dict[str, dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.poset, ids, self.blocks = build_classical_frame(
            self.observables.values(), self.omega
        )
        self.obs_context = dict(zip(self.observables, ids))
        names = self.omega.order()
        self._value_atoms = {}
        for (name, obs), cid in zip(self.observables.items(), ids):
            atoms = zip(self.blocks[cid], self.poset.algebra(cid).atoms)
            atom_of = {names[x]: atom for block, atom in atoms for x in _bits(block)}
            self._value_atoms[name] = {v: atom_of[x] for x, v in obs.value_map}
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
        atom = self._value_atoms.get(name)
        if atom is None:
            raise DomainError(f"unknown observable {name!r}")
        delta = set(delta_values)
        bad = delta - atom.keys()
        if bad:
            raise DomainError(
                f"values {sorted(map(str, bad))} not in the range of {name!r}"
            )
        if not delta:
            return BOTTOM
        return ElementaryProposition(self.obs_context[name], frozenset(atom[v] for v in delta))
