"""Frozenset partitions, the form tests write classical partitions in.

A partition is a frozenset of cells, each a frozenset of points.  The
library holds a partition as block masks over ``OutcomeSpace.order()``;
these are the definitions it is checked against (the partition an
observable generates, refinement, the id of a partition) and the decoding
of its masks.
"""

from qlogic import ClassicalObservable, DomainError
from qlogic.classical import cell_id


def P(*cells):
    return frozenset(frozenset(c) for c in cells)


def partition_of_observable(obs, omega):
    """Partition into the non-empty fibers of the observable's value map."""
    vm = obs.values()
    if set(vm) != set(omega.points):
        raise DomainError(f"observable {obs.name!r} is not total on the outcome space")
    fibers = {}
    for point, value in vm.items():
        fibers.setdefault(value, set()).add(point)
    return frozenset(frozenset(cell) for cell in fibers.values())


def refines(p1, p2) -> bool:
    """True iff every cell of p1 lies inside a cell of p2 (p1 finer)."""
    return all(any(c1 <= c2 for c2 in p2) for c1 in p1)


def partition_id(p) -> str:
    return "/".join(sorted(cell_id(c) for c in p))


def observables_of(partitions) -> dict:
    """An observable O<k> per partition, valued by the index of the cell."""
    return {
        f"O{k}": ClassicalObservable.from_dict(
            f"O{k}", {x: v for v, cell in enumerate(sorted(p, key=cell_id)) for x in cell}
        )
        for k, p in enumerate(partitions)
    }


def cell(omega, block):
    """The cell of a block mask over omega.order()."""
    return frozenset(x for i, x in enumerate(omega.order()) if block >> i & 1)


def decode(omega, blocks):
    """The partition of the given block masks."""
    return frozenset(cell(omega, b) for b in blocks)


def model_partitions(model) -> dict:
    """Context id -> its partition, decoded from the model's block masks."""
    return {cid: decode(model.omega, blocks) for cid, blocks in model.blocks.items()}
