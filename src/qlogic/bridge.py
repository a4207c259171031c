"""Classical/commutative bridge: a classical model and its diagonal twin.

Every partition of a classical model becomes a diagonal observable,
constant on its cells, over coordinates indexed by the cells of the
finest partition.  Both section frames are up-set lattices of their
(context, atom) point posets (Birkhoff), so they are order-isomorphic
when the map that sends a cell to the twin atom with the same coordinate
support (a mask of coordinates) is an isomorphism of the point posets: a
bijection that carries the up-set of every classical point onto the
up-set of its image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import ClassicalModel
from .quantum import QuantumModel

# a diagonal projection's entries are 0 or 1 within tau_proj: the midpoint reads its support
_SUPPORT_CUT = 0.5


@dataclass(frozen=True)
class BridgeReport:
    context_map: dict
    section_count_classical: int
    section_count_quantum: int
    isomorphic: bool
    detail: str


def classical_bridge(model: ClassicalModel) -> tuple[QuantumModel, BridgeReport]:
    """Build the diagonal (commutative) quantum model of a classical model
    and check that the two section frames are order-isomorphic.

    Both frames are enumerated for their section counts, the classical one
    first, so the enumeration guard fails before the twin is built.
    """
    classical_count = len(model.frame._upsets())
    classical = model.poset.point_table
    # the closure holds the meet of all its partitions: the one of most cells
    finest = max(model.blocks.values(), key=len)
    support = {}  # (context, cell) -> mask of its coordinates, the finest cells in it
    obs = {}
    names = {}
    for k, cid in enumerate(sorted(model.blocks)):
        diag = np.zeros(len(finest))
        for v, (block, atom) in enumerate(zip(model.blocks[cid], model.poset.algebra(cid).atoms)):
            coords = [i for i, f in enumerate(finest) if f & block]  # f meets block iff inside
            diag[coords] = v
            support[cid, atom] = sum(1 << i for i in coords)
        names[cid] = f"D{k}"
        obs[f"D{k}"] = np.diag(diag).astype(complex)

    qmodel = QuantumModel(obs)
    ctx_map = {cid: qmodel.obs_context[names[cid]] for cid in model.blocks}
    twin = qmodel.poset.point_table
    twin_point = {}  # (context, mask of the atom's coordinates) -> twin point bit
    for d in set(ctx_map.values()):
        ctx = qmodel.contexts[d]
        for n, q in zip(ctx.atom_names, ctx.atoms):
            coords = np.flatnonzero(np.abs(np.diag(q)) > _SUPPORT_CUT).tolist()
            twin_point[d, sum(1 << i for i in coords)] = twin.index[d, n]
    image = [twin_point.get((ctx_map[c], support[c, a])) for c, a in classical.points]
    quantum_count = len(qmodel.frame._upsets())

    def carry(mask: int) -> int:
        return sum(1 << q for p, q in enumerate(image) if mask >> p & 1)

    ok = (
        len(image) == len(twin.up)
        and set(image) == set(range(len(twin.up)))
        and all(carry(u) == twin.up[image[p]] for p, u in enumerate(classical.up))
    )
    detail = "order isomorphism verified exhaustively" if ok else "section order mismatch"
    return qmodel, BridgeReport(ctx_map, classical_count, quantum_count, ok, detail)
