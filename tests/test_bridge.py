"""The classical bridge against a Section-level oracle.

The oracle maps every classical section through the context map and the
atom maps (a cell goes to the twin atom with the same diagonal support),
then requires the maps to biject, the context order to agree both ways,
the mapped sections to be the twin's sections, one to one, and the
section order to agree on every pair.

The commuting twin makes the classical closure an exact oracle for the
quantum one: the classical observables alone, as U diag(v) U^dagger with
one dense unitary U, must close to the classical model's point poset, and
the twin's frame must carry out the classical Heyting operations on the
images of drawn up-sets.
"""

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlogic import (
    ClassicalModel,
    ClassicalObservable,
    OutcomeSpace,
    QuantumModel,
    ResourceLimitError,
    bridge,
)
from qlogic.bridge import _SUPPORT_CUT, classical_bridge
from qlogic.classical import cell_id, partition_meet
from qlogic.cli import main
from qlogic.quantum import QuantumContext
from qlogic.sections import Section

from conftest import FIXTURES, GOLDEN, haar_unitary, loaded
from partitions import model_partitions


def oracle_isomorphic(model, qmodel, ctx_map) -> bool:
    partitions = model_partitions(model)
    finest = functools.reduce(partition_meet, partitions.values())
    coords = sorted(cell_id(c) for c in finest)
    atom_maps = {}
    for cid, p in partitions.items():
        qctx = qmodel.contexts[ctx_map[cid]]
        amap = {}
        for cell in p:
            support = {coords.index(cell_id(f)) for f in finest if f <= cell}
            for n, q in zip(qctx.atom_names, qctx.atoms):
                if {i for i in range(len(coords)) if abs(q[i, i]) > 0.5} == support:
                    amap[cell_id(cell)] = n
                    break
            else:
                return False
        atom_maps[cid] = amap
    if sorted(ctx_map.values()) != sorted(qmodel.contexts):
        return False
    for a in ctx_map:
        for b in ctx_map:
            if model.poset.leq(a, b) != qmodel.poset.leq(ctx_map[a], ctx_map[b]):
                return False

    def map_section(s: Section) -> Section:
        return Section.from_dict(
            {ctx_map[c]: frozenset(atom_maps[c][a] for a in v) for c, v in s.items}
        )

    classical = model.frame.enumerate_sections()
    mapped = [map_section(s) for s in classical]
    if len(set(mapped)) != len(classical):
        return False
    if set(mapped) != set(qmodel.frame.enumerate_sections()):
        return False
    return all(
        model.frame.leq(s1, s2) == qmodel.frame.leq(m1, m2)
        for s1, m1 in zip(classical, mapped)
        for s2, m2 in zip(classical, mapped)
    )


def check_bridge(model) -> bool:
    """Run the bridge, require the oracle to agree, and return its verdict."""
    qmodel, report = classical_bridge(model)
    assert oracle_isomorphic(model, qmodel, report.context_map) == report.isomorphic
    return report.isomorphic


class ReversedAtomNames(QuantumModel):
    """A twin whose first two-atom context lists its atom names reversed
    after the build, so the names no longer match the frame's points."""

    def _build(self):
        super()._build()
        cid, ctx = next((c, x) for c, x in self.contexts.items() if len(x.atoms) == 2)
        self.contexts[cid] = QuantumContext(ctx.atom_names[::-1], ctx.atoms)


class SharedContext(QuantumModel):
    """A twin that reports one context for every observable, so the
    classical points cannot map one to one onto the twin's."""

    def _build(self):
        super()._build()
        first = self.obs_context[min(self.obs_context)]
        self.obs_context = dict.fromkeys(self.obs_context, first)


@pytest.mark.parametrize(
    "fault, name, isomorphic",
    [
        # swapping figure1's two cells is an automorphism of its frame
        (ReversedAtomNames, "figure1_model", True),
        (ReversedAtomNames, "crossing_model", False),
        (SharedContext, "figure1_model", False),
        (SharedContext, "crossing_model", False),
    ],
)
def test_bridge_catches_a_faulty_twin(fault, name, isomorphic, request, monkeypatch):
    monkeypatch.setattr(bridge, "QuantumModel", fault)
    assert check_bridge(request.getfixturevalue(name)) is isomorphic


def test_bridge_cli_fails_on_reversed_atom_names(capsys, monkeypatch):
    monkeypatch.setattr(bridge, "QuantumModel", ReversedAtomNames)
    assert main(["bridge", str(FIXTURES / "crossing.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "classical sections: 48",
        "quantum sections:   48",
        "result: section order mismatch",
    ]


def test_bridge_guard_fails_before_the_twin_is_built(figure1_model, monkeypatch):
    built = []
    monkeypatch.setattr(bridge, "QuantumModel", built.append)
    monkeypatch.setenv("QLOGIC_ENUM_GUARD", "3")
    with pytest.raises(ResourceLimitError, match="exceeds guard 3"):
        classical_bridge(figure1_model)
    assert built == []


# -- the commuting twin --------------------------------------------------------------


def commuting_twin(model: ClassicalModel, u: np.ndarray) -> QuantumModel:
    """The quantum model of the classical observables alone: each one is
    U diag(v) U^dagger, v numbering its values 1, 2, ... in sorted order
    over the points in bit order, so the closure finds every meet and join
    itself, on dense matrices."""
    observables = {}
    for name, obs in model.observables.items():
        values = obs.values()
        number = {v: k for k, v in enumerate(sorted(set(values.values())), 1)}
        v = np.array([number[values[x]] for x in model.omega.order()], float)
        observables[name] = (u * v) @ u.conj().T
    return QuantumModel(observables)


def point_keys(poset, masks: dict) -> list:
    """Each point of the poset's table, in bit order, as (the set of its
    context's atom masks, its own mask); masks maps (context, atom) to the
    mask of the coordinates the atom covers."""
    spans = {}
    for (c, _), mask in masks.items():
        spans.setdefault(c, set()).add(mask)
    return [(frozenset(spans[c]), masks[c, a]) for c, a in poset.point_table.points]


# the frame operations on two sections, the second unread by neg
HEYTING = {
    "meet": lambda frame, s, t: frame.meet([s, t]),
    "join": lambda frame, s, t: frame.join([s, t]),
    "implies": lambda frame, s, t: frame.implies(s, t),
    "neg": lambda frame, s, _: frame.neg(s),
}


def check_twin(model: ClassicalModel, u: np.ndarray, g: np.random.Generator) -> QuantumModel:
    """The twin's point poset is the classical one's, as classical_bridge
    checks it: a classical cell covers its block's points, a twin atom p
    the coordinates where diag(U^dagger p U) passes _SUPPORT_CUT; keyed so,
    the points must biject, and the map must carry every classical up-set
    onto the up-set of its image.  On four up-sets drawn by g, each
    generated by 0-3 points, the twin frame's meet, join, implies and neg of
    their images are the images of the classical results."""
    twin = commuting_twin(model, u)
    cells = {
        (c, a): block
        for c, blocks in model.blocks.items()
        for block, a in zip(blocks, model.poset.algebra(c).atoms)
    }
    supports = {}
    for c, ctx in twin.contexts.items():
        diag = np.diagonal(u.conj().T @ ctx.atoms @ u, axis1=1, axis2=2)
        for a, row in zip(ctx.atom_names, np.abs(diag) > _SUPPORT_CUT):
            supports[c, a] = sum(1 << i for i in np.flatnonzero(row).tolist())
    classical, quantum = point_keys(model.poset, cells), point_keys(twin.poset, supports)
    assert len(set(quantum)) == len(quantum) and set(classical) == set(quantum)
    bit = {key: b for b, key in enumerate(quantum)}
    image = [bit[key] for key in classical]

    def carry(mask: int) -> int:
        return sum(1 << q for p, q in enumerate(image) if mask >> p & 1)

    up, twin_up = model.poset.point_table.up, twin.poset.point_table.up
    assert len(image) == len(twin_up)
    assert all(carry(m) == twin_up[image[p]] for p, m in enumerate(up))
    drawn = [
        functools.reduce(operator.or_, (up[p] for p in g.choice(len(up), k).tolist()), 0)
        for k in g.integers(0, 4, size=4).tolist()
    ]
    frame, twin_frame = model.frame, twin.frame
    for s, t in itertools.product(drawn, repeat=2):
        for name, op in HEYTING.items():
            want = frame._mask(op(frame, frame._section(s), frame._section(t)))
            got = op(twin_frame, twin_frame._section(carry(s)), twin_frame._section(carry(t)))
            assert twin_frame._mask(got) == carry(want), name
    return twin


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commuting_twin_closes_to_the_classical_poset(data):
    """1-6 points, 1-3 observables of degenerate values, and one Haar U."""
    n = data.draw(st.integers(1, 6))
    points = [f"w{i}" for i in range(n)]
    observables = {}
    for j in range(data.draw(st.integers(1, 3))):
        values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        observables[f"O{j}"] = ClassicalObservable.from_dict(f"O{j}", dict(zip(points, values)))
    model = ClassicalModel(OutcomeSpace(frozenset(points)), observables)
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    check_twin(model, haar_unitary(g, n), g)


def test_classical8_twin_closes_to_the_classical_poset():
    """230 contexts and 999 points on C^8, from the five observables alone."""
    model = loaded(GOLDEN / "classical8_seed0.json")
    g = np.random.default_rng(0)
    twin = check_twin(model, haar_unitary(g, 8), g)
    assert len(twin.contexts) == 230 and len(twin.poset.point_table.points) == 999
