"""The classical bridge against a Section-level oracle.

The oracle maps every classical section through the context map and the
atom maps (a cell goes to the twin atom with the same diagonal support),
then requires the maps to biject, the context order to agree both ways,
the mapped sections to be the twin's sections, one to one, and the
section order to agree on every pair.
"""

import functools

import pytest

from qlogic import QuantumModel, ResourceLimitError, bridge
from qlogic.bridge import classical_bridge
from qlogic.classical import cell_id, partition_meet
from qlogic.cli import main
from qlogic.quantum import QuantumContext
from qlogic.sections import Section

from conftest import FIXTURES
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
