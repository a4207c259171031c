import functools

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import (
    BOTTOM,
    ClassicalModel,
    ClassicalObservable,
    DomainError,
    OutcomeSpace,
    close_partition_family,
    partition_join,
    partition_meet,
    partition_of_observable,
)
from qlogic.classical import build_classical_frame, partition_id, refines


def P(*cells):
    return frozenset(frozenset(c) for c in cells)


OMEGA4 = OutcomeSpace(frozenset({"1", "2", "3", "4"}))


def test_partition_of_observable():
    const = ClassicalObservable.from_dict("C", {"1": 7, "2": 7, "3": 7, "4": 7})
    assert partition_of_observable(const, OMEGA4) == P({"1", "2", "3", "4"})
    inj = ClassicalObservable.from_dict("I", {"1": 1, "2": 2, "3": 3, "4": 4})
    assert partition_of_observable(inj, OMEGA4) == P({"1"}, {"2"}, {"3"}, {"4"})
    a = ClassicalObservable.from_dict("A", {"1": 0, "2": 0, "3": 1, "4": 1})
    assert partition_of_observable(a, OMEGA4) == P({"1", "2"}, {"3", "4"})


def test_partition_of_observable_requires_totality():
    partial = ClassicalObservable.from_dict("A", {"1": 0, "2": 0})
    with pytest.raises(DomainError):
        partition_of_observable(partial, OMEGA4)


def test_partition_meet_and_join():
    p1 = P({"1", "2"}, {"3", "4"})
    p2 = P({"1", "3"}, {"2", "4"})
    assert partition_meet(p1, p2) == P({"1"}, {"2"}, {"3"}, {"4"})
    assert partition_join(p1, p2) == P({"1", "2", "3", "4"})
    assert partition_meet(p1, P({"1", "2", "3", "4"})) == p1


def partition_join_in(family, p1, p2):
    """Oracle join: the meet of every common coarsening within the family."""
    uppers = [p for p in family if refines(p1, p) and refines(p2, p)]
    return functools.reduce(partition_meet, uppers)


def test_partition_join_in_family():
    p1 = P({"1", "2"}, {"3", "4"})
    p2 = P({"1", "3"}, {"2", "4"})
    family = close_partition_family([p1, p2], OMEGA4)
    assert partition_join_in(family, p1, p2) == P({"1", "2", "3", "4"})
    # GLB / LUB property over the whole closed family
    for a in family:
        for b in family:
            meet = partition_meet(a, b)
            join = partition_join_in(family, a, b)
            assert refines(meet, a) and refines(meet, b)
            assert refines(a, join) and refines(b, join)
            for c in family:
                if refines(c, a) and refines(c, b):
                    assert refines(c, meet)
                if refines(a, c) and refines(b, c):
                    assert refines(join, c)


def test_close_partition_family():
    assert close_partition_family([], OMEGA4) == frozenset(
        {P({"1", "2", "3", "4"})}
    )
    p1 = P({"1", "2"}, {"3", "4"})
    assert close_partition_family([p1], OMEGA4) == frozenset(
        {p1, P({"1", "2", "3", "4"})}
    )
    p2 = P({"1", "3"}, {"2", "4"})
    family = close_partition_family([p1, p2], OMEGA4)
    assert family == frozenset(
        {
            p1,
            p2,
            P({"1"}, {"2"}, {"3"}, {"4"}),
            P({"1", "2", "3", "4"}),
        }
    )


@settings(max_examples=100, deadline=None)
@given(
    vm1=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    vm2=st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
def test_meet_join_properties_random(vm1, vm2):
    points = ["1", "2", "3", "4"]
    p1 = partition_of_observable(
        ClassicalObservable.from_dict("A", dict(zip(points, vm1))), OMEGA4
    )
    p2 = partition_of_observable(
        ClassicalObservable.from_dict("B", dict(zip(points, vm2))), OMEGA4
    )
    meet, join = partition_meet(p1, p2), partition_join(p1, p2)
    assert refines(meet, p1) and refines(meet, p2)
    assert refines(p1, join) and refines(p2, join)
    assert partition_meet(p1, p1) == p1
    assert partition_join(p1, p1) == p1


def components_join(p1, p2):
    """Oracle join: connected components of the overlapping cells."""
    groups = [set(c) for c in p1 | p2]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] & groups[j]:
                    groups[i] |= groups.pop(j)
                    merged = True
                    break
            if merged:
                break
    return frozenset(frozenset(g) for g in groups)


def rerun_closure(partitions, omega):
    """Oracle closure: every ordered pair again until nothing is added."""
    family = set(partitions) | {frozenset({frozenset(omega.points)})}
    changed = True
    while changed:
        changed = False
        for p1 in list(family):
            for p2 in list(family):
                for q in (partition_meet(p1, p2), components_join(p1, p2)):
                    if q not in family:
                        family.add(q)
                        changed = True
    return frozenset(family)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closure_matches_rerun_oracle(data):
    n = data.draw(st.integers(1, 6))
    points = [f"w{i}" for i in range(n)]
    omega = OutcomeSpace(frozenset(points))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    base = [
        partition_of_observable(
            ClassicalObservable.from_dict(f"O{j}", dict(zip(points, data.draw(labels)))),
            omega,
        )
        for j in range(data.draw(st.integers(0, 4)))
    ]
    for p1 in base:
        for p2 in base:
            assert partition_join(p1, p2) == components_join(p1, p2)
    assert close_partition_family(base, omega) == rerun_closure(base, omega)


def test_frame_closes_its_partitions():
    p1, p2 = P({"1", "2"}, {"3", "4"}), P({"1", "3"}, {"2", "4"})
    poset, parts = build_classical_frame([p1, p2], OMEGA4)
    assert set(parts.values()) == close_partition_family([p1, p2], OMEGA4)
    assert set(poset.context_ids) == set(parts)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_model_partitions_closed_random(data):
    n = data.draw(st.integers(1, 6))
    points = [f"w{i}" for i in range(n)]
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    observables = {
        f"O{j}": ClassicalObservable.from_dict(f"O{j}", dict(zip(points, data.draw(labels))))
        for j in range(data.draw(st.integers(0, 4)))
    }
    model = ClassicalModel(OutcomeSpace(frozenset(points)), observables)
    assert all(partition_id(p) == cid for cid, p in model.partitions.items())
    assert model.obs_context == {
        name: partition_id(partition_of_observable(obs, model.omega))
        for name, obs in observables.items()
    }
    contexts = set(model.partitions.values())
    for p1 in contexts:
        for p2 in contexts:
            assert partition_meet(p1, p2) in contexts
            assert partition_join(p1, p2) in contexts


def test_classical_elementary(figure1_model):
    m = figure1_model
    assert m.elementary("A", []) is BOTTOM
    e = m.elementary("A", [0])
    assert e.context == partition_id(P({"w0"}, {"w1"}))
    assert e.value == frozenset({"{w0}"})
    full = m.elementary("A", [0, 1])
    assert full.value == frozenset({"{w0}", "{w1}"})
    with pytest.raises(DomainError):
        m.elementary("A", [3])
    with pytest.raises(DomainError):
        m.elementary("Z", [0])


def test_figure1_frame_shape(figure1_model):
    m = figure1_model
    assert len(m.poset.context_ids) == 2
    sections = m.frame.enumerate_sections()
    assert len(sections) == 5
    assert m.poset.validate() == []


def test_figure1_neg_and_excluded_middle(figure1_model):
    m = figure1_model
    s0 = m.frame.embed_elementary(m.elementary("A", [0]))
    s1 = m.frame.embed_elementary(m.elementary("A", [1]))
    assert m.frame.neg(s0) == s1
    em = m.frame.join([s0, m.frame.neg(s0)])
    assert em == m.frame.embed_elementary(m.elementary("A", [0, 1]))
    assert em != m.frame.top()


def test_elementary_preorder_matches_section_order(crossing_model):
    m = crossing_model
    props = [BOTTOM]
    for name, obs in m.observables.items():
        values = sorted(obs.range())
        for delta in ([values[0]], [values[1]], values):
            props.append(m.elementary(name, delta))
    f = m.frame
    for e1 in props:
        for e2 in props:
            assert f.elementary_leq(e1, e2) == f.leq(
                f.embed_elementary(e1), f.embed_elementary(e2)
            )


def test_crossing_frame(crossing_model):
    m = crossing_model
    assert len(m.poset.context_ids) == 4
    assert m.poset.validate() == []
    assert len(m.frame.enumerate_sections()) == 48


def test_classical_sandwich_property(crossing_model):
    # (finer ctx, union) < e1 v e2 < (coarser ctx, union)
    m = crossing_model
    f = m.frame
    e1, e2 = m.elementary("A", [0]), m.elementary("B", [0])
    s = f.join([f.embed_elementary(e1), f.embed_elementary(e2)])
    join_ctx = m.poset.try_join_contexts(e1.context, e2.context)
    lower_value = m.poset.embed(e1.context, join_ctx, e1.value) | m.poset.embed(
        e2.context, join_ctx, e2.value
    )
    from qlogic import ElementaryProposition

    lower = f.embed_elementary(ElementaryProposition(join_ctx, lower_value))
    meet_ctx = m.poset.meet_contexts(e1.context, e2.context)
    upper = f.embed_elementary(
        ElementaryProposition(meet_ctx, m.poset.algebra(meet_ctx).top)
    )
    assert f.leq(lower, s) and lower != s
    assert f.leq(s, upper) and s != upper
