import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import (
    BOTTOM,
    ClassicalModel,
    ClassicalObservable,
    ContextPoset,
    DomainError,
    ElementaryProposition,
    OutcomeSpace,
    partition_join,
    partition_meet,
)
from qlogic.classical import _close, _Points, build_classical_frame, cell_id
from qlogic.cli import load_model
from qlogic.poset import _bits

from conftest import GOLDEN, loaded
from partitions import (
    P,
    cell,
    decode,
    model_partitions,
    observables_of,
    partition_id,
    partition_of_observable,
    refines,
)


OMEGA4 = OutcomeSpace(frozenset({"1", "2", "3", "4"}))


def closure(partitions, omega=OMEGA4):
    """The library's closed family, decoded from a model with an observable
    per partition."""
    model = ClassicalModel(omega, observables_of(partitions))
    return frozenset(model_partitions(model).values())


def test_partition_of_observable():
    const = ClassicalObservable.from_dict("C", {"1": 7, "2": 7, "3": 7, "4": 7})
    inj = ClassicalObservable.from_dict("I", {"1": 1, "2": 2, "3": 3, "4": 4})
    a = ClassicalObservable.from_dict("A", {"1": 0, "2": 0, "3": 1, "4": 1})
    for obs, want in [
        (const, P({"1", "2", "3", "4"})),
        (inj, P({"1"}, {"2"}, {"3"}, {"4"})),
        (a, P({"1", "2"}, {"3", "4"})),
    ]:
        assert partition_of_observable(obs, OMEGA4) == want
        model = ClassicalModel(OMEGA4, {obs.name: obs})
        assert model_partitions(model)[model.obs_context[obs.name]] == want


def test_partition_of_observable_requires_totality():
    partial = ClassicalObservable.from_dict("A", {"1": 0, "2": 0})
    with pytest.raises(DomainError):
        partition_of_observable(partial, OMEGA4)
    with pytest.raises(DomainError, match="'A' is not total on the outcome space"):
        ClassicalModel(OMEGA4, {"A": partial})


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
    family = closure([p1, p2])
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
    assert closure([]) == frozenset({P({"1", "2", "3", "4"})})
    p1 = P({"1", "2"}, {"3", "4"})
    assert closure([p1]) == frozenset({p1, P({"1", "2", "3", "4"})})
    p2 = P({"1", "3"}, {"2", "4"})
    assert closure([p1, p2]) == frozenset(
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
    assert closure(base, omega) == rerun_closure(base, omega)


def test_frame_closes_its_partitions():
    p1, p2 = P({"1", "2"}, {"3", "4"}), P({"1", "3"}, {"2", "4"})
    poset, ids, blocks = build_classical_frame(observables_of([p1, p2]).values(), OMEGA4)
    parts = {cid: decode(OMEGA4, b) for cid, b in blocks.items()}
    assert set(parts.values()) == frozenset_closure([p1, p2], OMEGA4)
    assert all(partition_id(p) == cid for cid, p in parts.items())
    assert set(poset.context_ids) == set(parts)
    assert ids == [partition_id(p1), partition_id(p2)]


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
    parts = model_partitions(model)
    assert all(partition_id(p) == cid for cid, p in parts.items())
    assert model.obs_context == {
        name: partition_id(partition_of_observable(obs, model.omega))
        for name, obs in observables.items()
    }
    contexts = set(parts.values())
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
    lower = f.embed_elementary(ElementaryProposition(join_ctx, lower_value))
    meet_ctx = m.poset.meet_contexts(e1.context, e2.context)
    upper = f.embed_elementary(
        ElementaryProposition(meet_ctx, m.poset.algebra(meet_ctx).top)
    )
    assert f.leq(lower, s) and lower != s
    assert f.leq(s, upper) and s != upper


# -- the mask closure and frame against the frozenset algorithms they replaced --


def frozenset_closure(partitions, omega):
    """Oracle closure on frozensets of cells: each pair once, when the later
    of the two is walked, meet then join."""
    family = list(dict.fromkeys([*partitions, frozenset({frozenset(omega.points)})]))
    seen = set(family)
    for k, p1 in enumerate(family):
        for p2 in family[:k]:
            for q in (partition_meet(p1, p2), partition_join(p1, p2)):
                if q not in seen:
                    family.append(q)
                    seen.add(q)
    return frozenset(family)


def frozenset_frame(partitions, omega):
    """Oracle frame: contexts (id -> atoms), order pairs and embeddings from
    string ids, every pair tested with `refines`."""
    parts = {partition_id(p): p for p in frozenset_closure(partitions, omega)}
    contexts = {cid: tuple(sorted(cell_id(c) for c in p)) for cid, p in parts.items()}
    embeddings = {
        (c1, c2): {
            cell_id(coarse): frozenset(cell_id(fine) for fine in p2 if fine <= coarse)
            for coarse in p1
        }
        for c1, p1 in parts.items()
        for c2, p2 in parts.items()
        if c1 != c2 and refines(p2, p1)
    }
    return contexts, embeddings, parts


# names whose string order differs from their list order
NAMES = ["q10", "q2", "p", "Z", "b7", "0", "zz", "a"]


@st.composite
def classical_models(draw, names=NAMES):
    """3-8 named points and up to 3 observables of up to 3 values (4 on at
    most 6 points, which keeps every closed family to a few hundred)."""
    n = draw(st.integers(3, 8))
    points = draw(st.permutations(names))[:n]
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    k = draw(st.integers(0, 4 if n <= 6 else 3))
    return points, {f"O{j}": dict(zip(points, draw(labels))) for j in range(k)}


def _model(points, observables):
    return ClassicalModel(
        OutcomeSpace(frozenset(points)),
        {name: ClassicalObservable.from_dict(name, vm) for name, vm in observables.items()},
    )


@settings(max_examples=60, deadline=None)
@given(drawn=classical_models())
def test_mask_closure_and_frame_match_frozenset_oracle(drawn):
    points, observables = drawn
    omega = OutcomeSpace(frozenset(points))
    obs = [ClassicalObservable.from_dict(name, vm) for name, vm in observables.items()]
    base = [partition_of_observable(o, omega) for o in obs]
    contexts, embeddings, parts = frozenset_frame(base, omega)
    poset, ids, blocks = build_classical_frame(obs, omega)
    assert {cid: decode(omega, b) for cid, b in blocks.items()} == parts
    assert ids == [partition_id(p) for p in base]
    assert {c: poset.algebra(c).atoms for c in poset.context_ids} == contexts
    assert {
        c: tuple(cell_id(cell(omega, b)) for b in bs) for c, bs in blocks.items()
    } == contexts
    ids = poset.context_ids
    pairs = [(a, b) for a in ids for b in ids if a != b and poset.leq(a, b)]
    assert pairs == sorted(embeddings)
    assert {
        (a, b): {x: poset.embed(a, b, frozenset({x})) for x in poset.algebra(a).atoms}
        for a, b in pairs
    } == embeddings
    assert poset.validate() == []


@settings(max_examples=60, deadline=None)
@given(drawn=classical_models())
def test_elementary_and_finest_context_match_frozenset_oracle(drawn):
    """elementary(name, delta) is the observable's context holding the cells
    of its partition inside the preimage of delta, for every delta in its
    range; and the context of most atoms, the bridge's coordinates, is the
    meet of all the partitions."""
    points, observables = drawn
    model = _model(points, observables)
    for name, obs in model.observables.items():
        p = partition_of_observable(obs, model.omega)
        values = sorted(obs.range())
        for k in range(1 << len(values)):
            delta = [v for i, v in enumerate(values) if k >> i & 1]
            preimage = {x for x, v in obs.value_map if v in delta}
            cells = frozenset(cell_id(c) for c in p if c <= preimage)
            want = ElementaryProposition(partition_id(p), cells) if cells else BOTTOM
            assert model.elementary(name, delta) == want
    finest = max(model.blocks.values(), key=len)
    whole = P(model.omega.points)
    bases = [partition_of_observable(o, model.omega) for o in model.observables.values()]
    assert decode(model.omega, finest) == functools.reduce(partition_meet, bases, whole)
    assert decode(model.omega, finest) == functools.reduce(
        partition_meet, model_partitions(model).values()
    )


def _relabel_id(cid: str, new: dict) -> str:
    """A context id with every point renamed, cells and partition re-sorted."""
    cells = [c[1:-1].split(",") for c in cid.split("/")]
    return "/".join(sorted("{" + ",".join(sorted(new[x] for x in c)) + "}" for c in cells))


@settings(max_examples=40, deadline=None)
@given(
    drawn=classical_models(),
    renamed=st.permutations(["x3", "x20", "Y", "c", "k1", "9", "m", "B"]),
)
def test_build_is_invariant_under_relabelling_points(drawn, renamed):
    """Renaming the points gives the same model with renamed ids: the same
    contexts, atoms, order, embeddings, observable contexts and validity."""
    points, observables = drawn
    new = dict(zip(points, renamed))
    m1 = _model(points, observables)
    m2 = _model(
        [new[x] for x in points],
        {name: {new[x]: v for x, v in vm.items()} for name, vm in observables.items()},
    )
    rename = functools.partial(_relabel_id, new=new)
    assert sorted(map(rename, m1.poset.context_ids)) == list(m2.poset.context_ids)
    for c in m1.poset.context_ids:
        atoms = m2.poset.algebra(rename(c)).atoms
        assert sorted(map(rename, m1.poset.algebra(c).atoms)) == list(atoms)
        for d in m1.poset.context_ids:
            assert m1.poset.leq(c, d) == m2.poset.leq(rename(c), rename(d))
            if c != d and m1.poset.leq(c, d):
                for a in m1.poset.algebra(c).atoms:
                    image = m1.poset.embed(c, d, frozenset({a}))
                    assert m2.poset.embed(rename(c), rename(d), frozenset({rename(a)})) == {
                        rename(x) for x in image
                    }
    assert sorted((rename(a), rename(b)) for a, b in m1.poset.covers()) == m2.poset.covers()
    assert {name: rename(c) for name, c in m1.obs_context.items()} == m2.obs_context
    assert m1.poset.validate() == m2.poset.validate() == []


# -- the closure's comparable pairs against an all-pairs scan ---------------------


def scan_comparable(family) -> list:
    """(coarser, finer) for each strictly comparable pair of packed
    partitions, from every ordered pair: e2 refines e1 iff e2 & ~e1 == 0."""
    return [
        (i, j)
        for i, e1 in enumerate(family)
        for j, e2 in enumerate(family)
        if i != j and not e2 & ~e1
    ]


def order_pairs(down) -> list:
    """(coarser, finer) for each strictly comparable pair that _close's
    down-set masks hold, in index order."""
    return [(i, j) for i, d in enumerate(down) for j in _bits(d) if j != i]


def check_close_pairs(omega, observables):
    """Each member's mask holds itself and exactly the members finer than it."""
    points = _Points(omega)
    family, down = _close(points, [points.pack(points.fibers(o).values()) for o in observables])
    assert all(d >> i & 1 for i, d in enumerate(down))
    assert order_pairs(down) == scan_comparable(family)


@settings(max_examples=60, deadline=None)
@given(drawn=classical_models())
def test_close_returns_each_comparable_pair_once_coarser_first(drawn):
    points, observables = drawn
    model = _model(points, observables)
    check_close_pairs(model.omega, model.observables.values())


def test_close_returns_each_comparable_pair_once_on_classical8():
    model = load_model(str(GOLDEN / "classical8_seed0.json"))
    check_close_pairs(model.omega, model.observables.values())


# -- the closure against the closure that joins every pair ----------------------


def pairwise_close(points, family):
    """Oracle: the closed family from every incomparable pair's meet and
    join, each pair taken once, when the later of the two is walked; a
    comparable pair is recorded as (coarser, finer) and skipped."""
    family = list(dict.fromkeys([*family, points.pack([(1 << points.n) - 1])]))
    blocks = [points.blocks(e) for e in family]
    seen = set(family)
    pairs = []
    for k, e1 in enumerate(family):  # the list grows while it is walked
        for i in range(k):
            e2 = family[i]
            meet = e1 & e2
            if meet == e1 or meet == e2:
                pairs.append((i, k) if meet == e1 else (k, i))
                continue
            for q in (meet, points.join(e1, blocks[i])):
                if q not in seen:
                    seen.add(q)
                    family.append(q)
                    blocks.append(points.blocks(q))
    return family, pairs


@st.composite
def value_maps(draw):
    """1-7 points and 1-5 observables of 1-3 values, as packed partitions."""
    n = draw(st.integers(1, 7))
    points = _Points(OutcomeSpace(frozenset(f"p{x}" for x in range(n))))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    observables = [
        ClassicalObservable.from_dict(f"O{j}", dict(zip(points.names, draw(labels))))
        for j in range(draw(st.integers(1, 5)))
    ]
    return points, [points.pack(points.fibers(o).values()) for o in observables]


def check_close_against_pairwise(points, inputs):
    """The same family as a set, and the order masks hold the same
    comparable pairs as (coarser, finer) partitions."""
    family, down = _close(points, inputs)
    want_family, want_pairs = pairwise_close(points, inputs)
    assert len(family) == len(set(family))
    assert set(family) == set(want_family)
    got = {(family[i], family[j]) for i, j in order_pairs(down)}
    assert got == {(want_family[i], want_family[j]) for i, j in want_pairs}


@settings(max_examples=100, deadline=None)
@given(drawn=value_maps())
def test_close_matches_pairwise_oracle(drawn):
    check_close_against_pairwise(*drawn)


def test_close_matches_pairwise_oracle_on_classical8():
    model = load_model(str(GOLDEN / "classical8_seed0.json"))
    points = _Points(model.omega)
    check_close_against_pairwise(
        points, [points.pack(points.fibers(o).values()) for o in model.observables.values()]
    )


def test_close_joins_against_join_irreducibles_on_classical8(monkeypatch):
    # the pairwise closure makes 22,141 joins on this model
    calls = []
    join = _Points.join
    monkeypatch.setattr(
        _Points, "join", lambda self, packed, blocks: calls.append(1) or join(self, packed, blocks)
    )
    load_model(str(GOLDEN / "classical8_seed0.json"))
    assert 0 < len(calls) <= 2500


# -- the covers-only poset against the same model with every pair given ------


def every_pair_poset(model) -> ContextPoset:
    """The model's contexts with every strict pair of its order given, each
    embedding read off the blocks: a coarse cell maps to the fine cells
    whose lowest point it holds."""
    poset, blocks = model.poset, model.blocks
    images = {}
    for a in poset.context_ids:
        for b in poset.upset(a) - {a}:
            images[a, b] = [
                sum(1 << s for s, fine in enumerate(blocks[b]) if coarse >> (fine & -fine).bit_length() - 1 & 1)
                for coarse in blocks[a]
            ]
    return ContextPoset({c: poset.algebra(c) for c in poset.context_ids}, embeddings=images)


def check_every_pair(model, pairs=None):
    """The covers-only poset answers as every_pair_poset does: leq, upset,
    covers, meets, joins, the image of every element on every pair, the
    point table and validate().  If pairs is given: meets, joins and leq
    on those context pairs only, and the images of the atoms alone, whose
    unions embed() takes for the other elements."""
    got, want = model.poset, every_pair_poset(model)
    ids = got.context_ids
    assert ids == want.context_ids and got.least == want.least
    assert got.covers() == want.covers()
    for a in ids:
        assert got.upset(a) == want.upset(a)
        atoms = got.algebra(a).atoms
        if pairs is None:
            elements = [
                frozenset(t for s, t in enumerate(atoms) if k >> s & 1) for k in range(1 << len(atoms))
            ]
        else:
            elements = [frozenset({t}) for t in atoms]
        for b in got.upset(a):
            for x in elements:
                assert got.embed(a, b, x) == want.embed(a, b, x), (a, b, x)
    for a, b in itertools.product(ids, repeat=2) if pairs is None else pairs:
        assert got.leq(a, b) == want.leq(a, b)
        assert got.meet_contexts(a, b) == want.meet_contexts(a, b)
        assert got.try_join_contexts(a, b) == want.try_join_contexts(a, b)
    assert got.point_table == want.point_table
    assert got.validate() == want.validate() == []


@settings(max_examples=40, deadline=None)
@given(drawn=classical_models())
def test_covers_only_poset_answers_as_every_pair_given(drawn):
    check_every_pair(_model(*drawn))


@pytest.mark.parametrize("name", ["classical8_seed0", "classical2_enum_seed0"])
def test_covers_only_golden_answers_as_every_pair_given(name):
    check_every_pair(loaded(GOLDEN / f"{name}.json"))


def test_covers_only_c8_answers_as_every_pair_given():
    """classical_c8's 1,080 contexts make 1.2 million context pairs and its
    order 403,308 (pair, element) images, so meets, joins and leq are
    compared on each context against a sample of others, and images on
    the atoms; the rest on everything."""
    model = loaded(GOLDEN / "classical_c8.json")
    ids = model.poset.context_ids
    rng = random.Random(0)
    check_every_pair(model, [(a, b) for a in ids for b in rng.sample(ids, 20)])


def test_c8_hands_over_its_covers_alone(monkeypatch):
    """classical_c8's order has 28,161 strict pairs; the builder hands the
    poset its 5,861 covers, and the poset closes them to the order."""
    given = []
    init = ContextPoset.__init__
    monkeypatch.setattr(
        ContextPoset,
        "__init__",
        lambda self, contexts, embeddings: given.append(embeddings) or init(self, contexts, embeddings),
    )
    poset = load_model(str(GOLDEN / "classical_c8.json")).poset
    assert [len(e) for e in given] == [5861]
    assert len(poset.covers()) == 5861
    assert sum(len(poset.upset(c)) - 1 for c in poset.context_ids) == 28161
