"""The bitmask section frame against a pointwise oracle.

The oracle sees a frame only through ``ContextPoset.leq``, ``embed`` and
``algebra``: sections are the monotone members of the product of the
local algebras, and implication is the pointwise join of its witnesses.
The point poset the frame works on is checked against one read through
``upset`` and ``embed``, one atom at a time, and so is the cut of it that
each context's ``restrict_upset`` frame reads.  The refined frame is also
checked against the frame of a second ContextPoset on the contexts of the
up-set, the way it was once built.  The mask forms the frame replaced are
kept as oracles too: implication as a scan of every point's up-set, and
the decidable sections as the enumerated up-sets m with m | ~m = TOP.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qlogic import (
    ClassicalModel, ClassicalObservable, ContextPoset, LocalAlgebra, OutcomeSpace, QuantumModel
)
from qlogic.errors import ResourceLimitError
from qlogic.hasse import hasse_edges
from qlogic.poset import PointTable, _bits
from qlogic.sections import ElementaryProposition, Frame, Section

from conftest import FIXTURES, GOLDEN, loaded
from test_classical import _model, classical_models

PAIR_SAMPLE = 150
MASK_SAMPLE = 60
# the decidables are compared with the enumeration's filter up to 2^FILTER_POINTS
FILTER_POINTS = 12
# the refined frames are enumerated against their oracle up to 2^ENUM_POINTS,
# and SECTION_SAMPLE points and sections each are drawn for the rest
ENUM_POINTS = 12
SECTION_SAMPLE = 6


def oracle_sections(poset) -> list[dict]:
    """Every monotone assignment, as a pruned walk over the product."""
    ids = poset.context_ids
    out = []

    def extend(partial: dict):
        if len(partial) == len(ids):
            out.append(dict(partial))
            return
        c = ids[len(partial)]
        for v in poset.algebra(c).elements():
            if all(
                (not poset.leq(d, c) or poset.embed(d, c, w) <= v)
                and (not poset.leq(c, d) or poset.embed(c, d, v) <= w)
                for d, w in partial.items()
            ):
                partial[c] = v
                extend(partial)
                del partial[c]

    extend({})
    return out


def leq(d1: dict, d2: dict) -> bool:
    return all(v <= d2[c] for c, v in d1.items())


def join(poset, ds) -> dict:
    out = {c: frozenset() for c in poset.context_ids}
    for d in ds:
        out = {c: out[c] | d[c] for c in out}
    return out


def implies(poset, sections, d1: dict, d2: dict) -> dict:
    witnesses = [w for w in sections if leq({c: w[c] & d1[c] for c in w}, d2)]
    return join(poset, witnesses)


def embed(poset, c0: str, value) -> dict:
    return {
        c: poset.embed(c0, c, value) if poset.leq(c0, c) else frozenset()
        for c in poset.context_ids
    }


def covers(ds: list[dict]) -> set:
    """Naive transitive reduction of the pointwise order."""
    n = len(ds)
    above = [{j for j in range(n) if j != i and leq(ds[i], ds[j])} for i in range(n)]
    return {
        (i, j)
        for i in range(n)
        for j in above[i]
        if not any(j in above[k] for k in above[i] if k != j)
    }


def check_frame(frame, pairs=None):
    poset = frame.poset
    sections = oracle_sections(poset)
    as_section = [Section.from_dict(d) for d in sections]

    enumerated = frame.enumerate_sections()
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == set(as_section)

    if pairs is None:
        pairs = list(itertools.product(range(len(sections)), repeat=2))
        if len(pairs) > PAIR_SAMPLE:
            pairs = random.Random(0).sample(pairs, PAIR_SAMPLE)
    for i, j in pairs:
        expected = implies(poset, sections, sections[i], sections[j])
        assert frame.implies(as_section[i], as_section[j]) == Section.from_dict(expected)

    bottom = {c: frozenset() for c in poset.context_ids}
    top = {c: poset.algebra(c).top for c in poset.context_ids}
    negs = [implies(poset, sections, d, bottom) for d in sections]
    for s, n in zip(as_section, negs):
        assert frame.neg(s) == Section.from_dict(n)
    decidable = {
        s for s, d, n in zip(as_section, sections, negs) if join(poset, [d, n]) == top
    }
    assert set(frame.decidable_elements()) == decidable

    for c in poset.context_ids:
        for value in poset.algebra(c).elements():
            if value:
                e = ElementaryProposition(c, value)
                assert frame.embed_elementary(e) == Section.from_dict(embed(poset, c, value))

    assert set(hasse_edges(frame, as_section)) == covers(sections)
    check_masks_and_restrictions(frame)


def scan_implies(table, u: int, v: int) -> int:
    """U -> V point by point: the points of TOP whose up-set misses U \\ V."""
    bad = u & ~v
    return sum(1 << p for p in _bits(table.top) if not table.up[p] & bad)


def filter_decidables(frame) -> list[int]:
    """The enumerated up-sets m with m | ~m = TOP, in the enumeration's order."""
    t = frame._table
    return [m for m in frame._upsets() if m | scan_implies(t, m, 0) == t.top]


def check_masks(frame, seed=0):
    """``_implies`` against the scan on drawn masks inside the frame's TOP:
    any subsets, and the up-sets and down-sets of a few points;
    ``decidable_elements`` against the filter, as the same list, where the
    enumeration is small."""
    t = frame._table
    rng = random.Random(seed)
    points = list(_bits(t.top))
    n = len(points)

    def drawn() -> int:
        kind = rng.randrange(3)
        if kind == 0:
            return rng.getrandbits(len(t.points)) & t.top
        mask = 0
        for p in rng.sample(points, min(n, rng.randint(1, 3))):
            mask |= (t.up if kind == 1 else t.down)[p]
        return mask & t.top

    for _ in range(MASK_SAMPLE):
        u, v = drawn(), drawn()
        assert frame._implies(u, v) == scan_implies(t, u, v), (u, v)
    if n <= FILTER_POINTS:
        want = [frame._section(m) for m in filter_decidables(frame)]
        assert frame.decidable_elements() == want


def check_masks_and_restrictions(frame):
    """check_masks on the frame and on each context's ``restrict_upset`` frame."""
    check_masks(frame)
    for k, c in enumerate(frame.poset.context_ids):
        check_masks(frame.restrict_upset(c), seed=k)


def oracle_restrict_upset(frame, c: str) -> Frame:
    """The frame over c's up-set as a second ContextPoset: the contexts of
    upset(c), each pair of them given with its embedding, as given to the
    parent or composed."""
    poset = frame.poset
    ups = poset.upset(c)
    images = {
        (a, b): poset._image(poset._bit[a], poset._bit[b])
        for a in ups
        for b in ups
        if a != b and poset.leq(a, b)
    }
    return Frame(ContextPoset({d: poset.algebra(d) for d in ups}, embeddings=images))


def guarded(run, frame):
    """run(frame), or the message of the enumeration guard's refusal."""
    try:
        return run(frame)
    except ResourceLimitError as exc:
        return str(exc)


def check_refined_against_oracle(frame, seed=0):
    """At each context c, restrict_upset(c) against oracle_restrict_upset:
    the contexts and the enumeration bound; under a guard of
    2^ENUM_POINTS, the sections and the decidables, in order, or the same
    refusal; embed_elementary of sampled points; implies and neg on pairs
    of sampled sections."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as m:
        m.setenv("QLOGIC_ENUM_GUARD", str(1 << ENUM_POINTS))
        for c in frame.poset.context_ids:
            got, want = frame.restrict_upset(c), oracle_restrict_upset(frame, c)
            assert got.context_ids == want.poset.context_ids, c
            assert got.enumeration_bound() == want.enumeration_bound(), c
            enumerated = guarded(Frame.enumerate_sections, want)
            assert guarded(Frame.enumerate_sections, got) == enumerated, c
            decidable = guarded(Frame.decidable_elements, want)
            assert guarded(Frame.decidable_elements, got) == decidable, c
            points = [(d, a) for d in got.context_ids for a in frame.poset.algebra(d).atoms]
            pieces = [
                ElementaryProposition(d, frozenset({a}))
                for d, a in rng.sample(points, min(len(points), SECTION_SAMPLE))
            ]
            sections = [want.embed_elementary(e) for e in pieces]
            assert [got.embed_elementary(e) for e in pieces] == sections, c
            sections += [want.top(), want.bottom(), want.join(sections[:2])]
            if isinstance(enumerated, list):
                sections += rng.sample(enumerated, min(len(enumerated), SECTION_SAMPLE))
            for s1 in sections:
                assert got.neg(s1) == want.neg(s1), c
                for s2 in sections:
                    assert got.implies(s1, s2) == want.implies(s1, s2), c


def oracle_point_table(poset, within=None) -> PointTable:
    """The (context, atom) point poset with the up-set of each point read
    through upset and embed, one atom at a time; on the contexts of the
    up-set `within` alone, if given."""
    ids = poset.context_ids if within is None else tuple(sorted(within))
    points = tuple((c, a) for c in ids for a in poset.algebra(c).atoms)
    index = {p: i for i, p in enumerate(points)}
    up = []
    for c, a in points:
        mask = 0
        for d in poset.upset(c):
            for b in poset.embed(c, d, frozenset({a})):
                mask |= 1 << index[(d, b)]
        up.append(mask)
    spans = tuple((c, sum(1 << index[c, a] for a in poset.algebra(c).atoms)) for c in ids)
    down = [sum(1 << q for q, mask in enumerate(up) if mask >> p & 1) for p in range(len(up))]
    return PointTable(points, index, tuple(up), tuple(down), (1 << len(points)) - 1, spans)


@pytest.mark.parametrize("name", ["figure1_model", "crossing_model", "one_qubit_model"])
def test_fixtures_match_oracle(name, request):
    check_frame(request.getfixturevalue(name).frame)


# classical_c8 (1,080 contexts) would add about half a minute to these
# oracles; its build is pinned by test_build_classical_c8_matches_golden
GOLDEN_MODELS = [path for path in sorted(GOLDEN.glob("*.json")) if path.stem != "classical_c8"]
MODEL_PATHS = [FIXTURES / f"{n}.json" for n in ("figure1", "crossing", "one_qubit")] + GOLDEN_MODELS


@pytest.mark.parametrize(
    "path",
    [FIXTURES / f"{n}.json" for n in ("figure1", "crossing", "one_qubit")]
    + [GOLDEN / f"{n}.json" for n in ("xz3_seed0", "xyz2_seed0", "classical8_seed0", "xz4_seed0")],
    ids=lambda path: path.stem,
)
def test_point_table_matches_upset_embed_oracle(path):
    poset = loaded(path).poset
    assert poset.point_table == oracle_point_table(poset)


@pytest.mark.parametrize(
    "path",
    [FIXTURES / f"{n}.json" for n in ("figure1", "crossing", "one_qubit")]
    + [GOLDEN / f"{n}.json" for n in ("xz3_seed0", "xyz2_seed0", "classical8_seed0")],
    ids=lambda path: path.stem,
)
def test_restrict_upset_matches_upset_embed_oracle(path):
    """The frame over each context's up-set reads the parent's point table,
    cut to the points of the contexts there as read through the parent's
    upset and embed: the same points in the same order, TOP their union,
    and the up-set of each point inside TOP."""
    frame = loaded(path).frame
    poset = frame.poset
    for c in poset.context_ids:
        t = frame.restrict_upset(c)._table
        want = oracle_point_table(poset, poset.upset(c))
        assert (t.up, t.down) == (poset.point_table.up, poset.point_table.down)
        assert [t.points[p] for p in _bits(t.top)] == list(want.points), c
        assert t.top == sum(1 << t.index[p] for p in want.points), c
        assert [d for d, _ in t.spans] == [d for d, _ in want.spans], c
        assert all(not t.up[p] & ~t.top for p in _bits(t.top)), c


@pytest.mark.parametrize(
    "path",
    [FIXTURES / f"{n}.json" for n in ("figure1", "crossing", "one_qubit")]
    + [path for path in GOLDEN_MODELS if path.stem != "xz4_seed0"],
    ids=lambda path: path.stem,
)
def test_refined_frames_match_sub_poset_oracle(path):
    check_refined_against_oracle(loaded(path).frame)


def oracle_is_monotone(frame, mask: int) -> bool:
    """Whether the mask's points form a section, read through leq and embed:
    at each pair d <= e of the frame's contexts, the value at d embeds
    inside the value at e."""
    poset, values = frame.poset, frame._section(mask).as_dict()
    return all(
        poset.embed(d, e, values[d]) <= values[e]
        for d in frame.context_ids
        for e in frame.context_ids
        if d != e and poset.leq(d, e)
    )


@pytest.mark.parametrize(
    "path",
    [FIXTURES / f"{n}.json" for n in ("figure1", "crossing", "one_qubit")] + [GOLDEN / "xz3_seed0.json"],
    ids=lambda path: path.stem,
)
def test_is_monotone_matches_embed_oracle_on_refined_frames(path):
    """At each context's refined frame, on its sections enumerated under a
    guard of 2^ENUM_POINTS, or else on the up-sets of SECTION_SAMPLE of its
    points: every section is monotone, and with any one of its points
    dropped is_monotone agrees with the oracle, both ways."""
    frame = loaded(path).frame
    rng = random.Random(0)
    seen = set()
    with pytest.MonkeyPatch.context() as m:
        m.setenv("QLOGIC_ENUM_GUARD", str(1 << ENUM_POINTS))
        for c in frame.poset.context_ids:
            sub = frame.restrict_upset(c)
            sections = guarded(Frame.enumerate_sections, sub)
            if not isinstance(sections, list):
                points = [(d, a) for d in sub.context_ids for a in frame.poset.algebra(d).atoms]
                sections = [
                    sub.embed_elementary(ElementaryProposition(d, frozenset({a})))
                    for d, a in rng.sample(points, SECTION_SAMPLE)
                ]
            for s in sections:
                mask = sub._mask(s)
                assert sub.is_monotone(s) and oracle_is_monotone(sub, mask), (c, s)
                for p in _bits(mask):
                    dropped = mask & ~(1 << p)
                    got = sub.is_monotone(sub._section(dropped))
                    assert got == oracle_is_monotone(sub, dropped), (c, s, p)
                    seen.add(got)
    assert seen == {True, False}


@settings(max_examples=40, deadline=None)
@given(drawn=classical_models())
def test_classical_point_table_matches_upset_embed_oracle(drawn):
    poset = _model(*drawn).poset
    assert poset.point_table == oracle_point_table(poset)


@pytest.mark.parametrize("path", MODEL_PATHS, ids=lambda path: path.stem)
def test_implies_and_decidables_match_scan_and_filter(path):
    """On the frame and on each context's ``restrict_upset`` frame."""
    check_masks_and_restrictions(loaded(path).frame)


def test_masks_on_components_without_a_least_point():
    """In a built model each component of the point poset is the up-set of
    a point of the least context.  Here two coarse atoms share a fine one,
    which validate() rejects, so the component {a, b, x, y, z} has two
    minimal points and is found only by walking down as well as up."""
    poset = ContextPoset(
        {"L": LocalAlgebra(("a", "b", "c")), "C": LocalAlgebra(("w", "x", "y", "z"))},
        {("L", "C"): [0b0110, 0b1100, 0b0001]},
    )
    assert poset.validate()
    assert poset.point_table == oracle_point_table(poset)
    frame = Frame(poset)
    check_masks(frame)
    assert len(frame.decidable_elements()) == 4


@settings(max_examples=40, deadline=None)
@given(drawn=classical_models())
def test_classical_implies_and_decidables_match_scan_and_filter(drawn):
    check_masks_and_restrictions(_model(*drawn).frame)


@settings(max_examples=30, deadline=None)
@given(drawn=classical_models())
def test_classical_refined_frames_match_sub_poset_oracle(drawn):
    check_refined_against_oracle(_model(*drawn).frame)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_classical_models_match_oracle(data):
    n = data.draw(st.integers(3, 5))
    k = data.draw(st.integers(2, 3))
    points = [f"w{i}" for i in range(n)]
    observables = {}
    for j in range(k):
        values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        observables[f"O{j}"] = ClassicalObservable.from_dict(
            f"O{j}", dict(zip(points, values))
        )
    model = ClassicalModel(OutcomeSpace(frozenset(points)), observables)
    poset = model.poset
    assume(sum(len(poset.algebra(c).atoms) for c in poset.context_ids) <= 12)
    check_frame(model.frame)


SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def qubit_axes_model(axes) -> QuantumModel:
    """A qubit measured along each (polar, azimuth) axis, in degrees."""
    observables = {}
    for k, (theta, phi) in enumerate(axes):
        t, p = np.radians(theta), np.radians(phi)
        n = (np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t))
        observables[f"N{k}"] = sum(x * s for x, s in zip(n, SIGMA))
    return QuantumModel(observables)


@settings(max_examples=10, deadline=None)
@given(
    axes=st.lists(
        st.tuples(st.integers(0, 180), st.integers(0, 359)), min_size=2, max_size=3
    )
)
def test_random_qubit_axes_match_oracle(axes):
    model = qubit_axes_model(axes)
    assert model.poset.point_table == oracle_point_table(model.poset)
    check_frame(model.frame)


@settings(max_examples=10, deadline=None)
@given(
    axes=st.lists(
        st.tuples(st.integers(0, 180), st.integers(0, 359)), min_size=2, max_size=4
    )
)
def test_qubit_axes_refined_frames_match_sub_poset_oracle(axes):
    check_refined_against_oracle(qubit_axes_model(axes).frame)
