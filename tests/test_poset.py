import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import ContextPoset, DomainError, LocalAlgebra, StructureError, UnknownContextError
from qlogic.poset import _bits, _extreme

from conftest import GOLDEN, loaded
from named_embeddings import encode

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def simple_poset():
    """trivial <= {a, b}, a and b incomparable."""
    contexts = {
        "t": LocalAlgebra(("*",)),
        "a": LocalAlgebra(("a0", "a1")),
        "b": LocalAlgebra(("b0", "b1")),
    }
    embeddings = {
        ("t", "a"): {"*": frozenset({"a0", "a1"})},
        ("t", "b"): {"*": frozenset({"b0", "b1"})},
    }
    return ContextPoset(contexts, encode(contexts, embeddings))


def test_leq_reflexive_and_least():
    p = simple_poset()
    for c in p.context_ids:
        assert p.leq(c, c)
        assert p.leq("t", c)
    assert p.least == "t"


def test_leq_unknown_context():
    p = simple_poset()
    with pytest.raises(UnknownContextError) as info:
        p.leq("t", "nope")
    assert str(info.value) == "unknown context 'nope'"
    assert isinstance(info.value, KeyError)
    with pytest.raises(UnknownContextError) as info:
        p.embed("a", "b", frozenset())
    assert str(info.value) == "'a' is not below 'b'"


def test_meet_contexts():
    p = simple_poset()
    assert p.meet_contexts("a", "b") == "t"
    assert p.meet_contexts("a", "a") == "a"
    assert p.meet_contexts("a", "t") == "t"


def test_try_join_contexts():
    p = simple_poset()
    assert p.try_join_contexts("a", "b") is None
    assert p.try_join_contexts("a", "t") == "a"
    assert p.try_join_contexts("b", "b") == "b"


def test_upset():
    p = simple_poset()
    assert p.upset("t") == frozenset({"t", "a", "b"})
    assert p.upset("a") == frozenset({"a"})


def test_embed_identity_and_atoms():
    p = simple_poset()
    assert p.embed("t", "a", frozenset({"*"})) == frozenset({"a0", "a1"})
    assert p.embed("t", "a", frozenset()) == frozenset()
    assert p.embed("a", "a", frozenset({"a0"})) == frozenset({"a0"})


def test_validate_clean():
    assert simple_poset().validate() == []


CHAIN_CONTEXTS = {
    "t": LocalAlgebra(("*",)),
    "a": LocalAlgebra(("a0", "a1")),
    "b": LocalAlgebra(("b0", "b1", "b2", "b3")),
}
CHAIN_EMBEDDINGS = {
    ("t", "a"): {"*": frozenset({"a0", "a1"})},
    ("t", "b"): {"*": frozenset({"b0", "b1", "b2", "b3"})},
    ("a", "b"): {"a0": frozenset({"b0", "b1"}), "a1": frozenset({"b2", "b3"})},
}


def chain_poset(embeddings=CHAIN_EMBEDDINGS):
    return ContextPoset(CHAIN_CONTEXTS, encode(CHAIN_CONTEXTS, embeddings))


def chain_masks(pair, images):
    """The chain t < a < b from its masks, with those of pair replaced."""
    masks = {**encode(CHAIN_CONTEXTS, CHAIN_EMBEDDINGS), pair: images}
    return ContextPoset(CHAIN_CONTEXTS, masks)


def test_validate_clean_chain():
    p = chain_poset()
    assert p.validate() == []


def test_validate_missing_transitive_edge():
    # chain t <= a <= b <= c with the composite edge (a, c) omitted: the
    # given pairs generate the order, so a <= c all the same, embedded
    # through b, and the poset is valid; a builder that promises every
    # comparable pair, as the quantum one does, checks that promise itself
    contexts = {
        "t": LocalAlgebra(("*",)),
        "a": LocalAlgebra(("a0", "a1")),
        "b": LocalAlgebra(("b0", "b1", "b2", "b3")),
        "c": LocalAlgebra(("c0", "c1", "c2", "c3")),
    }
    embeddings = {
        ("t", "a"): {"*": frozenset({"a0", "a1"})},
        ("t", "b"): {"*": frozenset({"b0", "b1", "b2", "b3"})},
        ("t", "c"): {"*": frozenset({"c0", "c1", "c2", "c3"})},
        ("a", "b"): {"a0": frozenset({"b0", "b1"}), "a1": frozenset({"b2", "b3"})},
        ("b", "c"): {f"b{i}": frozenset({f"c{i}"}) for i in range(4)},
    }
    given = ContextPoset(contexts, encode(contexts, embeddings))
    assert given.validate() == [] and given.leq("a", "c")
    assert given.embed("a", "c", frozenset({"a1"})) == frozenset({"c2", "c3"})

    fixed = ContextPoset(
        contexts,
        encode(
            contexts,
            {
                **embeddings,
                ("a", "c"): {
                    "a0": frozenset({"c0", "c1"}),
                    "a1": frozenset({"c2", "c3"}),
                },
            },
        ),
    )
    assert fixed.validate() == []
    assert fixed.covers() == given.covers()


def test_validate_clean_chain_given_as_its_covers():
    # t <. a <. b <. c handed over as its covers alone: their closure is the
    # order, and a pair that was not given embeds by composition
    contexts = {**CHAIN_CONTEXTS, "c": LocalAlgebra(("c0", "c1", "c2", "c3"))}
    embeddings = {
        ("t", "a"): CHAIN_EMBEDDINGS["t", "a"],
        ("a", "b"): CHAIN_EMBEDDINGS["a", "b"],
        ("b", "c"): {f"b{s}": frozenset({f"c{s}"}) for s in range(4)},
    }
    p = ContextPoset(contexts, encode(contexts, embeddings))
    assert p.validate() == []
    assert p.covers() == [("a", "b"), ("b", "c"), ("t", "a")]
    assert p.upset("t") == frozenset("tabc") and p.leq("a", "c")
    assert p.embed("a", "c", frozenset({"a1"})) == frozenset({"c2", "c3"})
    assert p.embed("t", "c", frozenset({"*"})) == frozenset({"c0", "c1", "c2", "c3"})


@pytest.mark.parametrize(
    "order, pair",
    [
        ([("t", "a"), ("a", "b"), ("b", "c"), ("c", "a")], "'a' ~ 'b'"),
        ([("t", "x"), ("x", "y"), ("y", "x"), ("y", "a")], "'y' ~ 'x'"),
    ],
    ids=["three contexts", "a context above a cycle of two"],
)
def test_a_cycle_of_given_pairs_is_refused(order, pair):
    # the closure of a cycle puts its contexts above each other: no partial
    # order, refused naming one given pair on the cycle; a is left out of
    # the topological sort in both, and in the second it is not on the cycle
    contexts = {c: LocalAlgebra((c + "0",)) for c in {c for p in order for c in p}}
    embeddings = encode(contexts, {(l, u): {l + "0": {u + "0"}} for l, u in order})
    with pytest.raises(StructureError) as info:
        ContextPoset(contexts, embeddings)
    assert str(info.value) == f"order not antisymmetric: {pair}"


def test_validate_dropped_atom_in_embedding():
    contexts = {
        "t": LocalAlgebra(("*",)),
        "a": LocalAlgebra(("a0", "a1")),
    }
    # misses a1, so the image does not cover a: no embedding, refused
    with pytest.raises(StructureError, match="^embedding 't' -> 'a' cannot be applied$"):
        ContextPoset(contexts, encode(contexts, {("t", "a"): {"*": frozenset({"a0"})}}))
    # t's image in a holds no atom at all
    with pytest.raises(StructureError, match="^embedding 'a' -> 'b' cannot be applied$"):
        chain_masks(("a", "b"), (0b1111, 0))


def test_validate_reports_image_outside_target():
    # the image of t's atom names a9, which a lacks: no embedding, refused
    embeddings = {**CHAIN_EMBEDDINGS, ("t", "a"): {"*": frozenset({"a0", "a1", "a9"})}}
    with pytest.raises(StructureError, match="^embedding 't' -> 'a' cannot be applied$"):
        chain_poset(embeddings)


@pytest.mark.parametrize("images", [(0b111,), (0b1000011,)], ids=["at the width", "above it"])
def test_validate_reports_a_mask_bit_past_its_target(images):
    # t's one atom maps into a's two atoms and to bit 2 or 6, which a lacks
    with pytest.raises(StructureError, match="^embedding 't' -> 'a' cannot be applied$"):
        chain_masks(("t", "a"), images)


def test_negative_mask_refused():
    # -4 sets every bit from 2 up, so it names atoms b lacks: embed and the
    # point table would index past b's atoms
    with pytest.raises(StructureError, match="^embedding 'a' -> 'b' cannot be applied$"):
        chain_masks(("a", "b"), (0b0011, -4))


def test_no_least_element_rejected():
    contexts = {
        "a": LocalAlgebra(("a0", "a1")),
        "b": LocalAlgebra(("b0", "b1")),
    }
    with pytest.raises(StructureError):
        ContextPoset(contexts, {})


def test_unknown_context_in_order_rejected():
    contexts = {"t": LocalAlgebra(("*",))}
    with pytest.raises(UnknownContextError):
        ContextPoset(contexts, {("t", "nope"): [1]})


def test_covers():
    assert simple_poset().covers() == [("t", "a"), ("t", "b")]
    chain = chain_poset()
    assert chain.covers() == [("a", "b"), ("t", "a")]


def test_missing_meet_reported():
    # x and y are both maximal lower bounds of a and b
    contexts = {c: LocalAlgebra((c + "0",)) for c in "abtxy"}
    order = [("t", c) for c in "abxy"] + [(l, u) for l in "xy" for u in "ab"]
    embeddings = {(l, u): {l + "0": frozenset({u + "0"})} for l, u in order}
    p = ContextPoset(contexts, encode(contexts, embeddings))
    with pytest.raises(StructureError):
        p.meet_contexts("a", "b")
    assert p.try_join_contexts("x", "y") is None
    assert p.validate() == ["no meet for 'a', 'b'", "no meet for 'b', 'a'"]
    # the list is kept, and each call hands out a copy of it
    p.validate().append("changed")
    assert p.validate() == ["no meet for 'a', 'b'", "no meet for 'b', 'a'"]


def test_validate_order_independent_of_hash_seed():
    # a relation whose violations the old pair-set loops listed in hash
    # order: a and b each lie below c and d, with c -> e and d -> e given
    # but not a -> e or b -> e, so that c, d have no meet; then a cycle,
    # and paths x < y < z against a swapped x -> z, each refused by name
    script = (
        "from qlogic import ContextPoset, LocalAlgebra, StructureError\n"
        "from named_embeddings import encode\n"
        "contexts = {c: LocalAlgebra((c + '0',)) for c in 'tabcdefg'}\n"
        "order = [('t', c) for c in 'abcdefg'] + [(l, u) for l in 'ab' for u in 'cd']\n"
        "order += [('c', 'e'), ('d', 'e'), ('e', 'f'), ('f', 'g')]\n"
        "embeddings = {(a, b): {a + '0': {b + '0'}} for a, b in order}\n"
        "print(ContextPoset(contexts, encode(contexts, embeddings)).validate())\n"
        "cycle = {**embeddings, ('g', 'e'): {'g0': {'e0'}}}\n"
        "swap = {c: LocalAlgebra((c + '0', c + '1')) for c in 'xyz'}\n"
        "swapped = {(a, b): {a + k: {b + k} for k in '01'} for a, b in ['xy', 'yz']}\n"
        "swapped['x', 'z'] = {'x0': {'z1'}, 'x1': {'z0'}}\n"
        "swapped.update({('t', c): {'t0': {c + '0', c + '1'}} for c in 'xyz'})\n"
        "for contexts, embeddings in [(contexts, cycle), ({'t': contexts['t'], **swap}, swapped)]:\n"
        "    try:\n"
        "        ContextPoset(contexts, encode(contexts, embeddings))\n"
        "    except StructureError as exc:\n"
        "        print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(outputs) == 1
    [output] = outputs
    issues, cycle, paths = output.splitlines()
    assert issues == "[\"no meet for 'c', 'd'\", \"no meet for 'd', 'c'\"]"
    assert cycle == "order not antisymmetric: 'e' ~ 'f'"
    assert paths == "embedding paths 'x' -> 'z' disagree at 'x1'"


# -- the mask poset against the pair-set algorithms it replaced ------------


class PairPoset:
    """Oracle: the order as a set of (lower, upper) pairs, the given ones
    closed reflexively and transitively (Warshall), every query a scan.
    ``refusals`` lists what construction must refuse, every instance of
    the first kind found in this order: a given map that is no partition of
    the upper context's atoms, by name; a given pair whose turned pair is in
    the closure, a cycle; a missing least element; an atom whose images in
    a context above differ along the walks of given pairs."""

    def __init__(self, contexts, embeddings):
        self.contexts = dict(contexts)
        self.embeddings = embeddings
        self.given = {(a, b) for a, b in embeddings if a != b}
        order = {(c, c) for c in self.contexts} | self.given
        for k in self.contexts:
            order |= {(i, j) for i, kk in order if kk == k for kk2, j in order if kk2 == k}
        self.order = order
        minima = [
            c for c in self.contexts if all((c, d) in self.order for d in self.contexts)
        ]
        self.least = minima[0] if len(minima) == 1 else None
        ids = sorted(self.contexts)
        self.refusals = (
            [f"embedding {a!r} -> {b!r} cannot be applied" for a, b in embeddings if not self.partitions(a, b)]
            or [f"order not antisymmetric: {a!r} ~ {b!r}" for a, b in sorted(self.given) if (b, a) in order]
            or ["poset must have a least element"] * (self.least is None)
            or [
                f"embedding paths {a!r} -> {c!r} disagree at {atom!r}"
                for a in ids
                for c, found in sorted(self.walks(a).items())
                for t, atom in enumerate(self.contexts[a].atoms)
                if len({images[t] for images in found}) > 1
            ]
        )

    def partitions(self, a, b):
        """Whether the map a -> b sends every atom of a, and nothing else,
        to non-empty, pairwise disjoint sets of b's atoms that cover them."""
        emb, atoms = self.embeddings[a, b], set(self.contexts[b].atoms)
        images = [set(y) for y in emb.values()]
        return (
            emb.keys() == set(self.contexts[a].atoms)
            and all(images)
            and set().union(*images) == atoms
            and sum(map(len, images)) == len(atoms)
        )

    def leq(self, c1, c2):
        return (c1, c2) in self.order

    def upset(self, c):
        return frozenset(d for d in self.contexts if self.leq(c, d))

    def meet_contexts(self, c1, c2):
        lower = [c for c in self.contexts if self.leq(c, c1) and self.leq(c, c2)]
        for c in lower:
            if all(self.leq(d, c) for d in lower):
                return c
        raise StructureError(f"no greatest lower bound for {c1!r}, {c2!r}")

    def try_join_contexts(self, c1, c2):
        upper = [c for c in self.contexts if self.leq(c1, c) and self.leq(c2, c)]
        for c in upper:
            if all(self.leq(c, d) for d in upper):
                return c
        return None

    def covers(self):
        ids = sorted(self.contexts)
        return [
            (a, b)
            for a in ids
            for b in ids
            if a != b
            and self.leq(a, b)
            and not any(d not in (a, b) and self.leq(a, d) and self.leq(d, b) for d in ids)
        ]

    def walks(self, a):
        """Per context c above a, the images of a's atoms in c along every
        walk of given pairs from a to c, each walk's as one tuple."""
        start = (a, tuple(frozenset({x}) for x in self.contexts[a].atoms))
        seen, todo = {start}, [start]
        while todo:
            x, images = todo.pop()
            for x2, y in self.given:
                if x2 == x:
                    step = self.embeddings[x, y]
                    state = (y, tuple(frozenset().union(*(step[z] for z in img)) for img in images))
                    if state not in seen:
                        seen.add(state)
                        todo.append(state)
        found = {}
        for c, images in seen:
            found.setdefault(c, set()).add(images)
        return found

    def validate(self):
        """Each ordered pair without a meet."""
        ids = sorted(self.contexts)
        issues = []
        for a in ids:
            for b in ids:
                try:
                    self.meet_contexts(a, b)
                except StructureError:
                    issues.append(f"no meet for {a!r}, {b!r}")
        return issues


def _partition(labels) -> frozenset:
    cells = {}
    for x, label in enumerate(labels):
        cells.setdefault(label, set()).add(x)
    return frozenset(frozenset(c) for c in cells.values())


def _cell(cell) -> str:
    return "".join(map(str, sorted(cell)))


@st.composite
def drawn_posets(draw):
    """A random DAG over 1-6 contexts whose first node lies below every other,
    optionally closed transitively, given a back edge, or missing a root
    edge.  Context c is the common refinement of random partitions of
    {0..m-1} drawn for each node that reaches c, so every embedding is well
    formed and composes; one embedding may then be perturbed."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations("abcdefgh"))[:n]  # topological order
    m = draw(st.integers(1, 4))
    gens = [_partition(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))) for _ in names]
    edges = {(0, j) for j in range(1, n)}
    edges |= {(i, j) for i in range(1, n) for j in range(i + 1, n) if draw(st.booleans())}
    if n > 2 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True)))
        edges.add((j, i))
    reach = {(i, i) for i in range(n)} | edges
    for k in range(n):
        reach |= {(i, j) for i, kk in reach if kk == k for kk2, j in reach if kk2 == k}
    if draw(st.booleans()):
        edges = {(i, j) for i, j in reach if i != j}
    if n > 1 and draw(st.integers(0, 5)) == 5:
        edges.discard((0, draw(st.integers(1, n - 1))))
    parts = []
    for j in range(n):
        cells = frozenset({frozenset(range(m))})
        for i in range(n):
            if (i, j) in reach:
                cells = frozenset(a & b for a in cells for b in gens[i] if a & b)
        parts.append(cells)
    contexts = {
        names[i]: LocalAlgebra(tuple(sorted(_cell(c) for c in parts[i])))
        for i in sorted(range(n), key=lambda i: names[i])
    }
    embeddings = {
        (names[i], names[j]): {
            _cell(coarse): frozenset(_cell(f) for f in parts[j] if f <= coarse)
            for coarse in parts[i]
        }
        for i, j in edges
    }
    wide = [pair for pair in embeddings if len(embeddings[pair]) > 1]
    if wide and draw(st.booleans()):
        pair = draw(st.sampled_from(sorted(wide)))
        emb = dict(embeddings[pair])
        x, y = draw(st.lists(st.sampled_from(sorted(emb)), min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):  # swap two images: well formed, breaks composition
            emb[x], emb[y] = emb[y], emb[x]
        else:  # move one fine atom: may drop an atom
            moved = min(emb[x])
            emb[x], emb[y] = emb[x] - {moved}, emb[y] | {moved}
        embeddings[pair] = emb
    return contexts, embeddings


def name_embed(embeddings, a, b, x):
    """The image of x under the name-keyed embedding a -> b: x for a == b,
    the given embedding, or else the composite along the first shortest
    path of given pairs, searched breadth first from a with each context's
    successors in sorted-id order."""
    parent, frontier = {a: None}, [a]
    while b not in parent:
        ahead = []
        for u in frontier:
            for v in sorted(w for u2, w in embeddings if u2 == u and w != u):
                if v not in parent:
                    parent[v] = u
                    ahead.append(v)
        frontier = ahead
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    for u, v in zip(path[:0:-1], path[-2::-1]):
        x = frozenset().union(*(embeddings[u, v][y] for y in x))
    return x


@st.composite
def drawn_orders(draw):
    """2-8 one-atom contexts above a root t with random further pairs, each
    from a lower to a higher rank of a random ranking, so that pairs with
    two greatest lower bounds are common and the ids' order is seldom a
    linear extension; optionally closed transitively.  A cycle is refused
    on construction, so none is drawn here (diamond_orders() and
    drawn_posets() may close one)."""
    n = draw(st.integers(2, 8))
    names = "tabcdefg"[:n]
    rank = [0, *draw(st.permutations(range(1, n)))]
    pairs = {(0, j) for j in range(1, n)}
    pairs |= {
        (i, j)
        for i in range(1, n)
        for j in range(1, n)
        if rank[i] < rank[j] and draw(st.integers(0, 2)) == 0
    }
    if draw(st.booleans()):
        for k in range(n):
            into, out = [i for i, kk in pairs if kk == k], [j for kk, j in pairs if kk == k]
            pairs |= {(i, j) for i in into for j in out if i != j}
    order = [(names[i], names[j]) for i, j in sorted(pairs)]
    embeddings = {(a, b): {a + "0": frozenset({b + "0"})} for a, b in order}
    return {c: LocalAlgebra((c + "0",)) for c in names}, embeddings


@st.composite
def exchanged_posets(draw):
    """drawn_posets() with one fine atom of an image exchanged for one of
    another image of the same embedding: still well formed, while chains
    through it may fail to compose at any of the atoms."""
    contexts, embeddings = draw(drawn_posets())
    wide = sorted(pair for pair, emb in embeddings.items() if len(emb) > 1)
    if wide:
        pair = draw(st.sampled_from(wide))
        emb = dict(embeddings[pair])
        x, y = draw(st.lists(st.sampled_from(sorted(emb)), min_size=2, max_size=2, unique=True))
        if emb[x] and emb[y]:  # drawn_posets() may have emptied one
            u, v = draw(st.sampled_from(sorted(emb[x]))), draw(st.sampled_from(sorted(emb[y])))
            emb[x], emb[y] = emb[x] - {u} | {v}, emb[y] - {v} | {u}
            embeddings = {**embeddings, pair: emb}
    return contexts, embeddings


@st.composite
def diamond_orders(draw):
    """drawn_orders() with a diamond added above its root t: w and x below
    both y and z, so that y and z have two greatest lower bounds, then
    0-3 random pairs among all the contexts, which may close a cycle and
    be refused."""
    contexts, embeddings = draw(drawn_orders())
    contexts = {**contexts, **{c: LocalAlgebra((c + "0",)) for c in "wxyz"}}
    pairs = [("t", "w"), ("t", "x"), *itertools.product("wx", "yz")]
    names = sorted(contexts)
    pairs += [p for p in draw(st.lists(st.tuples(*[st.sampled_from(names)] * 2), max_size=3)) if p[0] != p[1]]
    embeddings = {**embeddings, **{(a, b): {a + "0": frozenset({b + "0"})} for a, b in pairs}}
    return contexts, embeddings


@settings(max_examples=300, deadline=None)
@given(drawn=st.one_of(drawn_posets(), exchanged_posets(), drawn_orders(), diamond_orders()))
def test_mask_poset_matches_pair_oracle(drawn):
    """Construction refuses exactly the draws the oracle refuses, naming
    one of its refusals; on the rest, every query answers as the oracle's
    scans do, and embed sends each atom to its one image along the walks."""
    contexts, embeddings = drawn
    oracle = PairPoset(contexts, embeddings)
    if oracle.refusals:
        with pytest.raises(StructureError) as info:
            ContextPoset(contexts, encode(contexts, embeddings))
        assert str(info.value) in oracle.refusals
        return
    poset = ContextPoset(contexts, encode(contexts, embeddings))
    ids = poset.context_ids
    assert ids == tuple(sorted(contexts))
    assert poset.least == oracle.least
    assert poset.covers() == oracle.covers()
    for c1 in ids:
        assert poset.upset(c1) == oracle.upset(c1)
        for c2 in ids:
            assert poset.leq(c1, c2) == oracle.leq(c1, c2)
            assert poset.try_join_contexts(c1, c2) == oracle.try_join_contexts(c1, c2)
            try:
                want = oracle.meet_contexts(c1, c2)
            except StructureError:
                with pytest.raises(StructureError):
                    poset.meet_contexts(c1, c2)
            else:
                assert poset.meet_contexts(c1, c2) == want
        for c2, [images] in oracle.walks(c1).items():
            for atom, image in zip(contexts[c1].atoms, images):
                assert poset.embed(c1, c2, frozenset({atom})) == image
    assert poset.validate() == oracle.validate()


def chain_composition(oracle):
    """Oracle: the (a, b, c, atom) at which a chain a <. b < c of the
    closure fails to compose, in sorted-id order: the atom's image in c
    against its image in b sent on to c, each image along the first
    shortest path of given pairs (name_embed)."""
    emb, failures = oracle.embeddings, []
    for a, b in oracle.covers():
        for c in sorted(oracle.upset(b) - {b}):
            for atom in oracle.contexts[a].atoms:
                x = frozenset({atom})
                if name_embed(emb, a, c, x) != name_embed(emb, b, c, name_embed(emb, a, b, x)):
                    failures.append((a, b, c, atom))
    return failures


@settings(max_examples=300, deadline=None)
@given(drawn=st.one_of(drawn_posets(), exchanged_posets(), drawn_orders()))
def test_composition_matches_the_per_chain_oracle(drawn):
    """Where every given map is a partition and the order has a least
    element, construction refuses disagreeing paths exactly when some
    chain a <. b < c fails to compose: on a partial order the chains of
    covers reach every path, by induction on the interval from a to c."""
    contexts, embeddings = drawn
    oracle = PairPoset(contexts, embeddings)
    if oracle.refusals and not oracle.refusals[0].startswith("embedding paths"):
        return
    try:
        ContextPoset(contexts, encode(contexts, embeddings))
    except StructureError as exc:
        assert str(exc).startswith("embedding paths")
        assert chain_composition(oracle)
    else:
        assert not chain_composition(oracle)


def test_composition_fails_past_the_first_atom_of_each_image():
    # t < a <. b <. c: a's atoms map to {b0, b1} and {b2, b3}, and b -> c is
    # the identity, but a -> c crosses b1 and b3, which are neither first
    # in their image; every embedding is well formed.  The rows hold every
    # point of each image, so a1's meets a0's at c1, where the paths from a
    # to c disagree
    contexts = {**CHAIN_CONTEXTS, "c": LocalAlgebra(("c0", "c1", "c2", "c3"))}
    embeddings = {
        **CHAIN_EMBEDDINGS,
        ("t", "c"): {"*": frozenset({"c0", "c1", "c2", "c3"})},
        ("b", "c"): {f"b{s}": frozenset({f"c{s}"}) for s in range(4)},
        ("a", "c"): {"a0": frozenset({"c0", "c3"}), "a1": frozenset({"c1", "c2"})},
    }
    with pytest.raises(StructureError) as info:
        ContextPoset(contexts, encode(contexts, embeddings))
    assert str(info.value) == "embedding paths 'a' -> 'c' disagree at 'a1'"


@settings(max_examples=200, deadline=None)
@given(drawn=st.one_of(drawn_posets(), drawn_orders()))
def test_embed_matches_the_drawn_names(drawn):
    """embed, decoded from the stored masks, sends every subset of a
    context's atoms (the empty set and the top included) where the drawn
    name-keyed embedding does, the identity pair to itself."""
    contexts, embeddings = drawn
    try:
        poset = ContextPoset(contexts, encode(contexts, embeddings))
    except StructureError:
        return
    ids = poset.context_ids
    for a, b in itertools.product(ids, repeat=2):
        if not poset.leq(a, b):
            continue
        atoms = contexts[a].atoms
        subsets = [
            frozenset(x) for k in range(len(atoms) + 1) for x in itertools.combinations(atoms, k)
        ]
        for x in subsets:
            assert poset.embed(a, b, x) == name_embed(embeddings, a, b, x)


def test_validate_skips_a_chain_through_an_image_outside_its_target():
    # a's images overlap, and the second names b9, which b lacks: no
    # embedding, refused before any chain through a -> b could be composed
    emb = {
        ("t", "a"): {"*": {"a0", "a1"}},
        ("t", "b"): {"*": {"b0", "b1", "b2", "b3"}},
        ("t", "c"): {"*": {"c0", "c1", "c2", "c3"}},
        ("a", "b"): {"a0": {"b0", "b1"}, "a1": {"b1", "b9"}},
        ("a", "c"): {"a0": {"c0", "c1"}, "a1": {"c2", "c3"}},
        ("b", "c"): {f"b{i}": {f"c{i}"} for i in range(4)},
    }
    contexts = {
        "t": LocalAlgebra(("*",)),
        "a": LocalAlgebra(("a0", "a1")),
        "b": LocalAlgebra(("b0", "b1", "b2", "b3")),
        "c": LocalAlgebra(("c0", "c1", "c2", "c3")),
    }
    with pytest.raises(StructureError, match="^embedding 'a' -> 'b' cannot be applied$"):
        ContextPoset(contexts, encode(contexts, emb))


@pytest.mark.parametrize(
    "images",
    [
        {"a0": {"b0", "b1"}},
        {"a0": {"b0", "b1"}, "a1": {"b2", "b3"}, "a9": {"b2"}},
        (0b0011,),
        (0b0011, 0b1100, 0b0000),
    ],
    ids=["atom left out", "name a lacks", "one mask", "three masks"],
)
def test_validate_reports_an_embedding_not_total_on_atoms(images):
    # t < a < b with a -> b keyed by other names than a's atoms, or given as
    # masks for another number of atoms than a's two: no embedding, refused
    with pytest.raises(StructureError, match="^embedding 'a' -> 'b' cannot be applied$"):
        if isinstance(images, tuple):
            chain_masks(("a", "b"), images)
        else:
            chain_poset({**CHAIN_EMBEDDINGS, ("a", "b"): images})


@pytest.mark.parametrize(
    "images, x, error, message",
    [
        ((0b0011,), {"a0"}, StructureError, "embedding 'a' -> 'b' cannot be applied"),
        ((0b0011, 0b11100), {"a0"}, StructureError, "embedding 'a' -> 'b' cannot be applied"),
        ((0b0011, 0b1100), {"a0", "b0"}, DomainError, "value not in the local algebra of 'a'"),
    ],
    ids=["not total", "bit past the target", "element outside the algebra"],
)
def test_embed_refuses_what_it_cannot_apply(images, x, error, message):
    # the poset refuses a map that is no embedding before embed can run
    with pytest.raises(error) as info:
        chain_masks(("a", "b"), images).embed("a", "b", frozenset(x))
    assert str(info.value) == message


# -- the point table's down-sets against the transpose of its up-sets ----------


def transpose(up) -> tuple[int, ...]:
    """Oracle: the down-sets as the bit-by-bit transpose of the up-sets."""
    down = [0] * len(up)
    for p, mask in enumerate(up):
        for q in _bits(mask):
            down[q] |= 1 << p
    return tuple(down)


def check_point_table(poset):
    """down is up transposed, and up is reflexive and transitive."""
    t = poset.point_table
    assert t.down == transpose(t.up)
    for p, mask in enumerate(t.up):
        assert mask >> p & 1
        assert all(not t.up[q] & ~mask for q in _bits(mask)), p


@settings(max_examples=200, deadline=None)
@given(drawn=st.one_of(drawn_posets(), exchanged_posets(), drawn_orders()))
def test_point_table_down_is_the_transpose_of_up(drawn):
    """Both are walked over the images of the given pairs: the rows
    pulled down from the top, the down-sets pushed up from the least
    context."""
    contexts, embeddings = drawn
    try:
        poset = ContextPoset(contexts, encode(contexts, embeddings))
    except StructureError:
        return
    check_point_table(poset)


@pytest.mark.parametrize(
    "name", ["classical_c8", "classical8_seed0", "xz3_seed0", "degenerate5_tau1e-3_seed13"]
)
def test_golden_point_table_down_is_the_transpose_of_up(name):
    check_point_table(loaded(GOLDEN / f"{name}.json").poset)


# -- every walk against its definition -----------------------------------------


def exhaustive_missing_meets(poset) -> list[str]:
    """Oracle: validate()'s missing meets from an _extreme scan of the lower
    bounds of every ordered incomparable pair, with the down-sets read off
    _up transposed."""
    ids, up = poset._ids, poset._up
    down = transpose(up)
    return [
        f"no meet for {ids[i]!r}, {ids[j]!r}"
        for i, j in itertools.permutations(range(len(ids)), 2)
        if not up[i] >> j & 1 and not up[j] >> i & 1 and _extreme(down[i] & down[j], down) is None
    ]


@settings(max_examples=300, deadline=None)
@given(drawn=st.one_of(drawn_posets(), exchanged_posets(), drawn_orders(), diamond_orders()))
def test_walks_match_their_definitions(drawn):
    """On diamonds and missing meets: the contexts' down-sets are
    their up-sets transposed, so are the points', and the meet scan over
    positions in a linear extension misses the meets the exhaustive scan
    does."""
    contexts, embeddings = drawn
    try:
        poset = ContextPoset(contexts, encode(contexts, embeddings))
    except StructureError:
        return
    assert tuple(poset._down) == transpose(poset._up)
    check_point_table(poset)
    issues = poset.validate()
    assert [v for v in issues if v.startswith("no meet")] == exhaustive_missing_meets(poset)
