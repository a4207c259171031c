"""Reference answers computed without the code under test.

Everything here is a small, independent re-derivation of what qlogic
should print or return, so that the benchmark's answer checks survive
refactors of the library:

* partitions are restricted-growth label tuples over point indices, and
  the closed family is computed with a worklist closure;
* a model's section frame is the lattice of up-sets of its poset of
  (context, atom) points (Birkhoff), so section counts, Hasse covers and
  formula values are computed on bitmasks of points;
* local-observable ("Pauli-like") quantum models have a closed-form
  context structure: each site is either unmeasured or measured by one of
  its observables, and each measured observable has the two outcomes
  +1 and -1.
"""

from __future__ import annotations

import itertools
import math

# -- partitions as restricted-growth label tuples -----------------------------


def canon(labels) -> tuple:
    """Relabel blocks by first occurrence: (2, 2, 0, 1) -> (0, 0, 1, 2)."""
    labels = tuple(labels)
    index = {x: i for i, x in enumerate(dict.fromkeys(labels))}
    return tuple(map(index.__getitem__, labels))


def meet(a: tuple, b: tuple) -> tuple:
    """Common refinement."""
    return canon(zip(a, b))


def join(a: tuple, b: tuple) -> tuple:
    """Finest common coarsening: blocks of `a` linked by a block of `b` merge
    (union-find over the labels of `a`)."""
    parent = list(range(max(a) + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    seen: dict = {}
    for x, y in zip(a, b):
        if y in seen:
            rx, ry = find(x), find(seen[y])
            if rx != ry:
                parent[rx] = ry
        else:
            seen[y] = x
    return canon(find(x) for x in a)


def refines(fine: tuple, coarse: tuple) -> bool:
    """True iff every block of `fine` lies inside a block of `coarse`."""
    image: dict = {}
    return all(image.setdefault(f, c) == c for f, c in zip(fine, coarse))


def close_family(base, n_points: int, limit: int | None = None) -> frozenset | None:
    """Smallest family holding `base` and the one-block partition, closed
    under meet and join; None as soon as it grows past `limit`."""
    family = {canon(p) for p in base}
    family.add((0,) * n_points)
    work = list(family)
    done: list = []  # each pair is combined once, when the later one is taken
    while work:
        p = work.pop()
        done.append(p)
        for q in done:
            for r in (meet(p, q), join(p, q)):
                if r not in family:
                    family.add(r)
                    work.append(r)
                    if limit is not None and len(family) > limit:
                        return None
    return frozenset(family)


def blocks(p: tuple) -> int:
    return max(p) + 1


def family_covers(family) -> int:
    """Number of cover pairs of the family ordered by refinement."""
    parts = sorted(family)
    idx = range(len(parts))
    finer = [0] * len(parts)  # bit j set: parts[j] strictly refines parts[i]
    for i in idx:
        for j in idx:
            if i != j and refines(parts[j], parts[i]):
                finer[i] |= 1 << j
    coarser = [0] * len(parts)
    for i in idx:
        for j in idx:
            if finer[i] >> j & 1:
                coarser[j] |= 1 << i
    return sum(
        1
        for i in idx
        for j in idx
        if finer[i] >> j & 1 and not finer[i] & coarser[j]
    )


# -- point posets and their up-sets -------------------------------------------


class PointPoset:
    """Finite poset of (context, atom) points with bitmask up-sets.

    `contexts` lists (context key, number of atoms); `up[p]` is the bitmask
    of points >= p.  Sections of the model's frame are exactly the up-sets.
    """

    def __init__(self, contexts, points, leq):
        self.contexts = list(contexts)
        self.points = list(points)
        n = len(self.points)
        self.up = [0] * n
        for i, p in enumerate(self.points):
            for j, q in enumerate(self.points):
                if leq(p, q):
                    self.up[i] |= 1 << j
        self.full = (1 << n) - 1

    def implies(self, u: int, v: int) -> int:
        """U -> V = {p : every point above p that is in U is in V}."""
        out = 0
        for i, up in enumerate(self.up):
            if not up & u & ~v:
                out |= 1 << i
        return out

    def profile(self, u: int) -> list:
        """Sorted (atoms of context, atoms of context in u) over contexts;
        a naming-free fingerprint of a section."""
        by_ctx: dict = {}
        for i, (ctx, _) in enumerate(self.points):
            by_ctx[ctx] = by_ctx.get(ctx, 0) + (u >> i & 1)
        return sorted((k, by_ctx[c]) for c, k in self.contexts)

    def _minimal(self, rest: int) -> int:
        """Index of a point of `rest` with no other point of `rest` below it."""
        for i in range(len(self.up)):
            if rest >> i & 1 and not any(
                rest >> j & 1 and j != i and self.up[j] >> i & 1
                for j in range(len(self.up))
            ):
                return i
        raise ValueError("empty rest")

    def upsets(self, rest: int | None = None) -> list[int]:
        """Every up-set of the points in `rest` (default all), as bitmasks.
        Either a minimal point m is out, or all of up[m] is in."""
        rest = self.full if rest is None else rest
        if not rest:
            return [0]
        m = self._minimal(rest)
        with_m = self.up[m] & rest
        return self.upsets(rest & ~(1 << m)) + [
            with_m | u for u in self.upsets(rest & ~with_m)
        ]

    def cover_count(self, upsets) -> int:
        """Covers of the up-set lattice: U < U + {p}, p maximal outside U."""
        total = 0
        for u in upsets:
            for i, up in enumerate(self.up):
                if not u >> i & 1 and not (up & ~(1 << i)) & ~u:
                    total += 1
        return total


def classical_points(family, n_points: int) -> PointPoset:
    """Point poset of a closed partition family.  Context c <= d when d
    refines c; atom B of d lies above atom A of c when B is inside A."""
    parts = sorted(family)
    contexts = [(p, blocks(p)) for p in parts]
    points = [(p, b) for p in parts for b in range(blocks(p))]
    rep = {(p, b): p.index(b) for p, b in points}

    def leq(x, y):
        (c, a), (d, b) = x, y
        return refines(d, c) and c[rep[y]] == a

    return PointPoset(contexts, points, leq)


def classical_elementary(poset: PointPoset, labels: tuple, values: tuple, delta) -> int:
    """Up-set of 'the observable with point values `values` (partition
    `labels`) gave a value in delta': every atom, in a context refining the
    observable, inside a cell whose value is in delta."""
    u = 0
    for i, (ctx, b) in enumerate(poset.points):
        if refines(ctx, labels) and values[ctx.index(b)] in delta:
            u |= 1 << i
    return u


# -- local-observable quantum models -------------------------------------------


def product_points(sites) -> PointPoset:
    """Point poset of a model whose sites each carry mutually incompatible
    +-1 observables (`sites` lists observable names per site).  A context
    picks for each site None or one observable; an atom fixes the sign of
    each measured site."""
    ctxs = list(itertools.product(*[[None, *names] for names in sites]))

    def atoms(ctx):
        measured = [s for s, o in enumerate(ctx) if o is not None]
        for signs in itertools.product((1, -1), repeat=len(measured)):
            yield tuple(zip(measured, signs))

    contexts = [(c, 2 ** sum(o is not None for o in c)) for c in ctxs]
    points = [(c, a) for c in ctxs for a in atoms(c)]

    def leq(x, y):
        (c, a), (d, b) = x, y
        return all(o is None or o == d[s] for s, o in enumerate(c)) and set(a) <= set(b)

    return PointPoset(contexts, points, leq)


def product_elementary(poset: PointPoset, site: int, name: str, delta) -> int:
    u = 0
    for i, (ctx, atom) in enumerate(poset.points):
        if ctx[site] == name and dict(atom)[site] in delta:
            u |= 1 << i
    return u


def pauli_shape(sites: int, per_site: int) -> dict:
    """Closed-form size of the local-observable context poset."""
    return {
        "contexts": (per_site + 1) ** sites,
        "points": (1 + 2 * per_site) ** sites,
        "covers": sites * per_site * (per_site + 1) ** (sites - 1),
    }


def one_qubit_frame(axes: int) -> dict:
    """Sections and Hasse covers of a qubit with `axes` incompatible axes:
    the up-sets are the subsets of the 2*axes outcome atoms, plus TOP."""
    return {"sections": 4**axes + 1, "covers": axes * 4**axes + 1}


def singlet_joint(theta_deg: float) -> float:
    """P(+,+) on the singlet at relative angle theta: sin^2(theta/2) / 2."""
    return 0.5 * math.sin(math.radians(theta_deg) / 2) ** 2


# -- formulas -------------------------------------------------------------------


def eval_ast(poset: PointPoset, node, atom) -> int:
    """Evaluate a formula tree from `inputs.random_formula` to an up-set;
    `atom(name, values)` gives the up-set of a measurement atom."""
    op = node[0]
    if op == "TOP":
        return poset.full
    if op == "BOT":
        return 0
    if op == "M":
        return atom(node[1], node[2])
    if op == "~":
        return poset.implies(eval_ast(poset, node[1], atom), 0)
    a = eval_ast(poset, node[1], atom)
    b = eval_ast(poset, node[2], atom)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    return poset.implies(a, b)
