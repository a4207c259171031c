"""Seeded input generators.  The same (workload, seed) gives the same
inputs on every run and machine: pure-Python draws use `random.Random`
seeded with a string, numpy draws use a PCG64 generator seeded from it."""

from __future__ import annotations

import random

import numpy as np

import reference as ref

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# the three fixtures of the repository's test suite, as the benchmark's own data
FIXTURES = {
    "figure1": {
        "kind": "classical",
        "points": ["w0", "w1"],
        "observables": {"A": {"w0": 0, "w1": 1}},
    },
    "crossing": {
        "kind": "classical",
        "points": ["1", "2", "3", "4"],
        "observables": {
            "A": {"1": 0, "2": 0, "3": 1, "4": 1},
            "B": {"1": 0, "2": 1, "3": 0, "4": 1},
        },
    },
    "one_qubit": {
        "kind": "quantum",
        "observables": {
            "Sz": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "Sx": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        },
    },
}


def rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}|{seed}|{part}")


def np_rng(r: random.Random) -> np.random.Generator:
    return np.random.default_rng(r.getrandbits(64))


def matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def haar_unitary(g: np.random.Generator) -> np.ndarray:
    m = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def pauli_model(sites: int, paulis: str, g: np.random.Generator) -> tuple[dict, list]:
    """Local Pauli observables on `sites` qubits, each qubit conjugated by
    its own random unitary: the context structure is fixed, the matrices
    are dense.  Returns the model document and the observable names per
    site."""
    us = [haar_unitary(g) for _ in range(sites)]
    observables = {}
    names = []
    for k in range(sites):
        names.append([f"{p}{k}" for p in paulis])
        for p in paulis:
            m = np.eye(1, dtype=complex)
            for j in range(sites):
                f = us[k] @ PAULI[p] @ us[k].conj().T if j == k else np.eye(2)
                m = np.kron(m, f)
            observables[f"{p}{k}"] = matrix_json(m)
    return {"kind": "quantum", "observables": observables}, names


def chsh_angles(r: random.Random) -> tuple[float, float, float, float]:
    """Alice's and Bob's two axes each at least 30 degrees apart."""
    a1, b1 = r.uniform(0, 180), r.uniform(0, 180)
    return a1, a1 + r.uniform(30, 150), b1, b1 + r.uniform(30, 150)


def qubit_axes_model(axes: int, r: random.Random) -> dict:
    """One qubit with spin observables along `axes` random directions, any
    two at least 20 degrees from parallel or antiparallel."""
    dirs: list[np.ndarray] = []
    while len(dirs) < axes:
        v = np.array([r.gauss(0, 1) for _ in range(3)])
        v /= np.linalg.norm(v)
        if all(abs(v @ w) < np.cos(np.radians(20)) for w in dirs):
            dirs.append(v)
    observables = {
        f"S{k}": matrix_json(sum(v[i] * PAULI[p] for i, p in enumerate("XYZ")))
        for k, v in enumerate(dirs)
    }
    return {"kind": "quantum", "observables": observables}


# -- classical draws -------------------------------------------------------------


class ClassicalDraw:
    """Random observables on a finite outcome space: `values[name]` holds
    one integer value per point."""

    def __init__(self, n_points: int, values: dict[str, tuple], family: frozenset):
        self.n_points = n_points
        self.values = values
        self.family = family

    @property
    def partitions(self) -> int:
        return len(self.family)

    @property
    def points(self) -> int:
        return sum(ref.blocks(p) for p in self.family)

    def doc(self) -> dict:
        pts = [f"p{i}" for i in range(self.n_points)]
        return {
            "kind": "classical",
            "points": pts,
            "observables": {
                name: dict(zip(pts, vals)) for name, vals in self.values.items()
            },
        }


def classical_in_band(
    r: random.Random, n_points, n_obs, n_values, band: tuple[int, int],
    points: tuple[int, int] = (0, 10**9),
) -> tuple[ClassicalDraw, int]:
    """Draw until the closed family size lies in `band` and its total number
    of cells in `points` (both inclusive).  Point, observable and value
    counts are picked from the given choices per draw.  Returns the draw and
    the number of draws made."""
    for tries in range(1, 10_000):
        n = r.choice(n_points)
        values = {}
        for k in range(r.choice(n_obs)):
            v = r.choice(n_values)
            values["ABCDE"[k]] = tuple(r.randrange(v) for _ in range(n))
        base = [ref.canon(v) for v in values.values()]
        family = ref.close_family(base, n, limit=band[1])
        if family is not None and len(family) >= band[0]:
            draw = ClassicalDraw(n, values, family)
            if points[0] <= draw.points <= points[1]:
                return draw, tries
    raise RuntimeError(f"no draw in band {band}")


# -- formulas ----------------------------------------------------------------------


def random_formula(r: random.Random, atoms: list[tuple[str, list]], depth: int = 5):
    """Random formula tree of depth <= `depth` over measurement atoms
    (observable name, outcome values).  Nodes are tuples:
    ("M", name, values), ("TOP",), ("BOT",), ("~", x), (op, x, y)."""
    if depth == 1 or r.random() < 0.25:
        if r.random() < 0.04:
            return (r.choice(["TOP", "BOT"]),)
        name, values = r.choice(atoms)
        k = r.randint(1, len(values))
        return ("M", name, tuple(sorted(r.sample(values, k))))
    op = r.choice(["~", "&", "|", "->", "&", "|", "->"])  # each binary op twice as likely as ~
    if op == "~":
        return ("~", random_formula(r, atoms, depth - 1))
    return (op, random_formula(r, atoms, depth - 1), random_formula(r, atoms, depth - 1))


def implications(node) -> int:
    """Number of '->' and '~' nodes, the costly operations of a formula."""
    if node[0] in ("M", "TOP", "BOT"):
        return 0
    return (node[0] in ("->", "~")) + sum(implications(x) for x in node[1:])


def stratified_formula(r: random.Random, atoms, k: int, depth: int = 5):
    """A random formula with exactly k implication nodes, so that a list of
    formulas has the same mix of costly operations on every seed."""
    while True:
        node = random_formula(r, atoms, depth)
        if implications(node) == k:
            return node


def formula_text(node) -> str:
    op = node[0]
    if op in ("TOP", "BOT"):
        return op
    if op == "M":
        return f"M({node[1]},{{{','.join(str(v) for v in node[2])}}})"
    if op == "~":
        return "~" + formula_text(node[1])
    return f"({formula_text(node[1])} {op} {formula_text(node[2])})"
