"""The benchmark's workloads: seeded inputs, the jobs run on them, and the
check of every answer against `reference`.

A job is one user-visible call: a CLI subcommand through
`qlogic.cli.main(argv)` in-process with stdout captured, one CHSH frame
build, or one formula evaluation.  A workload is prepared once per
process (inputs, reference answers and, for `formula_eval`, the models
formulas run on); `Plan.build()` makes the library objects the jobs use,
and `Plan.jobs(built)` is one cycle of jobs, run back to back.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable

import inputs
import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_SEED0 = os.path.join(HERE, "expected_seed0.json")
GOLDEN_FIGURE1 = os.path.join(HERE, "figure1.dot")

# Closed-family size buckets for `classical_build` draws (7-8 points, 4-5
# observables of 2-3 values), two models per bucket.  Unbounded draws range
# from a handful of partitions to Bell(8) = 4140; these sizes keep every
# build under a second while leaving `ContextPoset.validate` (cubic in the
# family size) the dominant cost, and filling every bucket on every seed
# keeps the mix of sizes the same across seeds.
CLASSICAL_BUCKETS = [(40, 44), (45, 49), (50, 54), (55, 59)]
CLASSICAL_PER_BUCKET = 2

# `frame_enumerate` draws: 4-5 points, 2-3 observables of 2-3 values.
# A frame's enumeration bound is 2**points, so points <= 19 keeps it
# under the default guard of 10**6.  `check` costs about n**3 section
# operations for n sections, so it only runs on draws with few sections.
SMALL_MAX_POINTS = 19
CHECK_SECTIONS = (16, 16)
WIDE_SECTIONS = (90, 93)

# `formula_eval`: 7 points, 4 ternary observables, family size and cell
# count bands around the 152-point model the workload was designed on.
# Formula k of each model has exactly 1 + k % 4 implication nodes.
FORMULA_BAND = (38, 46)
FORMULA_POINTS = (145, 160)
FORMULAS_PER_MODEL = 200

CHSH_TOL = 1e-9


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right
    stdout_bytes: Callable[[Any], int] = lambda result: 0


@dataclass
class Plan:
    sizes: dict
    build: Callable[[], Any]
    jobs: Callable[[Any], list[Job]]
    problems: list[str] = field(default_factory=list)  # failed set-up checks


def run_cli(argv: list[str]) -> tuple[int, str]:
    from qlogic import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def write_model(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def cli_job(kind: str, argv: list[str], check: Callable[[list[str]], str | None]) -> Job:
    def checked(result):
        rc, out = result
        if rc != 0:
            return f"exit code {rc}"
        return check(out.splitlines())

    return Job(kind, lambda: run_cli(argv), checked, lambda r: len(r[1].encode()))


# -- answer checks on CLI output ----------------------------------------------------


def check_build(shape: dict) -> Callable[[list[str]], str | None]:
    """`build` prints the contexts with their atoms, the cover relations, and
    'poset valid'."""

    def check(lines):
        m = re.fullmatch(r"contexts \((\d+)\):", lines[0]) if lines else None
        if not m:
            return "no context count"
        i, points = 1, 0
        while i < len(lines) and ": atoms " in lines[i]:
            points += len(ast.literal_eval(lines[i].split(": atoms ", 1)[1]))
            i += 1
        if i >= len(lines) or lines[i] != "cover relations:":
            return "no cover relations"
        covers = sum(" < " in line for line in lines[i + 1 :])
        got = {"contexts": int(m.group(1)), "points": points, "covers": covers}
        if got != shape:
            return f"poset shape {got} != {shape}"
        if lines[-1] != "poset valid":
            return f"last line {lines[-1]!r}"
        return None

    return check


def check_sections(n: int) -> Callable[[list[str]], str | None]:
    """`check` prints the section count and passes every suite."""

    def check(lines):
        if f"sections: {n}" not in lines:
            return f"section count is not {n}"
        if not lines or lines[-1] != "all checks passed":
            return "checks did not pass"
        return None

    return check


def check_hasse(nodes: int, edges: int, golden: str | None = None):
    """A Hasse diagram of the up-set lattice: one node per section, one edge
    per cover; compared line by line when a stored diagram exists."""

    def check(lines):
        if golden is not None:
            return None if lines == golden.splitlines() else "differs from stored DOT"
        got = (sum("[label=" in x for x in lines), sum(" -> " in x for x in lines))
        return None if got == (nodes, edges) else f"(nodes, edges) {got} != {(nodes, edges)}"

    return check


def check_decidable(lines):
    """A frame over a poset with a least context is connected, so its only
    decidable sections are BOT and TOP (listed in no promised order)."""
    if not lines or lines[0] != "decidable sections: 2":
        return "decidable count is not 2"
    return None if sorted(x.strip() for x in lines[1:]) == ["BOT", "TOP"] else "not {BOT, TOP}"


def check_bridge(n: int) -> Callable[[list[str]], str | None]:
    def check(lines):
        want = [
            f"classical sections: {n}",
            f"quantum sections:   {n}",
            "result: order isomorphism verified exhaustively",
        ]
        return None if lines == want else f"bridge output {lines}"

    return check


# -- workloads ----------------------------------------------------------------------------


def quantum_build(seed: int, workdir: str) -> Plan:
    """`build` on local Pauli models (2-qubit X/Z, two 2-qubit X/Y/Z, 3-qubit
    X/Z), each qubit conjugated by a seeded random unitary, plus one CHSH
    frame at seeded angles per cycle."""
    g = inputs.np_rng(inputs.rng("quantum_build", seed, "unitaries"))
    models = []
    for tag, sites, paulis in (
        ("xz2", 2, "XZ"),
        ("xyz2a", 2, "XYZ"),
        ("xyz2b", 2, "XYZ"),
        ("xz3", 3, "XZ"),
    ):
        doc, _ = inputs.pauli_model(sites, paulis, g)
        shape = ref.pauli_shape(sites, len(paulis))
        models.append((tag, write_model(workdir, tag, doc), shape))
    angles = inputs.chsh_angles(inputs.rng("quantum_build", seed, "chsh"))

    def jobs(_):
        chsh = Job("chsh", lambda: chsh_run(angles), lambda r: chsh_check(angles, r))
        builds = [
            cli_job(f"build:{tag}", ["build", path], check_build(shape))
            for tag, path, shape in models
        ]
        # sorted by cost the cycle is chsh < xz2 < xyz2 = xyz2 < xz3, so the
        # median job is a 2-qubit X/Y/Z build
        return [chsh, *builds]

    sizes = {tag: shape for tag, _, shape in models}
    sizes["chsh_angles"] = [round(a, 6) for a in angles]
    return Plan(sizes, lambda: None, jobs)


def chsh_run(angles):
    from qlogic.bell import BellScenario, build_chsh_frame, chsh_terms, singlet_state

    scenario = BellScenario.from_angles(*angles)
    cf = build_chsh_frame(scenario)
    return cf, chsh_terms(singlet_state(), scenario)


def chsh_check(angles, result) -> str | None:
    cf, terms = result
    a1, a2, b1, b2 = angles
    want = [
        ref.singlet_joint(a1 - b1),
        ref.singlet_joint(a1 - b2),
        ref.singlet_joint(a2 - b1),
        ref.singlet_joint(a2 - b2),  # P(-,-) equals P(+,+) on the singlet
    ]
    got = [terms.lhs, terms.t1, terms.t2, terms.t3]
    if any(abs(x - y) > CHSH_TOL for x, y in zip(got, want)):
        return f"CHSH terms {got} != {want}"
    poset = cf.frame.poset
    shape = {"contexts": len(poset.context_ids),
             "points": sum(len(poset.algebra(c).atoms) for c in poset.context_ids)}
    want_shape = ref.pauli_shape(2, 2)
    del want_shape["covers"]
    return None if shape == want_shape else f"CHSH frame {shape} != {want_shape}"


def classical_build(seed: int, workdir: str) -> Plan:
    """`build` on seeded classical models, CLASSICAL_PER_BUCKET per family
    size bucket."""
    r = inputs.rng("classical_build", seed, "draws")
    band = (CLASSICAL_BUCKETS[0][0], CLASSICAL_BUCKETS[-1][1])
    buckets: dict = {b: [] for b in CLASSICAL_BUCKETS}
    draws = 0
    while any(len(v) < CLASSICAL_PER_BUCKET for v in buckets.values()):
        draw, tries = inputs.classical_in_band(r, [7, 8], [4, 5], [2, 3], band)
        draws += tries
        bucket = next(b for b in buckets if b[0] <= draw.partitions <= b[1])
        if len(buckets[bucket]) < CLASSICAL_PER_BUCKET:
            buckets[bucket].append(draw)
    pool = []
    sizes = []
    for k, draw in enumerate(d for v in buckets.values() for d in v):
        shape = {
            "contexts": draw.partitions,
            "points": draw.points,
            "covers": ref.family_covers(draw.family),
        }
        pool.append((write_model(workdir, f"classical{k}", draw.doc()), shape))
        sizes.append({"n_points": draw.n_points, "observables": len(draw.values),
                      "partitions": draw.partitions, "points": draw.points,
                      "enumeration_bound": f"2**{draw.points}"})

    def jobs(_):
        return [cli_job("build:classical", ["build", p], check_build(s)) for p, s in pool]

    return Plan({"buckets": CLASSICAL_BUCKETS, "draws": draws, "models": sizes}, lambda: None, jobs)


def small_classical(r, band) -> tuple[inputs.ClassicalDraw, ref.PointPoset, list[int]]:
    """A 4-5 point draw under the enumeration guard with a section count in band."""
    while True:
        draw, _ = inputs.classical_in_band(r, [4, 5], [2, 3], [2, 3], (1, 12))
        if draw.points > SMALL_MAX_POINTS:
            continue
        pp = ref.classical_points(draw.family, draw.n_points)
        ups = pp.upsets()
        if band[0] <= len(ups) <= band[1]:
            return draw, pp, ups


def frame_enumerate(seed: int, workdir: str) -> Plan:
    """`check`, `hasse`, `decidable` and `bridge` on the three fixtures and on
    seeded small models: classical ones with at most 5 points, and single
    qubits with 2-3 random axes."""
    specs = []  # (name, path, sections, covers, argv subcommands)
    for name, doc in inputs.FIXTURES.items():
        path = write_model(workdir, name, doc)
        if name == "one_qubit":
            n = ref.one_qubit_frame(2)
            cmds = ["check --exhaustive", "hasse", "decidable"]
            specs.append((name, path, n["sections"], n["covers"], cmds))
            continue
        family = ref.close_family(
            [ref.canon(vm.values()) for vm in doc["observables"].values()],
            len(doc["points"]),
        )
        pp = ref.classical_points(family, len(doc["points"]))
        ups = pp.upsets()
        check = "check" if name == "crossing" else "check --exhaustive"
        specs.append((name, path, len(ups), pp.cover_count(ups),
                      [check, "hasse", "decidable", "bridge"]))
    r = inputs.rng("frame_enumerate", seed, "draws")
    sizes = {}
    for k, (band, cmds) in enumerate(
        [(CHECK_SECTIONS, ["check --exhaustive", "hasse", "decidable", "bridge"])] * 2
        + [(WIDE_SECTIONS, ["hasse", "decidable", "bridge"])] * 2
    ):
        draw, pp, ups = small_classical(r, band)
        name = f"classical{k}"
        specs.append((name, write_model(workdir, name, draw.doc()), len(ups),
                      pp.cover_count(ups), cmds))
        sizes[name] = {"n_points": draw.n_points, "partitions": draw.partitions,
                       "points": draw.points, "enumeration_bound": 2**draw.points,
                       "sections": len(ups)}
    for axes, cmds in ((2, ["check --exhaustive", "hasse", "decidable"]),
                       (3, ["hasse", "decidable"])):
        name = f"qubit{axes}"
        doc = inputs.qubit_axes_model(axes, inputs.rng("frame_enumerate", seed, name))
        n = ref.one_qubit_frame(axes)
        specs.append((name, write_model(workdir, name, doc), n["sections"], n["covers"], cmds))
        sizes[name] = {"axes": axes, "points": 1 + 2 * axes,
                       "enumeration_bound": 2 ** (1 + 2 * axes), "sections": n["sections"]}
    with open(GOLDEN_FIGURE1) as fh:
        golden = fh.read()

    checks = {
        "check": lambda n, e, name: check_sections(n),
        "hasse": lambda n, e, name: check_hasse(n, e, golden if name == "figure1" else None),
        "decidable": lambda n, e, name: check_decidable,
        "bridge": lambda n, e, name: check_bridge(n),
    }

    def jobs(_):
        out = []
        for name, path, n, edges, cmds in specs:
            for cmd in cmds:
                sub, *flags = cmd.split()
                out.append(cli_job(f"{sub}:{name}", [sub, path, *flags],
                                   checks[sub](n, edges, name)))
        return out

    sizes["guard"] = 10**6
    return Plan(sizes, lambda: None, jobs)


def formula_eval(seed: int, workdir: str) -> Plan:
    """parse_formula + eval_formula of seeded formulas (depth <= 5) on three
    models built during set-up: the CHSH frame, the 3-qubit X/Z model and a
    7-point, 4-ternary classical model."""
    # library entry points are looked up at call time, so that a traced
    # pass sees the wrapped versions
    import qlogic
    from qlogic import bell, formulas as qformulas

    angles = inputs.chsh_angles(inputs.rng("formula_eval", seed, "chsh"))
    qdoc, qsites = inputs.pauli_model(
        3, "XZ", inputs.np_rng(inputs.rng("formula_eval", seed, "unitaries"))
    )
    draw, tries = inputs.classical_in_band(
        inputs.rng("formula_eval", seed, "classical"), [7], [4], [3], FORMULA_BAND,
        FORMULA_POINTS,
    )
    chsh_sites = [["A1", "A2"], ["B1", "B2"]]

    def build():
        import numpy as np

        chsh = bell.build_chsh_frame(bell.BellScenario.from_angles(*angles)).model
        quantum = qlogic.QuantumModel({
            name: np.array([[complex(re, im) for re, im in row] for row in rows])
            for name, rows in qdoc["observables"].items()
        })
        pts = [f"p{i}" for i in range(draw.n_points)]
        classical = qlogic.ClassicalModel(
            qlogic.OutcomeSpace(frozenset(pts)),
            {name: qlogic.ClassicalObservable.from_dict(name, dict(zip(pts, vals)))
             for name, vals in draw.values.items()},
        )
        return {"chsh": chsh, "xz3": quantum, "classical": classical}

    # reference point posets and measurement atoms, per model
    refs = {}
    for tag, sites in (("chsh", chsh_sites), ("xz3", qsites)):
        pp = ref.product_points(sites)
        site_of = {name: s for s, names in enumerate(sites) for name in names}
        atoms = [(name, [1, -1]) for names in sites for name in names]
        refs[tag] = (pp, atoms,
                     lambda name, vals, pp=pp, site_of=site_of:
                     ref.product_elementary(pp, site_of[name], name, set(vals)))
    cpp = ref.classical_points(draw.family, draw.n_points)
    catoms = [(name, sorted(set(vals))) for name, vals in draw.values.items()]
    refs["classical"] = (cpp, catoms,
                         lambda name, vals: ref.classical_elementary(
                             cpp, ref.canon(draw.values[name]), draw.values[name], set(vals)))

    formulas = []  # (model tag, text, reference profile)
    for tag, (pp, atoms, atom) in refs.items():
        r = inputs.rng("formula_eval", seed, f"formulas:{tag}")
        for k in range(FORMULAS_PER_MODEL):
            tree = inputs.stratified_formula(r, atoms, 1 + k % 4)
            formulas.append((tag, inputs.formula_text(tree),
                             pp.profile(ref.eval_ast(pp, tree, atom))))
    # interleave the three models so every stretch of the run sees all of them
    formulas = [formulas[i + k * FORMULAS_PER_MODEL]
                for i in range(FORMULAS_PER_MODEL) for k in range(3)]

    stored = None
    if seed == 0:
        with open(EXPECTED_SEED0) as fh:
            stored = json.load(fh)

    problems: list[str] = []

    def jobs(models):
        natoms = {
            tag: {c: len(m.poset.algebra(c).atoms) for c in m.poset.context_ids}
            for tag, m in models.items()
        }
        for tag, sizes in natoms.items():
            if sorted(sizes.values()) != sorted(k for _, k in refs[tag][0].contexts):
                problems.append(f"{tag}: context poset differs from the reference")
        out = []
        for i, (tag, text, profile) in enumerate(formulas):
            def run(m=models[tag], text=text):
                return qformulas.eval_formula(m, qformulas.parse_formula(text))

            def check(section, tag=tag, profile=profile, i=i):
                got = sorted((natoms[tag][c], len(v)) for c, v in section.items)
                if got != profile:
                    return "section differs from the reference up-set"
                if stored is not None and stored[i] != section_digest(section):
                    return "section differs from the stored result"
                return None

            out.append(Job(f"formula:{tag}", run, check))
        return out

    sizes = {
        "chsh_angles": [round(a, 6) for a in angles],
        "points": {tag: len(pp.points) for tag, (pp, _, _) in refs.items()},
        "classical_partitions": draw.partitions,
        "classical_band": list(FORMULA_BAND),
        "classical_points_band": list(FORMULA_POINTS),
        "formulas": len(formulas),
    }
    return Plan(sizes, build, jobs, problems)


def section_digest(section) -> str:
    canon = json.dumps(sorted([c, sorted(v)] for c, v in section.items))
    return hashlib.sha1(canon.encode()).hexdigest()[:16]


WORKLOADS = {
    "quantum_build": quantum_build,
    "classical_build": classical_build,
    "frame_enumerate": frame_enumerate,
    "formula_eval": formula_eval,
}
