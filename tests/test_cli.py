import functools
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qlogic import cli
from qlogic.cli import load_model, main
from qlogic.hasse import export_dot
from qlogic.poset import ContextPoset
from qlogic.sections import Frame

from conftest import FIXTURES, GOLDEN
from test_formulas import ERROR_FORMULAS
from test_quantum_oracle import local_pauli_model, turned_fourier_model

FIG1 = str(FIXTURES / "figure1.json")
QUBIT = str(FIXTURES / "one_qubit.json")
CROSS = str(FIXTURES / "crossing.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_classical(capsys):
    code, out, _ = run(capsys, "build", FIG1)
    assert code == 0
    assert "poset valid" in out
    assert "{w0}/{w1}" in out


def test_build_quantum(capsys):
    """one_qubit.json carries "dim": 2, which matches its matrices."""
    assert json.loads(open(QUBIT).read())["dim"] == 2
    code, out, _ = run(capsys, "build", QUBIT)
    assert code == 0
    assert "Sz" in out and "Sx" in out


@pytest.mark.parametrize("path", [GOLDEN / "xz3_seed0.json", FIXTURES / "figure1.json"], ids=lambda p: p.stem)
def test_build_validates_once(capsys, monkeypatch, path):
    """A quantum build validates its poset, and `build` prints the same
    check: the meet scan runs once, on the first call."""
    calls = []
    scan = ContextPoset._issues.func
    issues = functools.cached_property(lambda self: calls.append(1) or scan(self))
    issues.__set_name__(ContextPoset, "_issues")
    monkeypatch.setattr(ContextPoset, "_issues", issues)
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0 and out.endswith("poset valid\n") and len(calls) == 1


def test_build_xz3_matches_golden(capsys):
    """3-qubit local X/Z observables, each qubit turned by a unitary drawn
    from default_rng(0): 27 contexts, whose ids, atoms, covers and validity
    `build` must print byte for byte as in tests/golden."""
    code, out, err = run(capsys, "build", str(GOLDEN / "xz3_seed0.json"))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "xz3_seed0.build.txt").read_text()


def test_build_xyz2_matches_golden(capsys):
    """2-qubit local X/Y/Z observables, each qubit turned by a unitary drawn
    from default_rng(0), so that the matrices have complex entries: 16
    contexts, printed byte for byte as in tests/golden."""
    code, out, err = run(capsys, "build", str(GOLDEN / "xyz2_seed0.json"))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "xyz2_seed0.build.txt").read_text()


def test_build_xz4_matches_golden(capsys, monkeypatch, xz4_model):
    """4-qubit local X/Z observables, each qubit turned by a unitary drawn
    from default_rng(0): 81 contexts on C^16, whose ids, atoms, covers and
    validity `build` must print byte for byte as in tests/golden.  The
    model is the session's one load of the file through load_model."""
    path = str(GOLDEN / "xz4_seed0.json")
    monkeypatch.setattr(cli, "load_model", lambda p: xz4_model if p == path else load_model(p))
    code, out, err = run(capsys, "build", path)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "xz4_seed0.build.txt").read_text()


def test_build_degenerate5_at_tau_1e_3_matches_golden(capsys):
    """Four degenerate observables on C^5 with values 1-3, diagonal in one
    basis drawn from default_rng(13) with a few neighbouring basis pairs
    turned, at tau_proj = 1e-3: 21 contexts, 14 of them meets, settled from
    127 meet candidates under 46 distinct (context, components) keys,
    printed byte for byte as in tests/golden."""
    code, out, err = run(capsys, "build", str(GOLDEN / "degenerate5_tau1e-3_seed13.json"))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "degenerate5_tau1e-3_seed13.build.txt").read_text()


def test_build_classical8_matches_golden(capsys):
    """8 points, five observables of 2-3 values drawn from random.Random(0)
    until the closed family held 201-260 partitions: 230 contexts, whose
    ids, atoms, covers and validity `build` must print byte for byte as in
    tests/golden."""
    code, out, err = run(capsys, "build", str(GOLDEN / "classical8_seed0.json"))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "classical8_seed0.build.txt").read_text()


def test_build_classical_c8_matches_golden(capsys):
    """8 points, five ternary observables from random.Random(1) (row j of
    [[r.randrange(3) for _ in range(8)] for _ in range(5)] is O<j>): 1,080
    contexts and 5,861 covers, whose `build` stdout is pinned by its sha256,
    taken before the closure joined only against join-irreducibles."""
    code, out, err = run(capsys, "build", str(GOLDEN / "classical_c8.json"))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "12bd12e50aaae335279c5f829298ee18e31c1de2f518c70df3db189ebff48aa6"
    )


@pytest.mark.parametrize("path", [FIG1, CROSS, QUBIT])
def test_build_covers_are_transitive_reduction(capsys, path):
    code, out, _ = run(capsys, "build", path)
    assert code == 0
    lines = out.splitlines()
    start, end = lines.index("cover relations:"), lines.index("poset valid")
    poset = load_model(path).poset
    ids = poset.context_ids
    naive = [
        f"  {a} < {b}"
        for a in ids
        for b in ids
        if a != b
        and poset.leq(a, b)
        and not any(d not in (a, b) and poset.leq(a, d) and poset.leq(d, b) for d in ids)
    ]
    assert lines[start + 1 : end] == naive
    assert naive


def test_build_context_with_more_atoms_than_dim(tmp_path, capsys):
    """At tau_proj = 0.3 the closure of local_pauli_model(2, "XZ", 5) on C^4
    makes a context of more atoms than dim, which gets no basis and takes
    the exact path: one error line, as in the all-exact build."""
    observables = local_pauli_model(2, "XZ", 5).observables
    doc = {
        "kind": "quantum",
        "observables": {
            name: [[[z.real, z.imag] for z in row] for row in m] for name, m in observables.items()
        },
        "options": {"tau_proj": 0.3},
    }
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "build", str(path)) == (
        2, "", "error: context 'X0*X1*Z0*X0*X1*Z0*Z1': atoms do not sum to the identity\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["build"], ["eval", "-f", "M(A,{1})"], ["hasse"], ["decidable"]],
    ids=lambda argv: argv[0],
)
def test_a_closure_that_is_no_partial_order_is_refused(tmp_path, capsys, argv):
    """The turned-Fourier pair at dim 8, sine 5e-3 and tau_proj 1e-3: the
    order puts A and B below each other while dedup keeps them apart, so
    every command exits 2 with one error line, and answers nothing."""
    doc = {
        "kind": "quantum",
        "observables": {
            name: [[[z.real, z.imag] for z in row] for row in m]
            for name, m in turned_fourier_model(8, 5e-3).items()
        },
        "options": {"tau_proj": 1e-3},
    }
    path = tmp_path / "turned.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, argv[0], str(path), *argv[1:]) == (
        2, "", "error: order not antisymmetric: 'A' ~ 'B'\n"
    )


def test_build_missing_file(capsys):
    code, _, err = run(capsys, "build", "no_such_model.json")
    assert code == 2
    assert "error" in err


def test_bad_model_kind(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "alien"}))
    code, _, err = run(capsys, "build", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "JSON object"),
        ({"kind": "classical", "observables": {}}, "'points'"),
        ({"kind": "quantum"}, "'observables'"),
        (
            {"kind": "quantum", "observables": {"A": [[[1, 0], [0, 0]], [[0, 0]]]}},
            "not a rectangular matrix",
        ),
        ({"kind": "quantum", "observables": [1]}, "'observables' must be an object"),
        (
            {"kind": "classical", "points": ["a"], "observables": [1]},
            "'observables' must be an object",
        ),
        (
            {"kind": "classical", "points": ["a", "b"], "observables": {"A": [0, 1]}},
            "must map points to values",
        ),
        ({"kind": "quantum", "observables": {"A": [[1, 0], [0, 1]]}}, "[re, im] pairs"),
        ({"kind": "quantum", "observables": {"A": [[[1, 0, 0]]]}}, "[re, im] pairs"),
        ({"kind": "quantum", "observables": {"A": 5}}, "[re, im] pairs"),
        ({"kind": "classical", "points": 5, "observables": {}}, "'points' must be a list"),
        (
            {"kind": "classical", "points": ["a"], "observables": {"A": {"a": [1]}}},
            "scalar values",
        ),
        (
            {
                "kind": "quantum",
                "observables": {"A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
                "options": {"tau_proj": "x"},
            },
            "'tau_proj' must be a number",
        ),
        (
            {
                "kind": "quantum",
                "observables": {
                    "H": [
                        [[x if i == j else 0.0, 0.0] for j in range(4)]
                        for i, x in enumerate([0.0, 0.8e-6, 1.6e-6, 1.0])
                    ]
                },
            },
            "eigenvalue cluster spreads",
        ),
        # "1" is the trivial context's id, which the meet of the two would overwrite
        (
            {
                "kind": "quantum",
                "observables": {
                    "1": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                    "X": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                },
            },
            "observable name '1' is not an identifier",
        ),
        # "A*B" is the generated id of the join of A and B, a context finer
        # than the observable A*B's
        (
            {
                "kind": "quantum",
                "observables": {
                    name: [[[x if i == j else 0, 0] for j in range(4)] for i, x in enumerate(d)]
                    for name, d in [("A", [0, 0, 1, 1]), ("B", [0, 1, 0, 1]), ("A*B", [0, 0, 0, 1])]
                },
            },
            "observable name 'A*B' is not an identifier",
        ),
    ],
)
def test_malformed_model(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "build", str(path))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", QUBIT, "-f", "M(Sz,{1}) | ~M(Sz,{1})")
    assert code == 0
    assert "Sz" in out


def test_eval_repeated_outcome(capsys):
    code, out, err = run(capsys, "eval", QUBIT, "-f", "M(Sz,{1,1})")
    assert (code, err) == (0, "")
    assert out == run(capsys, "eval", QUBIT, "-f", "M(Sz,{1})")[1]


def test_eval_value_not_in_spectrum(capsys):
    code, _, err = run(capsys, "eval", QUBIT, "-f", "M(Sz,{3})")
    assert code == 2
    assert "not in the spectrum" in err


@pytest.mark.parametrize(
    "op, same", [("&", "M(Sz,{1})"), ("|", "M(Sz,{1})"), ("->", "TOP")],
    ids=["conjunctions", "disjunctions", "implications"],
)
def test_eval_of_a_long_chain(capsys, op, same):
    """A flat chain of 3,000 operands, past the recursion limit as nested
    binary nodes, evaluates as one fold: x & x and x | x are x, and
    x -> x -> x is TOP."""
    code, out, err = run(capsys, "eval", QUBIT, "-f", f" {op} ".join(["M(Sz,{1})"] * 3000))
    assert (code, err) == (0, "")
    assert out == run(capsys, "eval", QUBIT, "-f", same)[1]


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", QUBIT, "-f", "M(Sz,{1}) &")
    assert code == 2
    assert "line 1" in err


def test_names_past_the_locale_encoding(tmp_path):
    """In a process of its own under the C locale, whose stdout writes ASCII:
    `hasse --out` writes the DOT file as UTF-8, as models are read, and
    `build`, whose stdout cannot print the point name, exits 2 with one
    error line and no traceback."""
    model = tmp_path / "omega.json"
    doc = {"kind": "classical", "points": ["\u03c9", "a"], "observables": {"A": {"\u03c9": 0, "a": 1}}}
    model.write_text(json.dumps(doc), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(
        LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(FIXTURES.parent.parent / "src")
    )

    def qlogic(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qlogic.cli", *argv], capture_output=True, env=env, timeout=60
        )

    target = tmp_path / "omega.dot"
    done = qlogic("hasse", str(model), "--out", str(target))
    assert (done.returncode, done.stderr) == (0, b"")
    assert target.read_text(encoding="utf-8") == export_dot(load_model(str(model)).frame)
    assert "\u03c9" in target.read_text(encoding="utf-8")
    done = qlogic("build", str(model))
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1
    assert b"\\u03c9" in done.stderr


def test_hasse_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "hasse", FIG1)
    assert code == 0
    assert out.startswith("digraph")
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "hasse", FIG1, "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_check_exhaustive_one_qubit(capsys):
    code, out, _ = run(capsys, "check", QUBIT, "--exhaustive")
    assert code == 0
    assert "adjunction: 4913/4913" in out
    assert "all checks passed" in out


def test_check_crossing(capsys):
    code, out, _ = run(capsys, "check", CROSS)
    assert code == 0
    assert "sections: 48" in out
    assert "all checks passed" in out


def test_check_over_guard(capsys, monkeypatch):
    monkeypatch.setenv("QLOGIC_ENUM_GUARD", "3")
    code, _, err = run(capsys, "check", QUBIT)
    assert code == 2
    assert "exceeds guard 3" in err


def test_quotient_over_guard(capsys, monkeypatch):
    # the coarse quotient lists 2^|atoms| elements: 4 at Sz, over a guard of 3
    monkeypatch.setenv("QLOGIC_ENUM_GUARD", "3")
    assert run(capsys, "quotient", QUBIT, "--context", "Sz") == (
        2, "", "error: enumeration bound 2^2 exceeds guard 3\n"
    )


def test_check_figure1(capsys):
    code, out, _ = run(capsys, "check", FIG1, "--exhaustive")
    assert code == 0
    assert "adjunction: 125/125" in out


def test_quotient_coarse(capsys):
    code, out, _ = run(capsys, "quotient", QUBIT, "--context", "Sz")
    assert code == 0
    assert "4 elements" in out


def test_quotient_refined(capsys, monkeypatch):
    calls = []
    upsets = Frame._upsets
    monkeypatch.setattr(Frame, "_upsets", lambda self: calls.append(self) or upsets(self))
    code, out, _ = run(capsys, "quotient", QUBIT, "--context", "Sz", "--refined")
    assert code == 0
    assert "sections: 4, decidable: 4" in out
    assert len(calls) == 1  # one enumeration lists the sections and the decidables


def test_quotient_refined_guard_fires_before_any_poset_work(capsys, monkeypatch):
    """At classical8's least context the refined frame's bound, 2^999, is
    read from the model's own poset: no second ContextPoset is built, and
    the point table is not read."""
    path = str(GOLDEN / "classical8_seed0.json")
    least = load_model(path).poset.least
    built = []
    init = ContextPoset.__init__
    monkeypatch.setattr(
        ContextPoset, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k)
    )
    assert run(capsys, "quotient", path, "--context", least, "--refined") == (
        2, "", "error: enumeration bound 2^999 exceeds guard 1000000\n"
    )
    assert len(built) == 1 and "point_table" not in vars(built[0])


def refined_transcript(capsys, path) -> str:
    """`quotient --refined` at each context of the model, in context order:
    per context the command, its stdout, its stderr and its exit code."""
    blocks = []
    for c in load_model(str(path)).poset.context_ids:
        code, out, err = run(capsys, "quotient", str(path), "--context", c, "--refined")
        blocks.append(f"$ quotient {path.name} --context {c} --refined\n{out}{err}exit {code}\n")
    return "".join(blocks)


@pytest.mark.parametrize(
    "path",
    [FIXTURES / f"{n}.json" for n in ("one_qubit", "crossing", "figure1")]
    + [GOLDEN / f"{n}.json" for n in ("classical2_enum_seed0", "xz3_seed0")],
    ids=lambda path: path.stem,
)
def test_quotient_refined_matches_golden(capsys, path):
    """The refined quotient at every context, sections, decidables and
    guard refusals alike, printed byte for byte as in tests/golden."""
    want = (GOLDEN / f"{path.stem}.refined.txt").read_text()
    assert refined_transcript(capsys, path) == want


def test_decidable(capsys):
    code, out, _ = run(capsys, "decidable", QUBIT)
    assert code == 0
    assert "decidable sections: 2" in out


def test_decidable_past_the_enumeration_guard(capsys):
    # 125 points, so 2^125 up-sets to enumerate, but one component
    assert run(capsys, "decidable", str(GOLDEN / "xz3_seed0.json")) == (
        0, "decidable sections: 2\n  BOT\n  TOP\n", ""
    )


def test_bell_default(capsys):
    """The default angles' four terms and verdict, the maximally mixed
    state's, and the ranks of Popper's witness, byte for byte as in
    tests/golden."""
    code, out, err = run(capsys, "bell")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "bell.txt").read_text()
    assert "VIOLATED" in out and "0.100480947" in out


def test_bell_vertices(capsys):
    code, out, err = run(capsys, "bell", "--vertices")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "bell.vertices.txt").read_text()
    assert out.startswith("classical vertices: 16/16 satisfy the inequality (min slack 0)\n")


def test_bell_sweep_csv(capsys):
    code, out, err = run(capsys, "bell", "--sweep", "3")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "bell.sweep3.txt").read_text()
    lines = out.strip().splitlines()
    assert lines[0] == "theta,lhs,rhs,violated"
    assert len(lines) == 5
    assert all(line.count(",") == 3 for line in lines[1:])


@pytest.mark.parametrize("n", ["0", "-3"])
def test_bell_sweep_rejects_non_positive(capsys, n):
    code, out, err = run(capsys, "bell", "--sweep", n)
    assert code == 2
    assert out == ""
    assert err == f"error: --sweep needs N >= 1, got {n}\n"


def test_bell_bad_angles(capsys):
    code, _, err = run(capsys, "bell", "--angles", "1,2")
    assert code == 2


def test_bridge(capsys):
    for model in (FIG1, CROSS):
        code, out, _ = run(capsys, "bridge", model)
        assert code == 0
        assert "order isomorphism verified" in out


def test_bridge_rejects_quantum(capsys):
    code, _, err = run(capsys, "bridge", QUBIT)
    assert code == 2


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 2


def test_parser_reused_across_calls(capsys, monkeypatch):
    # main keeps one parser per process; a failed parse must not taint it,
    # and a handler replaced on the module after the first call still runs
    first = run(capsys, "quotient", QUBIT, "--context", "Sz", "--refined")
    assert run(capsys, "quotient", QUBIT, "--refined")[0] == 2
    assert run(capsys, "quotient", QUBIT, "--context", "Sz", "--refined") == first
    assert first[0] == 0
    calls = []
    handler = cli.cmd_quotient
    monkeypatch.setattr(cli, "cmd_quotient", lambda args: calls.append(args) or handler(args))
    assert run(capsys, "quotient", QUBIT, "--context", "Sz", "--refined") == first
    assert len(calls) == 1


QUBIT_TEXT = (FIXTURES / "one_qubit.json").read_bytes()
# a one-qubit model whose Sz has the first entry %s
NON_FINITE_TEXT = QUBIT_TEXT.replace(b'"Sz": [[[1, 0]', b'"Sz": [[[%s, 0]')


def quantum_doc(rows: list) -> dict:
    """A quantum model document of the one real observable A with these rows."""
    return {"kind": "quantum", "observables": {"A": [[[x, 0] for x in row] for row in rows]}}


def _model_file(tmp_path, content: bytes) -> str:
    path = tmp_path / "model.json"
    path.write_bytes(content)
    return str(path)


# argv per case, given a scratch directory
MALFORMED = {
    "missing file": lambda tmp: ["build", "no_such_model.json"],
    "directory as model": lambda tmp: ["build", str(tmp)],
    "model not utf-8": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "classical", "points": ["\xe9"], "observables": {}}')
    ],
    "model not json": lambda tmp: ["build", _model_file(tmp, b"{")],
    "model kind unknown": lambda tmp: ["build", _model_file(tmp, b'{"kind": "alien"}')],
    "hasse out is a directory": lambda tmp: ["hasse", FIG1, "--out", str(tmp)],
    "quantum outcome not a number": lambda tmp: ["eval", QUBIT, "-f", "M(Sz,{up})"],
    "unknown quantum observable": lambda tmp: ["eval", QUBIT, "-f", "M(Foo,{x})"],
    "unknown classical observable": lambda tmp: ["eval", FIG1, "-f", "M(Foo,{x})"],
    "classical value not in range": lambda tmp: ["eval", FIG1, "-f", "M(A,{x})"],
    "value not in spectrum": lambda tmp: ["eval", QUBIT, "-f", "M(Sz,{3})"],
    "formula parse error": lambda tmp: ["eval", QUBIT, "-f", "M(Sz,{1}) &"],
    "formula nested too deeply": lambda tmp: ["eval", QUBIT, "-f", "(" * 300 + "TOP" + ")" * 300],
    "unknown context": lambda tmp: ["quotient", FIG1, "--context", "nope"],
    "unknown refined context": lambda tmp: ["quotient", QUBIT, "--context", "nope", "--refined"],
    "angles not numbers": lambda tmp: ["bell", "--angles", "1,2,x,4"],
    "too few angles": lambda tmp: ["bell", "--angles", "1,2"],
    "angles empty": lambda tmp: ["bell", "--angles", ""],
    "angle NaN": lambda tmp: ["bell", "--angles", "nan,0,90,45"],
    "angle infinite": lambda tmp: ["bell", "--angles", "inf,0,90,45"],
    "sweep not positive": lambda tmp: ["bell", "--sweep", "0"],
    "sweep with angles": lambda tmp: ["bell", "--sweep", "3", "--angles", "0,45,22.5,67.5"],
    "bridge on quantum": lambda tmp: ["bridge", QUBIT],
    "duplicate point": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "classical", "points": ["a", "a", "b"], "observables": {}}')
    ],
    "point a list": lambda tmp: [
        "build",
        _model_file(
            tmp,
            b'{"kind": "classical", "points": [[[]], null, true],'
            b' "observables": {"A": {"[[]]": 1, "None": 2, "True": 1}}}',
        ),
    ],
    "point an object": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "classical", "points": ["a", {"b": 1}], "observables": {}}')
    ],
    # deep, yet within the JSON decoder's recursion limit under the test runner's own stack
    "point nested deep": lambda tmp: [
        "build",
        _model_file(
            tmp, b'{"kind": "classical", "points": [%s], "observables": {}}' % (b"[" * 500 + b"]" * 500)
        ),
    ],
    "duplicate point after str()": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "classical", "points": [1, "1"], "observables": {}}')
    ],
    "ambiguous outcome token": lambda tmp: [
        "eval",
        _model_file(
            tmp, b'{"kind": "classical", "points": ["a", "b"], "observables": {"A": {"a": 0, "b": "0"}}}'
        ),
        "-f",
        "M(A,{0})",
    ],
    "unknown top-level key": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "classical", "points": ["a"], "observables": {}, "note": 1}')
    ],
    "dim in a classical model": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "classical", "points": ["a"], "observables": {}, "dim": 1}')
    ],
    "points in a quantum model": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "quantum", "points": ["a"], "observables": {"A": [[[1, 0]]]}}')
    ],
    "dim not the matrix size": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "quantum", "dim": 3, "observables": {"A": [[[1, 0]]]}}')
    ],
    "dim not an integer": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "quantum", "dim": "1", "observables": {"A": [[[1, 0]]]}}')
    ],
    "unknown option": lambda tmp: [
        "build",
        _model_file(
            tmp, b'{"kind": "quantum", "observables": {"A": [[[1, 0]]]}, "options": {"tau": 1e-3}}'
        ),
    ],
    "tolerance NaN": lambda tmp: [
        "build", _model_file(tmp, QUBIT_TEXT.replace(b'"dim"', b'"options": {"tau_eig": NaN}, "dim"'))
    ],
    "tolerance infinite": lambda tmp: [
        "build", _model_file(tmp, QUBIT_TEXT.replace(b'"dim"', b'"options": {"tau_herm": Infinity}, "dim"'))
    ],
    "tolerance negative": lambda tmp: [
        "build", _model_file(tmp, QUBIT_TEXT.replace(b'"dim"', b'"options": {"tau_proj": -1}, "dim"'))
    ],
    "matrix entry infinite": lambda tmp: ["build", _model_file(tmp, NON_FINITE_TEXT % b"Infinity")],
    "matrix entry NaN": lambda tmp: ["build", _model_file(tmp, NON_FINITE_TEXT % b"NaN")],
    "eigenvalues past the float range": lambda tmp: [
        "build",
        _model_file(tmp, json.dumps(quantum_doc([[1e308, 0, 0], [0, 1e308, 0], [0, 0, -1e308]])).encode()),
    ],
    # every entry is finite, but the spectrum is {0, 3.4e308}
    "eigenvalue past the float range": lambda tmp: [
        "build", _model_file(tmp, json.dumps(quantum_doc([[1.7e308] * 2] * 2)).encode())
    ],
    # every entry is finite, but A - A^dagger overflows to inf
    "Hermitian difference past the float range": lambda tmp: [
        "build",
        _model_file(
            tmp, b'{"kind":"quantum","observables":{"A":[[[0,0],[1.7e308,0]],[[-1.7e308,0],[0,0]]]}}'
        ),
    ],
    # rectangular, so load_model hands it on, and QuantumModel refuses its shape
    "matrix not square": lambda tmp: [
        "build",
        _model_file(tmp, b'{"kind":"quantum","observables":{"A":[[[1,0],[0,0],[0,0]],[[0,0],[1,0],[0,0]]]}}'),
    ],
    # the parser's recursion limit, on every Python: a classical value of nested lists
    "model nested too deeply": lambda tmp: [
        "build",
        _model_file(
            tmp, b'{"kind": "classical", "points": ["a"], "observables": {"A": {"a": %s}}}'
            % (b"[" * 100_000 + b"]" * 100_000),
        ),
    ],
    # int()'s digit limit; its wording varies across Python releases
    "integer past the digit limit": lambda tmp: [
        "build",
        _model_file(
            tmp, b'{"kind": "classical", "points": ["a"], "observables": {"A": {"a": %s}}}' % (b"1" * 5000)
        ),
    ],
    "matrix entry past the float range": lambda tmp: [
        "build", _model_file(tmp, NON_FINITE_TEXT % (b"1" + b"0" * 400))
    ],
    "tolerance past the float range": lambda tmp: [
        "build",
        _model_file(tmp, QUBIT_TEXT.replace(b'"dim"', b'"options": {"tau_proj": 1%s}, "dim"' % (b"0" * 400))),
    ],
    "eigenvalue tolerance past the float range": lambda tmp: [
        "build",
        _model_file(tmp, QUBIT_TEXT.replace(b'"dim"', b'"options": {"tau_eig": -1%s}, "dim"' % (b"0" * 400))),
    ],
    "enumeration guard not an integer": lambda tmp: ["decidable", QUBIT],
    "lone surrogate in a name": lambda tmp: [
        "build",
        _model_file(tmp, b'{"kind": "classical", "points": ["\\ud800"], "observables": {"A": {"\\ud800": 0}}}'),
    ],
    # {"a,b", "c"} and {"a", "b,c"} would both have the id {a,b,c}
    "point name spells a cell id": lambda tmp: [
        "build",
        _model_file(
            tmp,
            b'{"kind": "classical", "points": ["a", "a,b", "b,c", "c"],'
            b' "observables": {"A": {"a,b": 0, "c": 0, "a": 1, "b,c": 1}}}',
        ),
    ],
}
# the message a case's error line must carry
MALFORMED_MESSAGES = {
    "unknown top-level key": "error: unknown key 'note'; a classical model takes kind, points, observables",
    "dim in a classical model": "error: 'dim' applies to quantum models only",
    "points in a quantum model": "error: 'points' applies to classical models only",
    "dim not the matrix size": "error: observable 'A' is 1x1, but 'dim' is 3",
    "dim not an integer": "error: 'dim' must be an integer, got '1'",
    "unknown option": "error: unknown option 'tau'; options are tau_herm, tau_proj, tau_eig",
    "tolerance NaN": "error: option 'tau_eig' must be finite and at least 0, got nan",
    "tolerance infinite": "error: option 'tau_herm' must be finite and at least 0, got inf",
    "tolerance negative": "error: option 'tau_proj' must be finite and at least 0, got -1",
    "matrix entry infinite": "error: observable 'Sz' has a non-finite entry",
    "matrix entry NaN": "error: observable 'Sz' has a non-finite entry",
    "eigenvalues past the float range": (
        "error: eigenvalue -1e+308 exceeds max_float / (2 dim) = 3e+307 in magnitude"
    ),
    "eigenvalue past the float range": (
        "error: eigenvalue inf exceeds max_float / (2 dim) = 4.49e+307 in magnitude"
    ),
    "Hermitian difference past the float range": "error: matrix is not Hermitian within tolerance",
    "matrix entry past the float range": "error: observable 'Sz' has an entry past the float range",
    "matrix not square": "error: observable 'A' must be a non-empty square matrix, got shape (2, 3)",
    "tolerance past the float range": "error: option 'tau_proj' is past the float range",
    "eigenvalue tolerance past the float range": "error: option 'tau_eig' is past the float range",
    "sweep with angles": "error: --sweep takes no --angles: it sweeps theta * (0, 2, 3, 1)",
    "angles empty": "error: --angles needs four comma-separated degrees",
    "angle NaN": "error: angle must be finite, got nan",
    "angle infinite": "error: angle must be finite, got inf",
    "lone surrogate in a name": "error: model text '\\ud800' holds a lone surrogate",
    "enumeration guard not an integer": "error: QLOGIC_ENUM_GUARD must be an integer, got 'abc'",
    "point a list": "error: 'points' must be a list of scalar point names",
    "point an object": "error: 'points' must be a list of scalar point names",
    "point nested deep": "error: 'points' must be a list of scalar point names",
    "point name spells a cell id": (
        "error: point 'a,b': a point name may not hold ',', '{', '}' or '/', which spell cell ids"
    ),
}
# the environment a case runs in
MALFORMED_ENV = {"enumeration guard not an integer": {"QLOGIC_ENUM_GUARD": "abc"}}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_invocation(tmp_path, capsys, monkeypatch, case):
    for name, value in MALFORMED_ENV.get(case, {}).items():
        monkeypatch.setenv(name, value)
    code, _, err = run(capsys, *MALFORMED[case](tmp_path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if case.startswith("duplicate point"):
        assert err.startswith("error: duplicate point ")
    if case in MALFORMED_MESSAGES:
        assert err == MALFORMED_MESSAGES[case] + "\n"


@pytest.mark.parametrize("value", [b"Infinity", b"NaN"])
def test_non_finite_matrix_entry_prints_one_error_line(tmp_path, value):
    """In a process of its own, whose stderr holds any numpy warning too: a
    non-finite entry is refused where the matrix enters, before any numpy
    arithmetic on it."""
    path = _model_file(tmp_path, NON_FINITE_TEXT % value)
    src = str(FIXTURES.parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-m", "qlogic.cli", "build", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert run.returncode == 2
    assert run.stderr.splitlines() == [MALFORMED_MESSAGES["matrix entry infinite"]]


# -- the loader under generated documents -------------------------------------------

JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**30, -(10**30), ""])
    | st.text(max_size=3)
    | st.sampled_from(["\ud800", "a\udfff"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# past any recursion limit, and deeper than json.dumps can write
DEEP = 100_000


@st.composite
def hermitian(draw, k: int) -> list:
    """A k x k Hermitian matrix of small integers, as rows of [re, im] pairs."""
    m = [[0j] * k for _ in range(k)]
    for i in range(k):
        m[i][i] = complex(draw(st.integers(-2, 2)))
        for j in range(i + 1, k):
            m[i][j] = complex(draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
            m[j][i] = m[i][j].conjugate()
    return [[[z.real, z.imag] for z in row] for row in m]


@st.composite
def model_documents(draw):
    """A small well-formed classical or quantum model, then, half the time,
    one entry anywhere in it replaced by junk (a point, an outcome, a matrix
    entry, a tolerance, a whole field...), deleted or duplicated, or plain
    junk one time in eight."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JUNK)
    # a JSON escape such as \ud800 spells a lone surrogate, which no output encodes
    names = st.lists(st.sampled_from(["A", "B", "C", "\udfff"]), min_size=1, max_size=3, unique=True)
    if draw(st.booleans()):
        points = draw(
            st.lists(st.sampled_from(["a", "b", "c", "d", "\ud800"]), min_size=1, max_size=4, unique=True)
        )
        doc = {
            "kind": "classical",
            "points": points,
            "observables": {
                name: {p: draw(st.integers(0, 2)) for p in points} for name in draw(names)
            },
        }
    else:
        k = draw(st.integers(1, 3))
        doc = {"kind": "quantum", "observables": {name: draw(hermitian(k)) for name in draw(names)}}
        if draw(st.booleans()):
            option = st.sampled_from(["tau_herm", "tau_proj", "tau_eig"])
            tau = st.sampled_from([0, 1e-12, 1e-8, 1e-3, 0.5, 10.0, -1e-8, math.nan, math.inf])
            doc["options"] = draw(st.dictionaries(option, tau, max_size=3))
        if draw(st.booleans()):
            doc["dim"] = k
    if draw(st.booleans()):
        keys = st.sampled_from(["kind", "points", "observables", "options", "dim", "x", "a", "tau"])
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            edit = draw(st.sampled_from(["replace", "delete", "duplicate"]))
            if edit == "delete":
                del node[key]
            elif isinstance(node, list) and edit == "duplicate":
                node.insert(key, child)
            else:
                if isinstance(node, dict) and draw(st.booleans()):
                    key = draw(keys)
                node[key] = child if edit == "duplicate" else draw(JUNK)
            break
    return doc


@st.composite
def model_texts(draw):
    """A generated document (see model_documents) as JSON text, one time in
    eight nested DEEP lists down."""
    text = json.dumps(draw(model_documents()))
    if draw(st.integers(0, 7)) == 0:
        text = "[" * DEEP + text + "]" * DEEP
    return text


# every command that loads a model, and eval on an atom of the observables drawn
LOADING = [
    ["build"], ["check"], ["decidable"], ["hasse"], ["bridge"], ["eval", "-f=M(A,{0}) | ~TOP"]
]


def check_one_error_line(code: int, err: str):
    """Exit 0, 1 or 2, never a traceback, and exit 2 as one error line."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=model_texts())
def test_build_on_generated_documents_never_raises(tmp_path, capsys, monkeypatch, text):
    """Every command that loads a model, on every document, under a small
    enumeration guard: exit 0, 1 or 2, output that a UTF-8 stream can
    write, and an error as one line."""
    monkeypatch.setenv("QLOGIC_ENUM_GUARD", "1024")
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    for command in LOADING:
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        out.encode("utf-8"), err.encode("utf-8")
        check_one_error_line(code, err)


@st.composite
def mutated_formulas(draw):
    """A formula of ERROR_FORMULAS after up to three edits, each a character
    or token inserted or put in place of a character, a character deleted,
    or a slice repeated up to 300 times."""
    text = draw(st.sampled_from(ERROR_FORMULAS))
    chars = st.sampled_from(list("()~&|->{},.@ \n\u00a0\x1c\u00e9M01AS") + ["TOP", "BOT", "Sz"])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "repeat"]))
        if edit == "repeat":
            end = draw(st.integers(at, len(text)))
            text = text[:at] + text[at:end] * draw(st.integers(2, 300)) + text[end:]
        else:
            cut = at + (edit != "insert")
            text = text[:at] + ("" if edit == "delete" else draw(chars)) + text[cut:]
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(formula=mutated_formulas())
def test_eval_on_mutated_formulas_never_raises(capsys, formula):
    """Passed as -f=TEXT, so that a formula starting with '-' reaches the
    formula parser, not argparse's usage error."""
    for model in (QUBIT, FIG1):
        code, _, err = run(capsys, "eval", model, f"-f={formula}")
        check_one_error_line(code, err)
