import json

import pytest

from qlogic import cli
from qlogic.cli import load_model, main
from qlogic.sections import Frame

from conftest import FIXTURES, GOLDEN

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
    code, out, _ = run(capsys, "build", QUBIT)
    assert code == 0
    assert "Sz" in out and "Sx" in out


def test_build_xz3_matches_golden(capsys):
    """3-qubit local X/Z observables, each qubit turned by a unitary drawn
    from default_rng(0): 27 contexts, whose ids, atoms, covers and validity
    `build` must print byte for byte as in tests/golden."""
    code, out, err = run(capsys, "build", str(GOLDEN / "xz3_seed0.json"))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "xz3_seed0.build.txt").read_text()


def test_build_classical8_matches_golden(capsys):
    """8 points, five observables of 2-3 values drawn from random.Random(0)
    until the closed family held 201-260 partitions: 230 contexts, whose
    ids, atoms, covers and validity `build` must print byte for byte as in
    tests/golden."""
    code, out, err = run(capsys, "build", str(GOLDEN / "classical8_seed0.json"))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "classical8_seed0.build.txt").read_text()


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


def test_eval_value_not_in_spectrum(capsys):
    code, _, err = run(capsys, "eval", QUBIT, "-f", "M(Sz,{3})")
    assert code == 2
    assert "not in the spectrum" in err


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", QUBIT, "-f", "M(Sz,{1}) &")
    assert code == 2
    assert "line 1" in err


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


def test_decidable(capsys):
    code, out, _ = run(capsys, "decidable", QUBIT)
    assert code == 0
    assert "decidable sections: 2" in out


def test_bell_default(capsys):
    code, out, _ = run(capsys, "bell")
    assert code == 0
    assert "VIOLATED" in out
    assert "0.250000000" in out
    assert "0.100480947" in out
    assert "maximally mixed" in out and "SATISFIED" in out


def test_bell_vertices(capsys):
    code, out, _ = run(capsys, "bell", "--vertices")
    assert code == 0
    assert "16/16" in out


def test_bell_sweep_csv(capsys):
    code, out, _ = run(capsys, "bell", "--sweep", "3")
    assert code == 0
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
    "unknown context": lambda tmp: ["quotient", FIG1, "--context", "nope"],
    "unknown refined context": lambda tmp: ["quotient", QUBIT, "--context", "nope", "--refined"],
    "angles not numbers": lambda tmp: ["bell", "--angles", "1,2,x,4"],
    "too few angles": lambda tmp: ["bell", "--angles", "1,2"],
    "sweep not positive": lambda tmp: ["bell", "--sweep", "0"],
    "bridge on quantum": lambda tmp: ["bridge", QUBIT],
    "duplicate point": lambda tmp: [
        "build", _model_file(tmp, b'{"kind": "classical", "points": ["a", "a", "b"], "observables": {}}')
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_invocation(tmp_path, capsys, case):
    code, _, err = run(capsys, *MALFORMED[case](tmp_path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if case.startswith("duplicate point"):
        assert err.startswith("error: duplicate point ")
