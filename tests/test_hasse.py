import pytest

from qlogic.cli import load_model, main
from qlogic.hasse import export_dot, hasse_edges, section_label
from qlogic.sections import Frame

from conftest import FIXTURES, GOLDEN

MODELS = [FIXTURES / "crossing.json", FIXTURES / "one_qubit.json",
          GOLDEN / "classical2_enum_seed0.json"]


def test_figure1_hasse_shape(figure1_model):
    frame = figure1_model.frame
    sections = sorted(
        frame.enumerate_sections(),
        key=lambda s: tuple((c, tuple(sorted(v))) for c, v in s.items),
    )
    edges = hasse_edges(frame, sections)
    assert len(sections) == 5
    assert len(edges) == 5
    labels = {i: section_label(frame, s) for i, s in enumerate(sections)}
    named_edges = {(labels[i], labels[j]) for i, j in edges}
    bot, top = "BOT", "TOP"
    m0 = "({w0}/{w1}: {w0})"
    m1 = "({w0}/{w1}: {w1})"
    m01 = "({w0}/{w1}: {w0}|{w1})"
    assert named_edges == {
        (bot, m0),
        (bot, m1),
        (m0, m01),
        (m1, m01),
        (m01, top),
    }


def test_two_element_frame_single_edge():
    from qlogic import ClassicalModel, ClassicalObservable, OutcomeSpace

    omega = OutcomeSpace(frozenset({"w"}))
    model = ClassicalModel(
        omega, {"C": ClassicalObservable.from_dict("C", {"w": 0})}
    )
    dot = export_dot(model.frame)
    assert dot.count(" -> ") == 1


def test_export_dot_deterministic(figure1_model, one_qubit_model):
    for model in (figure1_model, one_qubit_model):
        assert export_dot(model.frame) == export_dot(model.frame)


def test_one_qubit_hasse_counts(one_qubit_model):
    dot = export_dot(one_qubit_model.frame)
    assert dot.count("[label=") == 17


def test_long_labels_truncated(chsh):
    frame = chsh.frame
    top_label = section_label(frame, frame.top())
    assert top_label == "TOP"
    # a section touching many contexts gets a hashed, bounded label
    wide = frame.join(
        [chsh.sections["A1"], chsh.sections["~A2"], chsh.sections["B1"]]
    )
    label = section_label(frame, wide)
    assert len(label) <= 60


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_hasse_matches_golden(capsys, path):
    """`hasse` stdout pinned byte for byte, captured before the export read
    its covers from the enumeration's masks."""
    assert main(["hasse", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.hasse.dot").read_text()


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_hasse_enumerates_once(capsys, monkeypatch, path):
    calls = []
    upsets = Frame._upsets
    monkeypatch.setattr(Frame, "_upsets", lambda self: calls.append(self) or upsets(self))
    assert main(["hasse", str(path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_hasse_edges_match_the_exported_edges(path):
    """The public Section-level covers are the DOT's edges, node for node."""
    frame = load_model(str(path)).frame
    sections = sorted(
        frame.enumerate_sections(),
        key=lambda s: tuple((c, tuple(sorted(v))) for c, v in s.items),
    )
    edges = {line.strip() for line in export_dot(frame).splitlines() if " -> " in line}
    assert {f"n{i} -> n{j};" for i, j in hasse_edges(frame, sections)} == edges
