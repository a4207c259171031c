"""`qlogic check` on masks: pinned output, injected faults, oracles.

The law suites run on the int masks of one enumeration
(`Frame.check_laws`), once per distinct (U1 \\ U2, U1 -> U2).  The oracles
below are the per-pair mask loop and the Section-level loops the command
used to run; they must count the same, also when a fault is injected into
the frame.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from qlogic.cli import main
from qlogic.sections import Frame, LawCounts, _join_witnesses

from conftest import FIXTURES, GOLDEN
from test_classical import _model
from test_frame_oracle import qubit_axes_model

HEAD = "poset invariants: ok\n"
PASSED = "all checks passed\n"
LAWS = {
    "figure1": "sections: 5\nmonotonicity: 5/5\nimplies vs brute force: 25/25\n"
    "adjunction: 125/125\n",
    "crossing": "sections: 48\nmonotonicity: 48/48\nimplies vs brute force: 2304/2304\n"
    "adjunction: 110592/110592\n",
    "one_qubit": "sections: 17\nmonotonicity: 17/17\nimplies vs brute force: 289/289\n"
    "adjunction: 4913/4913\n",
}
MODELS = {"figure1": "figure1_model", "crossing": "crossing_model", "one_qubit": "one_qubit_model"}


def check(capsys, name, *flags, where=FIXTURES):
    code = main(["check", str(where / f"{name}.json"), *flags])
    out = capsys.readouterr().out
    return code, out


def counts(out: str) -> dict:
    """suite -> (passed, total) from the `name: k/n` lines."""
    pairs = (line.rsplit(": ", 1) for line in out.splitlines() if ": " in line)
    return {
        k: tuple(map(int, v.split("/"))) for k, v in pairs if "/" in v
    }


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("exhaustive", [False, True])
def test_check_stdout_pinned(capsys, name, exhaustive):
    flags = ["--exhaustive"] if exhaustive else []
    code, out = check(capsys, name, *flags)
    assert code == 0
    dist = "distributivity: ok\n" if exhaustive else ""
    assert out == HEAD + LAWS[name] + dist + PASSED


def drop_top(mask: int) -> int:
    """The mask without its highest point."""
    return mask & ~(1 << mask.bit_length() - 1) if mask else mask


def drop_a_point(original):
    def _implies(self, u, v):
        return drop_top(original(self, u, v))

    return _implies


def drop_a_point_on_odd_u1(original):
    """A fault that reads U1 beyond U1 \\ U2: the point is dropped only when
    U1 holds point 0, so pairs with one difference get different answers."""

    def _implies(self, u, v):
        imp = original(self, u, v)
        return drop_top(imp) if u & 1 else imp

    return _implies


FAULTS = {"drop_a_point": drop_a_point, "drop_a_point_on_odd_u1": drop_a_point_on_odd_u1}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_check_catches_a_dropped_implies_point(capsys, monkeypatch, name):
    monkeypatch.setattr(Frame, "_implies", drop_a_point(Frame._implies))
    code, out = check(capsys, name)
    assert code == 1
    got = counts(out)
    for suite in ("implies vs brute force", "adjunction"):
        passed, total = got[suite]
        assert passed < total
    assert got["monotonicity"][0] == got["monotonicity"][1]
    assert out.splitlines()[-1].startswith("FAILED (")


# a mask that becomes the top stays monotone: only the round trip sees it
@pytest.mark.parametrize("method", ["_mask", "_section"])
@pytest.mark.parametrize("fault", ["drops a point", "becomes the top"])
def test_check_catches_a_broken_round_trip(capsys, monkeypatch, method, fault):
    original = getattr(Frame, method)

    def corrupt(self, m):
        return drop_top(m) if fault == "drops a point" else self.poset.point_table.top

    if method == "_mask":

        def broken(self, s):
            return corrupt(self, original(self, s))

    else:

        def broken(self, m):
            return original(self, corrupt(self, m))

    monkeypatch.setattr(Frame, method, broken)
    code, out = check(capsys, "one_qubit")
    assert code == 1
    passed, total = counts(out)["monotonicity"]
    assert passed < total


@pytest.mark.parametrize("name", ["crossing", "one_qubit", "classical2_enum_seed0"])
def test_check_exhaustive_matches_golden(capsys, name):
    """Stdout pinned byte for byte, captured before the suites were keyed by
    (U1 \\ U2, U1 -> U2); classical2_enum_seed0 is a 93-section classical
    model that a seeded benchmark draw produces."""
    where = FIXTURES if (FIXTURES / f"{name}.json").exists() else GOLDEN
    code, out = check(capsys, name, "--exhaustive", where=where)
    assert code == 0
    assert out == (GOLDEN / f"{name}.check.txt").read_text()


@pytest.mark.parametrize("flags", [[], ["--exhaustive"]])
def test_check_enumerates_once(capsys, monkeypatch, flags):
    calls = []
    upsets = Frame._upsets
    monkeypatch.setattr(Frame, "_upsets", lambda self: calls.append(self) or upsets(self))
    code, _ = check(capsys, "crossing", *flags)
    assert code == 0
    assert len(calls) == 1


# -- the per-pair loop and the Section-level loops, as oracles ---------------------


def pairwise_laws(frame, exhaustive: bool = False) -> LawCounts:
    """The law suites with every pair (U1, U2) worked out on its own: the
    witness join and the n-term adjunction count are redone for each pair."""
    ups = frame._upsets()
    sections = [frame._section(m) for m in ups]
    monotone = sum(
        frame._mask(s) == m and frame.is_monotone(s) for m, s in zip(ups, sections)
    )
    implies_ok = adjunction_ok = 0
    for u1 in ups:
        for u2 in ups:
            bad = u1 & ~u2
            imp = frame._implies(u1, u2)
            implies_ok += imp == _join_witnesses(ups, bad)
            adjunction_ok += sum((not u & ~imp) == (not u & bad) for u in ups)
    distributive = None
    if exhaustive:
        enumerated = dict(zip(ups, sections))
        distributive = sum(
            frame.meet([s1, s2]) == enumerated.get(u1 & u2)
            and frame.join([s1, s2]) == enumerated.get(u1 | u2)
            for u1, s1 in zip(ups, sections)
            for u2, s2 in zip(ups, sections)
        )
    return LawCounts(len(ups), monotone, implies_ok, adjunction_ok, distributive)


def laws_with_implies_memoised(frame) -> tuple[int, int]:
    """(implies, adjunction) passing counts with U1 -> U2 looked up by
    U1 \\ U2 alone: right for a correct frame, wrong for a fault that reads
    more of U1."""
    ups = frame._upsets()
    imps = {}
    implies_ok = adjunction_ok = 0
    for u1 in ups:
        for u2 in ups:
            bad = u1 & ~u2
            imp = imps.setdefault(bad, frame._implies(u1, u2))
            implies_ok += imp == _join_witnesses(ups, bad)
            adjunction_ok += sum((not u & ~imp) == (not u & bad) for u in ups)
    return implies_ok, adjunction_ok


@pytest.mark.parametrize("name", sorted(LAWS))
def test_check_laws_matches_pairwise_loop(request, name):
    frame = request.getfixturevalue(MODELS[name]).frame
    laws = frame.check_laws(exhaustive=True)
    assert laws == pairwise_laws(frame, exhaustive=True)
    assert laws[2:4] == laws_with_implies_memoised(frame)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", sorted(LAWS))
def test_check_laws_matches_pairwise_loop_on_a_fault(request, monkeypatch, name, fault):
    frame = request.getfixturevalue(MODELS[name]).frame
    monkeypatch.setattr(Frame, "_implies", FAULTS[fault](Frame._implies))
    laws = frame.check_laws(exhaustive=True)
    assert laws == pairwise_laws(frame, exhaustive=True)
    assert laws.implies < laws.sections**2 and laws.adjunction < laws.sections**3
    if fault == "drop_a_point_on_odd_u1":
        # keying the suites by U1 \ U2 alone would miss what this fault does
        assert laws[2:4] != laws_with_implies_memoised(frame)


def test_odd_u1_fault_counts_on_crossing(crossing_model, monkeypatch):
    monkeypatch.setattr(Frame, "_implies", drop_a_point_on_odd_u1(Frame._implies))
    laws = crossing_model.frame.check_laws()
    assert (laws.implies, laws.adjunction) == (2257, 110166)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_check_laws_matches_pairwise_loop_on_classical_models(data):
    points = [f"w{i}" for i in range(data.draw(st.integers(1, 5)))]
    rows = st.lists(st.integers(0, 2), min_size=len(points), max_size=len(points))
    observables = data.draw(st.lists(rows, min_size=1, max_size=3))
    frame = _model(points, {f"O{j}": dict(zip(points, row)) for j, row in enumerate(observables)}).frame
    # at most 10 points keeps the n^3 oracle to about 100 sections
    assume(len(frame.poset.point_table.points) <= 10)
    assert frame.check_laws(exhaustive=True) == pairwise_laws(frame, exhaustive=True)


@settings(max_examples=10, deadline=None)
@given(
    axes=st.lists(
        st.tuples(st.integers(0, 180), st.integers(0, 359)), min_size=2, max_size=3
    )
)
def test_check_laws_matches_pairwise_loop_on_qubit_models(axes):
    frame = qubit_axes_model(axes).frame
    assert frame.check_laws(exhaustive=True) == pairwise_laws(frame, exhaustive=True)


def section_adjunction(frame) -> int:
    """Triples (S, S1, S2) with S <= (S1 -> S2) iff S /\\ S1 <= S2."""
    sections = frame.enumerate_sections()
    ok = 0
    for s1 in sections:
        for s2 in sections:
            imp = frame.implies(s1, s2)
            lowered = [frame.meet([s, s1]) for s in sections]
            for s, low in zip(sections, lowered):
                ok += frame.leq(s, imp) == frame.leq(low, s2)
    return ok


def section_distributivity(frame) -> int:
    """Triples with S1 /\\ (S2 \\/ S3) == (S1 /\\ S2) \\/ (S1 /\\ S3)."""
    ss = frame.enumerate_sections()
    return sum(
        frame.meet([a, frame.join([b, c])])
        == frame.join([frame.meet([a, b]), frame.meet([a, c])])
        for a in ss
        for b in ss
        for c in ss
    )


@pytest.mark.parametrize("name", sorted(LAWS))
def test_mask_adjunction_matches_section_loop(request, name):
    frame = request.getfixturevalue(MODELS[name]).frame
    laws = frame.check_laws()
    assert laws.adjunction == section_adjunction(frame) == laws.sections**3


def mask_distributivity(ups) -> int:
    """Triples of up-set masks with U1 & (U2 | U3) == (U1 & U2) | (U1 & U3):
    always all n^3, whatever the frame's meet and join do."""
    return sum(
        u1 & (u2 | u3) == (u1 & u2) | (u1 & u3) for u1 in ups for u2 in ups for u3 in ups
    )


# the Section-level distributivity loop takes about 6 s on crossing's 48^3 triples
@pytest.mark.parametrize("name", ["figure1", "one_qubit"])
def test_mask_distributivity_matches_section_loop(request, name):
    frame = request.getfixturevalue(MODELS[name]).frame
    laws = frame.check_laws(exhaustive=True)
    assert laws.distributive == laws.sections**2
    assert section_distributivity(frame) == laws.sections**3


def drop_a_meet_point(original):
    def meet(self, sections):
        return self._section(drop_top(self._mask(original(self, sections))))

    return meet


@pytest.mark.parametrize("name", ["figure1", "one_qubit"])
def test_distributivity_catches_a_faulty_meet(capsys, request, monkeypatch, name):
    """A meet that drops a point fails the pairwise suite and the
    Section-level loop; the old suite on masks alone passed it."""
    frame = request.getfixturevalue(MODELS[name]).frame
    ups = frame._upsets()
    monkeypatch.setattr(Frame, "meet", drop_a_meet_point(Frame.meet))
    laws = frame.check_laws(exhaustive=True)
    assert laws.distributive < laws.sections**2
    assert section_distributivity(frame) < laws.sections**3
    assert mask_distributivity(ups) == len(ups) ** 3
    code, out = check(capsys, name, "--exhaustive")
    assert code == 1
    assert f"distributivity: {laws.sections**2 - laws.distributive} violations" in out
    assert out.endswith(f"FAILED ({laws.sections**2 - laws.distributive} violations)\n")


@pytest.mark.parametrize("name", ["figure1", "one_qubit"])
def test_mask_adjunction_matches_section_loop_on_a_fault(request, monkeypatch, name):
    frame = request.getfixturevalue(MODELS[name]).frame
    monkeypatch.setattr(Frame, "_implies", drop_a_point(Frame._implies))
    laws = frame.check_laws()
    assert laws.adjunction == section_adjunction(frame) < laws.sections**3
