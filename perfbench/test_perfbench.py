"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import os
import sys
import time
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_readings  # noqa: E402
from worker import Runner, tail  # noqa: E402


def test_generators_are_deterministic_per_seed(tmp_path):
    def draw(seed):
        r = inputs.rng("t", seed, "x")
        g = inputs.np_rng(inputs.rng("t", seed, "u"))
        cdraw, _ = inputs.classical_in_band(r, [7, 8], [4, 5], [2, 3], (20, 40))
        return (
            inputs.pauli_model(2, "XZ", g),
            inputs.chsh_angles(r),
            inputs.qubit_axes_model(3, r),
            cdraw.doc(),
            inputs.formula_text(inputs.random_formula(r, [("A", [0, 1, 2]), ("B", [0, 1])])),
        )

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    for name in ("quantum_build", "frame_enumerate"):
        a, b = tmp_path / f"{name}a", tmp_path / f"{name}b"
        a.mkdir(), b.mkdir()
        plan_a = workloads.WORKLOADS[name](7, str(a))
        plan_b = workloads.WORKLOADS[name](7, str(b))
        assert plan_a.sizes == plan_b.sizes
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for f in os.listdir(a):
            assert (a / f).read_text() == (b / f).read_text()


def test_checker_flags_a_wrong_answer(tmp_path):
    plan = workloads.quantum_build(0, str(tmp_path))
    jobs = {job.kind: job for job in plan.jobs(plan.build())}
    runner = Runner()
    for job in jobs.values():
        runner.run(job)
    assert runner.attempted == len(jobs) and runner.failed == 0

    # the right output with one cover relation dropped, a wrong exit code,
    # CHSH terms for other angles, an exception and an unreadable answer
    rc, out = jobs["build:xz2"].run()
    lines = out.splitlines()
    dropped = "\n".join(x for k, x in enumerate(lines) if k != lines.index("cover relations:") + 1)
    cf, terms = jobs["chsh"].run()
    wrong = [
        workloads.Job("build", lambda: (0, dropped), jobs["build:xz2"].check),
        workloads.Job("build", lambda: (2, out), jobs["build:xz2"].check),
        workloads.Job("chsh", lambda: (cf, terms), lambda r: workloads.chsh_check((0, 45, 90, 30), r)),
        workloads.Job("raises", lambda: 1 / 0, lambda r: None),
        workloads.Job("garbled", lambda: None, jobs["build:xz2"].check),
    ]
    for job in wrong:
        runner.run(job)
    assert runner.failed == len(wrong)
    assert workloads.check_decidable(["decidable sections: 2", "  TOP", "  BOT"]) is None
    assert workloads.check_decidable(["decidable sections: 2", "  TOP", "  TOP"]) is not None


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    for n, percentile in [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                          (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)]:
        value, p, beyond = tail([float(x) for x in range(n)])
        assert p == percentile, n
        assert beyond >= 10
        assert beyond == sum(x > value for x in range(n))
    value, p, beyond = tail([float(x) for x in range(15)])  # too few: the median
    assert (value, p, beyond) == (7.0, 50.0, 7)


def test_tracer_records_absent_targets_and_restores():
    from qlogic import classical

    original = classical.partition_meet
    targets = [
        ("qlogic.poset", "ContextPoset.no_such_method", "span", "x", None),
        ("qlogic.no_such_module", "f", "count", "y", None),
        ("qlogic.classical", "partition_meet", "count", "classical.meet", None),
        # a hook reading something a refactor removed
        ("qlogic.classical", "partition_join", "span", "classical.join",
         lambda tr, args, kwargs, result: result.no_such_attribute),
    ]
    with Tracer(targets) as tr:
        p = frozenset({frozenset({1, 2})})
        classical.partition_meet(p, p)
        assert classical.partition_join(p, p) == p
    assert classical.partition_meet is original
    assert tr.count("classical.meet") == 1
    assert tr.absent == ["qlogic.poset.ContextPoset.no_such_method", "qlogic.no_such_module.f",
                         "classical.join counts"]
    values, absent = layer_readings(tr)
    assert values["classical.meet_calls"] == 1
    assert "quantum.model_s" in absent and "classical.meet_calls" not in absent
    assert set(values) == {name for name, *_ in LAYER_METRICS}


def test_spans_nest_through_recursion():
    mod = types.ModuleType("qlogic._perfbench_fake")

    def leaf():
        time.sleep(0.002)

    def rec(n):
        time.sleep(0.001)
        mod.leaf()
        return rec_global(n - 1) if n else 0

    def rec_global(n):
        return mod.rec(n)

    mod.leaf, mod.rec = leaf, rec
    sys.modules[mod.__name__] = mod
    try:
        targets = [(mod.__name__, "rec", "span", "rec", None),
                   (mod.__name__, "leaf", "span", "leaf", None)]
        with Tracer(targets) as tr:
            mod.rec(3)
    finally:
        del sys.modules[mod.__name__]
    assert tr.count("rec") == 4 and tr.count("leaf") == 4
    # inclusive time is counted once, at the outermost call
    assert abs(tr.incl["rec"] - (tr.self_time["rec"] + tr.incl["leaf"])) < 1e-6
    assert tr.incl["leaf"] >= 4 * 0.002
    assert tr.self_time["rec"] >= 4 * 0.001


def test_reference_matches_closed_forms():
    # crossing fixture: 48 sections; one qubit with two axes: 17 sections
    family = ref.close_family([(0, 0, 1, 1), (0, 1, 0, 1)], 4)
    pp = ref.classical_points(family, 4)
    assert len(pp.upsets()) == 48
    pp = ref.product_points([["X", "Z"]])
    ups = pp.upsets()
    assert len(ups) == ref.one_qubit_frame(2)["sections"]
    assert pp.cover_count(ups) == ref.one_qubit_frame(2)["covers"]
    shape = ref.pauli_shape(3, 2)
    pp = ref.product_points([["X", "Z"]] * 3)
    assert (len(pp.contexts), len(pp.points)) == (shape["contexts"], shape["points"])
