"""Layer timings taken from outside the library.

`Tracer.install()` wraps public entry points of each qlogic module for the
duration of a traced pass and restores them afterwards.  Coarse entry
points get spans: the span's duration is added to the enclosing span's
child time, so a layer's self time is its duration minus its child spans,
and a recursive call counts its inclusive time once, at the outermost
level.  Hot fine-grained calls get a bare counter (`count`), or a counter
plus accumulated time that does not nest (`timer`).

A target that no longer exists (a refactor moved or deleted it) is listed
in `absent`; metrics that depend only on absent targets read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _after_quantum_model(tr, args, kwargs, result):
    model = args[0]
    tr.values["quantum.contexts"] += len(model.poset.context_ids)
    tr.values["quantum.points"] += _points(model.poset)


def _after_classical_model(tr, args, kwargs, result):
    model = args[0]
    tr.values["classical.partitions"] += len(model.poset.context_ids)
    tr.values["classical.points"] += _points(model.poset)


def _after_poset(tr, args, kwargs, result):
    # ContextPoset(contexts, order, embeddings) holds one embedding per
    # strict pair of the order
    poset = args[0]
    embeddings = args[3] if len(args) > 3 else kwargs["embeddings"]
    n = len(poset.context_ids)
    tr.values["poset.contexts"] += n
    tr.values["poset.order_pairs"] += n + len(embeddings)


def _after_enumerate(tr, args, kwargs, result):
    tr.values["sections.enumerated"] += len(result)
    tr.values["sections.bound"] += args[0].enumeration_bound()


def _after_hasse(tr, args, kwargs, result):
    n = len(args[1] if len(args) > 1 else kwargs["sections"])
    tr.values["hasse.pairs"] += n * (n - 1)
    tr.values["hasse.edges"] += len(result)


def _points(poset) -> int:
    return sum(len(poset.algebra(c).atoms) for c in poset.context_ids)


CLI_COMMANDS = ("build", "eval", "hasse", "check", "quotient", "decidable", "bell", "bridge")

# (module, attribute path, kind, key, after-hook)
TARGETS = [
    ("qlogic.quantum", "QuantumModel.__post_init__", "span", "quantum.model", _after_quantum_model),
    ("qlogic.quantum", "QuantumModel._find_equal", "span", "quantum.dedup", None),
    ("qlogic.quantum", "QuantumModel.elementary", "span", "quantum.elementary", None),
    ("qlogic.quantum", "spectral_decompose", "span", "quantum.spectral", None),
    ("qlogic.quantum", "validate_resolution", "span", "quantum.validate_resolution", None),
    ("qlogic.quantum", "contexts_commute", "span", "quantum.commute", None),
    ("qlogic.quantum", "same_atoms", "timer", "quantum.same_atoms", None),
    ("qlogic.classical", "ClassicalModel.__post_init__", "span", "classical.model", _after_classical_model),
    ("qlogic.classical", "close_partition_family", "span", "classical.closure", None),
    ("qlogic.classical", "build_classical_frame", "span", "classical.frame_build", None),
    ("qlogic.classical", "partition_meet", "count", "classical.meet", None),
    ("qlogic.classical", "partition_join", "count", "classical.join", None),
    ("qlogic.classical", "refines", "count", "classical.refines", None),
    ("qlogic.poset", "ContextPoset.__init__", "span", "poset.init", _after_poset),
    ("qlogic.poset", "ContextPoset.validate", "span", "poset.validate", None),
    ("qlogic.poset", "ContextPoset.leq", "count", "poset.leq", None),
    ("qlogic.poset", "ContextPoset.embed", "count", "poset.embed", None),
    ("qlogic.poset", "ContextPoset.upset", "count", "poset.upset", None),
    ("qlogic.sections", "Frame.__init__", "span", "sections.frame_init", None),
    ("qlogic.sections", "Frame.enumerate_sections", "span", "sections.enumerate", _after_enumerate),
    ("qlogic.sections", "Frame.brute_force_implies", "span", "sections.brute_force_implies", None),
    ("qlogic.sections", "Frame.implies", "span", "sections.implies", None),
    ("qlogic.sections", "Frame.meet", "span", "sections.meet", None),
    ("qlogic.sections", "Frame.join", "span", "sections.join", None),
    ("qlogic.sections", "Frame.leq", "count", "sections.leq", None),
    ("qlogic.sections", "Frame.is_monotone", "span", "sections.is_monotone", None),
    ("qlogic.sections", "Frame.decidable_elements", "span", "sections.decidable", None),
    ("qlogic.sections", "Frame.embed_elementary", "span", "sections.embed_elementary", None),
    ("qlogic.hasse", "hasse_edges", "span", "hasse.edges", _after_hasse),
    ("qlogic.hasse", "export_dot", "span", "hasse.export", None),
    ("qlogic.formulas", "parse_formula", "span", "formulas.parse", None),
    ("qlogic.formulas", "eval_formula", "span", "formulas.eval", None),
    ("qlogic.cli", "load_model", "span", "cli.load_model", None),
    *[("qlogic.cli", f"cmd_{c}", "span", "cli.command", None) for c in CLI_COMMANDS],
    ("qlogic.bell", "build_chsh_frame", "span", "bell.chsh_frame", None),
    ("qlogic.bell", "chsh_terms", "span", "bell.chsh_terms", None),
]


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls: dict[str, list] = defaultdict(lambda: [0])
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.timed: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, key, fn, after):
        calls, depth, stack = self.calls[key], self._depth, self._stack
        incl, self_time = self.incl, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            depth[key] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_time[key] += dt - stack.pop()
                depth[key] -= 1
                if not depth[key]:
                    incl[key] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                try:
                    after(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the counts this hook reads moved in a refactor
                    if f"{key} counts" not in self.absent:
                        self.absent.append(f"{key} counts")
            return result

        return wrapper

    def _count(self, key, fn, after):
        calls = self.calls[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timer(self, key, fn, after):
        calls, timed = self.calls[key], self.timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timed[key] += perf_counter() - t0

        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self) -> "Tracer":
        make = {"span": self._span, "count": self._count, "timer": self._timer}
        for module, path, kind, key, after in self.targets:
            label = f"{module}.{path}"
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            self.present.add(key)
            wrapped = make[kind](key, original, after)
            if parents:  # a method: patch the class
                self._patch(owner, attr, wrapped)
                continue
            # a function: patch every qlogic module that bound the same object
            for name, mod in list(sys.modules.items()):
                if name == "qlogic" or name.startswith("qlogic."):
                    for a, v in list(vars(mod).items()):
                        if v is original:
                            self._patch(mod, a, wrapped)
        return self

    def _patch(self, owner, attr, value):
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- readings -----------------------------------------------------------

    def count(self, key: str) -> int:
        return self.calls[key][0] if key in self.calls else 0


# -- per-layer metrics ------------------------------------------------------------

# which end-to-end metric, on which workload, each layer is expected to move
MOVES = {
    "quantum": "job_p50_ms/jobs_per_s on quantum_build; setup_s on formula_eval; no change elsewhere",
    "classical": "job_p50_ms/jobs_per_s on classical_build; setup_s on formula_eval",
    "poset": "classical_build (validate), quantum_build, formula_eval (leq/embed/upset per operation)",
    "sections": "frame_enumerate and formula_eval; frame_init_s also quantum_build and classical_build",
    "hasse": "frame_enumerate",
    "formulas": "formula_eval",
    "cli": "quantum_build, classical_build and frame_enumerate",
    "bell": "quantum_build",
    "host": "none: host speed, the divisor of the *_cal metrics",
    "trace": "none: the cost of this tracing",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# (name, unit, better, tracer keys it reads, value)
LAYER_METRICS = [
    ("quantum.model_s", "s", "lower", ["quantum.model"], lambda t: t.incl["quantum.model"]),
    ("quantum.model_calls", "count", "lower", ["quantum.model"], lambda t: t.count("quantum.model")),
    # QuantumModel minus its spectral, dedup, resolution-check, commute,
    # poset and frame children
    ("quantum.closure_self_s", "s", "lower", ["quantum.model"], lambda t: t.self_time["quantum.model"]),
    ("quantum.spectral_s", "s", "lower", ["quantum.spectral"], lambda t: t.incl["quantum.spectral"]),
    ("quantum.spectral_calls", "count", "lower", ["quantum.spectral"], lambda t: t.count("quantum.spectral")),
    ("quantum.same_atoms_calls", "count", "lower", ["quantum.same_atoms"], lambda t: t.count("quantum.same_atoms")),
    ("quantum.same_atoms_s", "s", "lower", ["quantum.same_atoms"], lambda t: t.timed["quantum.same_atoms"]),
    ("quantum.commute_calls", "count", "lower", ["quantum.commute"], lambda t: t.count("quantum.commute")),
    ("quantum.validate_resolution_s", "s", "lower", ["quantum.validate_resolution"], lambda t: t.incl["quantum.validate_resolution"]),
    ("quantum.elementary_s", "s", "lower", ["quantum.elementary"], lambda t: t.incl["quantum.elementary"]),
    ("quantum.contexts", "count", "lower", ["quantum.model"], lambda t: t.values["quantum.contexts"]),
    ("quantum.points", "count", "lower", ["quantum.model"], lambda t: t.values["quantum.points"]),
    ("classical.model_s", "s", "lower", ["classical.model"], lambda t: t.incl["classical.model"]),
    ("classical.closure_s", "s", "lower", ["classical.closure"], lambda t: t.incl["classical.closure"]),
    ("classical.frame_build_self_s", "s", "lower", ["classical.frame_build"], lambda t: t.self_time["classical.frame_build"]),
    ("classical.meet_calls", "count", "lower", ["classical.meet"], lambda t: t.count("classical.meet")),
    ("classical.join_calls", "count", "lower", ["classical.join"], lambda t: t.count("classical.join")),
    ("classical.refines_calls", "count", "lower", ["classical.refines"], lambda t: t.count("classical.refines")),
    ("classical.partitions", "count", "lower", ["classical.model"], lambda t: t.values["classical.partitions"]),
    ("classical.points", "count", "lower", ["classical.model"], lambda t: t.values["classical.points"]),
    ("poset.init_s", "s", "lower", ["poset.init"], lambda t: t.incl["poset.init"]),
    ("poset.validate_s", "s", "lower", ["poset.validate"], lambda t: t.incl["poset.validate"]),
    ("poset.leq_calls", "count", "lower", ["poset.leq"], lambda t: t.count("poset.leq")),
    ("poset.embed_calls", "count", "lower", ["poset.embed"], lambda t: t.count("poset.embed")),
    ("poset.upset_calls", "count", "lower", ["poset.upset"], lambda t: t.count("poset.upset")),
    ("poset.contexts", "count", "lower", ["poset.init"], lambda t: t.values["poset.contexts"]),
    ("poset.order_pairs", "count", "lower", ["poset.init"], lambda t: t.values["poset.order_pairs"]),
    ("sections.frame_init_s", "s", "lower", ["sections.frame_init"], lambda t: t.incl["sections.frame_init"]),
    ("sections.enumerate_s", "s", "lower", ["sections.enumerate"], lambda t: t.incl["sections.enumerate"]),
    ("sections.enumerated", "count", "lower", ["sections.enumerate"], lambda t: t.values["sections.enumerated"]),
    # sections found / enumeration_bound(): the useful share of the search space
    ("sections.enum_yield", "ratio", "higher", ["sections.enumerate"],
     lambda t: _ratio(t.values["sections.enumerated"], t.values["sections.bound"])),
    ("sections.brute_force_implies_s", "s", "lower", ["sections.brute_force_implies"], lambda t: t.incl["sections.brute_force_implies"]),
    ("sections.implies_s", "s", "lower", ["sections.implies"], lambda t: t.incl["sections.implies"]),
    ("sections.implies_calls", "count", "lower", ["sections.implies"], lambda t: t.count("sections.implies")),
    ("sections.meet_join_s", "s", "lower", ["sections.meet", "sections.join"],
     lambda t: t.incl["sections.meet"] + t.incl["sections.join"]),
    ("sections.leq_calls", "count", "lower", ["sections.leq"], lambda t: t.count("sections.leq")),
    ("sections.is_monotone_s", "s", "lower", ["sections.is_monotone"], lambda t: t.incl["sections.is_monotone"]),
    ("sections.decidable_s", "s", "lower", ["sections.decidable"], lambda t: t.incl["sections.decidable"]),
    ("sections.embed_elementary_s", "s", "lower", ["sections.embed_elementary"], lambda t: t.incl["sections.embed_elementary"]),
    ("hasse.edges_s", "s", "lower", ["hasse.edges"], lambda t: t.incl["hasse.edges"]),
    ("hasse.export_self_s", "s", "lower", ["hasse.export"], lambda t: t.self_time["hasse.export"]),
    ("hasse.pairs", "count", "lower", ["hasse.edges"], lambda t: t.values["hasse.pairs"]),
    ("hasse.edges", "count", "lower", ["hasse.edges"], lambda t: t.values["hasse.edges"]),
    ("formulas.parse_s", "s", "lower", ["formulas.parse"], lambda t: t.incl["formulas.parse"]),
    ("formulas.eval_self_s", "s", "lower", ["formulas.eval"], lambda t: t.self_time["formulas.eval"]),
    ("formulas.nodes", "count", "lower", ["formulas.eval"], lambda t: t.count("formulas.eval")),
    ("cli.load_model_self_s", "s", "lower", ["cli.load_model"], lambda t: t.self_time["cli.load_model"]),
    ("cli.command_self_s", "s", "lower", ["cli.command"], lambda t: t.self_time["cli.command"]),
    ("cli.stdout_bytes", "bytes", "lower", [], lambda t: t.values["cli.stdout_bytes"]),
    ("bell.chsh_frame_s", "s", "lower", ["bell.chsh_frame"], lambda t: t.incl["bell.chsh_frame"]),
    ("bell.chsh_terms_s", "s", "lower", ["bell.chsh_terms"], lambda t: t.incl["bell.chsh_terms"]),
]


def layer_readings(tr: Tracer) -> tuple[dict[str, float], list[str]]:
    """Every traced per-layer metric, and the names of those whose targets
    are all absent (they read 0)."""
    values, absent = {}, []
    for name, _, _, keys, value in LAYER_METRICS:
        if keys and not any(k in tr.present for k in keys):
            absent.append(name)
            values[name] = 0
        else:
            values[name] = value(tr)
    return values, absent


def per_layer_units() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, including the two the worker
    measures itself."""
    return [(name, unit) for name, unit, *_ in LAYER_METRICS] + [
        ("host.calib_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
