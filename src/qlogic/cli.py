"""Command-line workbench.

Subcommands:

    build     load + validate a model, print its context poset
    eval      evaluate a formula against a model
    hasse     export the section frame's Hasse diagram as DOT
    check     run the invariant suites (adjunction, distributivity, ...)
    quotient  show the quotient logic at a context (coarse or refined)
    decidable list the decidable sections of the frame
    bell      CHSH demo: Born-rule terms vs the classical bound
    bridge    classical model vs its diagonal commutative quantum twin:
              an isomorphism of the (context, atom) point posets

Exit codes: 0 success, 1 check failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import sys

import numpy as np

from .bell import (
    BellScenario,
    DEFAULT_ANGLES,
    chsh_sweep,
    chsh_terms,
    classical_vertex_check,
    maximally_mixed_state,
    orthodox_distributivity_witness,
    singlet_state,
)
from .bridge import classical_bridge
from .classical import ClassicalModel, ClassicalObservable, OutcomeSpace
from .errors import QLogicError
from .formulas import eval_formula, parse_formula
from .hasse import export_dot, section_label
from .quantum import TOLERANCES, QuantumModel


# the top-level keys of a model file, per kind; a quantum one's options are TOLERANCES
MODEL_KEYS = {
    "classical": ("kind", "points", "observables"),
    "quantum": ("kind", "observables", "options", "dim"),
}


def _check_keys(doc: dict, kind: str) -> None:
    other = "quantum" if kind == "classical" else "classical"
    for key in doc:
        if key in MODEL_KEYS[other] and key not in MODEL_KEYS[kind]:
            raise QLogicError(f"{key!r} applies to {other} models only")
        if key not in MODEL_KEYS[kind]:
            raise QLogicError(
                f"unknown key {key!r}; a {kind} model takes {', '.join(MODEL_KEYS[kind])}"
            )


def _check_text(doc) -> None:
    """Refuse a lone surrogate (a JSON escape such as \\ud800) in any key or
    string of the document: no output encoding can write it, so a name
    holding one would end the first print of it in a traceback."""
    todo = [doc]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            todo += [*node.keys(), *node.values()]
        elif isinstance(node, list):
            todo += node
        elif isinstance(node, str):
            try:
                node.encode("utf-8")
            except UnicodeEncodeError:
                raise QLogicError(f"model text {node!r} holds a lone surrogate") from None


def _require(doc: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise QLogicError(f"model lacks {', '.join(map(repr, missing))}")


def _observables(doc: dict) -> dict:
    observables = doc["observables"]
    if not isinstance(observables, dict):
        raise QLogicError("'observables' must be an object keyed by observable name")
    return observables


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise QLogicError("a model file must hold a JSON object")
    if "\\u" in text:  # only a \u escape spells a surrogate
        _check_text(doc)
    kind = doc.get("kind")
    if kind == "classical":
        _check_keys(doc, kind)
        _require(doc, "points", "observables")
        if not isinstance(doc["points"], list):
            raise QLogicError("'points' must be a list of point names")
        names = [str(p) for p in doc["points"]]
        for k, count in collections.Counter(names).items():
            if count > 1:
                raise QLogicError(f"duplicate point {k!r}")
        omega = OutcomeSpace(frozenset(names))
        observables = {}
        for name, vm in _observables(doc).items():
            if not isinstance(vm, dict):
                raise QLogicError(f"observable {name!r} must map points to values")
            if any(isinstance(v, (list, dict)) for v in vm.values()):
                raise QLogicError(f"observable {name!r} must map points to scalar values")
            observables[name] = ClassicalObservable.from_dict(
                name, {str(k): v for k, v in vm.items()}
            )
        return ClassicalModel(omega, observables)
    if kind == "quantum":
        _check_keys(doc, kind)
        _require(doc, "observables")
        dim = doc.get("dim")
        if "dim" in doc and (isinstance(dim, bool) or not isinstance(dim, int)):
            raise QLogicError(f"'dim' must be an integer, got {dim!r}")
        observables = {}
        for name, rows in _observables(doc).items():
            try:
                entries = [[complex(re, im) for re, im in row] for row in rows]
            except (TypeError, ValueError):
                raise QLogicError(
                    f"observable {name!r} must be a list of rows of [re, im] pairs"
                ) from None
            if len({len(row) for row in entries}) != 1:
                raise QLogicError(f"observable {name!r} is not a rectangular matrix")
            observables[name] = np.array(entries)
            if dim is not None and observables[name].shape != (dim, dim):
                shape = "x".join(map(str, observables[name].shape))
                raise QLogicError(f"observable {name!r} is {shape}, but 'dim' is {dim}")
        options = doc.get("options", {})
        if not isinstance(options, dict):
            raise QLogicError("'options' must be an object")
        for k, v in options.items():
            if k not in TOLERANCES:
                raise QLogicError(f"unknown option {k!r}; options are {', '.join(TOLERANCES)}")
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise QLogicError(f"option {k!r} must be a number, got {v!r}")
        return QuantumModel(observables, **options)
    raise QLogicError(f"model kind must be 'classical' or 'quantum', got {kind!r}")


# -- subcommands -------------------------------------------------------------


def cmd_build(args) -> int:
    model = load_model(args.model)
    poset = model.poset
    issues = poset.validate()
    print(f"contexts ({len(poset.context_ids)}):")
    for c in poset.context_ids:
        atoms = poset.algebra(c).atoms
        print(f"  {c}: atoms {list(atoms)}")
    print("cover relations:")
    for c1, c2 in poset.covers():
        print(f"  {c1} < {c2}")
    if issues:
        print("violations:")
        for issue in issues:
            print(f"  {issue}")
        return 1
    print("poset valid")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ast = parse_formula(args.formula)
    section = eval_formula(model, ast)
    print(f"section: {section_label(model.frame, section)}")
    for c, v in section.items:
        print(f"  {c}: {{{','.join(sorted(v))}}}")
    pieces = model.frame.decompose_to_elementary(section)
    if pieces:
        print("elementary decomposition:")
        for e in pieces:
            print(f"  ({e.context}, {{{','.join(sorted(e.value))}}})")
    else:
        print("elementary decomposition: BOT")
    return 0


def cmd_hasse(args) -> int:
    model = load_model(args.model)
    dot = export_dot(model.frame)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dot)
    return 0


def cmd_check(args) -> int:
    model = load_model(args.model)
    frame = model.frame
    failures = 0

    issues = model.poset.validate()
    print(f"poset invariants: {'ok' if not issues else f'{len(issues)} violations'}")
    failures += len(issues)

    counts = frame.check_laws(exhaustive=args.exhaustive)
    n = counts.sections
    print(f"sections: {n}")
    for suite, ok, total in (
        ("monotonicity", counts.monotone, n),
        ("implies vs brute force", counts.implies, n * n),
        ("adjunction", counts.adjunction, n**3),
    ):
        print(f"{suite}: {ok}/{total}")
        failures += total - ok
    if args.exhaustive:
        dist = n**2 - counts.distributive
        print(f"distributivity: {'ok' if not dist else f'{dist} violations'}")
        failures += dist

    if failures:
        print(f"FAILED ({failures} violations)")
        return 1
    print("all checks passed")
    return 0


def cmd_quotient(args) -> int:
    model = load_model(args.model)
    frame = model.frame
    if args.refined:
        sub = frame.restrict_upset(args.context)
        sections = sub.enumerate_sections()
        print(f"refined quotient at {args.context}: frame over {list(sub.context_ids)}")
        print(f"sections: {len(sections)}, decidable: {len(sub.decidable_elements())}")
        for s in sections:
            print(f"  {section_label(sub, s)}")
    else:
        alg = model.poset.algebra(args.context)
        elements = list(alg.elements())
        print(
            f"coarse quotient at {args.context}: Boolean algebra with "
            f"{len(elements)} elements over atoms {list(alg.atoms)}"
        )
        for e in elements:
            print(f"  {{{','.join(sorted(e))}}}")
    return 0


def cmd_decidable(args) -> int:
    model = load_model(args.model)
    decidable = model.frame.decidable_elements()
    print(f"decidable sections: {len(decidable)}")
    for s in decidable:
        print(f"  {section_label(model.frame, s)}")
    return 0


def cmd_bell(args) -> int:
    if args.sweep is not None and args.angles is not None:
        raise QLogicError("--sweep takes no --angles: it sweeps theta * (0, 2, 3, 1)")
    angles = DEFAULT_ANGLES
    if args.angles:
        try:
            a1, a2, b1, b2 = map(float, args.angles.split(","))
        except ValueError:
            raise QLogicError("--angles needs four comma-separated degrees") from None
        angles = (a1, a2, b1, b2)
    if args.vertices:
        report = classical_vertex_check()
        print(
            f"classical vertices: {report.satisfied}/{report.total} satisfy the "
            f"inequality (min slack {report.min_slack:.3g})"
        )
        if not report.ok:
            return 1
    if args.sweep is not None:
        if args.sweep < 1:
            raise QLogicError(f"--sweep needs N >= 1, got {args.sweep}")
        print("theta,lhs,rhs,violated")
        for theta, terms in chsh_sweep(args.sweep):
            print(
                f"{theta:.6g},{terms.lhs:.9f},{terms.rhs:.9f},"
                f"{str(not terms.satisfied).lower()}"
            )
        return 0
    scenario = BellScenario.from_angles(*angles)
    terms = chsh_terms(singlet_state(), scenario)
    print(f"angles (deg): a1={angles[0]:g} a2={angles[1]:g} b1={angles[2]:g} b2={angles[3]:g}")
    print(f"P(A1&B1)       = {terms.lhs:.9f}")
    print(f"P(A1&B2)       = {terms.t1:.9f}")
    print(f"P(A2&B1)       = {terms.t2:.9f}")
    print(f"P(~A2&~B2)     = {terms.t3:.9f}")
    print(f"bound (rhs)    = {terms.rhs:.9f}")
    print("SATISFIED" if terms.satisfied else "VIOLATED")
    mixed = chsh_terms(maximally_mixed_state(), scenario)
    print(
        f"maximally mixed: lhs {mixed.lhs:.6f} vs rhs {mixed.rhs:.6f} -> "
        + ("SATISFIED" if mixed.satisfied else "VIOLATED")
    )
    witness = orthodox_distributivity_witness()
    print(
        "orthodox projection lattice: P1^(P2v~P2) has rank "
        f"{int(round(np.trace(witness.lhs).real))}, "
        f"(P1^P2)v(P1^~P2) has rank {int(round(np.trace(witness.rhs).real))}"
    )
    return 0


def cmd_bridge(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, ClassicalModel):
        raise QLogicError("bridge requires a classical model")
    _, report = classical_bridge(model)
    print(f"classical sections: {report.section_count_classical}")
    print(f"quantum sections:   {report.section_count_quantum}")
    print(f"result: {report.detail}")
    return 0 if report.isomorphic else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlogic",
        description="Workbench for epistemic measurement logics (classical and quantum).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="load and validate a model")
    p.add_argument("model")

    p = sub.add_parser("eval", help="evaluate a formula")
    p.add_argument("model")
    p.add_argument("-f", "--formula", required=True)

    p = sub.add_parser("hasse", help="export the Hasse diagram as DOT")
    p.add_argument("model")
    p.add_argument("--out")

    p = sub.add_parser("check", help="run the invariant suites")
    p.add_argument("model")
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("quotient", help="quotient logic at a context")
    p.add_argument("model")
    p.add_argument("--context", required=True)
    p.add_argument("--refined", action="store_true")

    p = sub.add_parser("decidable", help="list decidable sections")
    p.add_argument("model")

    p = sub.add_parser("bell", help="CHSH demo")
    p.add_argument("--angles", help="a1,a2,b1,b2 in degrees")
    p.add_argument("--vertices", action="store_true")
    p.add_argument("--sweep", type=int, metavar="N", help="CSV sweep over N steps")

    p = sub.add_parser("bridge", help="classical vs commutative-quantum frames")
    p.add_argument("model")

    return ap


# parse_args leaves the parser as it was, so one serves every call; each
# subcommand runs cmd_<name>, looked up by name when it runs
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    # UnicodeError: a model file not in UTF-8, or a name stdout cannot encode
    except (QLogicError, OSError, UnicodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
