"""CHSH inequality: the classical probability bound and its quantum violation.

The classical side certifies, over deterministic truth assignments to
four binary propositions, that P(A1&B1) <= P(A1&B2) + P(A2&B1) +
P(~A2&~B2).  The quantum side computes the same four terms with Born
probabilities on a two-qubit state and builds the section frame of the
measurement scenario, in which the classical proof's appeal to excluded
middle has no counterpart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .quantum import QuantumModel, TAU_HERM, TAU_PROJ, _maxabs
from .sections import Section

TAU_UNIT = 1e-10  # how far from 1 a measurement axis's 2-norm may be
# weights sum to 1 within this, and the inequality holds while lhs <= rhs +
# TAU_PROB, so that rounding in the Born terms cannot break an equality
TAU_PROB = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def axis_from_angle(theta_deg: float) -> np.ndarray:
    """Unit vector in the x-z plane at the given angle from the z axis."""
    if not math.isfinite(theta_deg):
        raise DomainError(f"angle must be finite, got {theta_deg!r}")
    t = np.deg2rad(theta_deg)
    return np.array([np.sin(t), 0.0, np.cos(t)])


@dataclass(frozen=True, eq=False)
class BellScenario:
    """Measurement axes for Alice (a1, a2) and Bob (b1, b2)."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if not all(map(_is_unit, (self.a1, self.a2, self.b1, self.b2))):
            raise DomainError("measurement axes must be unit vectors")

    @staticmethod
    def from_angles(a1: float, a2: float, b1: float, b2: float) -> "BellScenario":
        return BellScenario(
            axis_from_angle(a1), axis_from_angle(a2),
            axis_from_angle(b1), axis_from_angle(b2),
        )


DEFAULT_ANGLES = (0.0, 60.0, 90.0, 30.0)


def _is_unit(v: np.ndarray) -> bool:
    return abs(np.linalg.norm(v) - 1.0) <= TAU_UNIT  # NaN fails too


def spin_operator(axis: np.ndarray) -> np.ndarray:
    return sum(axis[i] * PAULIS[i] for i in range(3))


def spin_projection(axis: np.ndarray, sign: int) -> np.ndarray:
    """Projection onto the +-1 eigenspace of the spin along the axis."""
    if not _is_unit(axis):
        raise DomainError("axis must be a unit vector")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    return (np.eye(2, dtype=complex) + sign * spin_operator(axis)) / 2


def singlet_state() -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / np.sqrt(2)   # |01>
    psi[2] = -1 / np.sqrt(2)  # |10>
    return np.outer(psi, psi.conj())


def maximally_mixed_state() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4


def validate_density_matrix(rho: np.ndarray) -> None:
    rho = np.asarray(rho, dtype=complex)
    # each check is written so that NaN fails it, and so does a difference
    # or a sum past the float range, which reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        if not _maxabs(rho - rho.conj().T) <= TAU_HERM:
            raise DomainError("density matrix must be Hermitian")
        if not abs(np.trace(rho).real - 1.0) <= TAU_HERM:
            raise DomainError("density matrix must have unit trace")
    if not np.min(np.linalg.eigvalsh(rho)) >= -TAU_HERM:
        raise DomainError("density matrix must be positive semidefinite")


def born_probability(rho: np.ndarray, p: np.ndarray) -> float:
    rho = np.asarray(rho, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if rho.shape != p.shape:
        raise DomainError("state and projection dimensions differ")
    val = float(np.real(np.trace(rho @ p)))
    return min(1.0, max(0.0, val))


@dataclass(frozen=True)
class ChshTerms:
    lhs: float      # P(A1 & B1)
    t1: float       # P(A1 & B2)
    t2: float       # P(A2 & B1)
    t3: float       # P(~A2 & ~B2)
    satisfied: bool

    @property
    def rhs(self) -> float:
        return self.t1 + self.t2 + self.t3


def chsh_terms(rho: np.ndarray, scenario: BellScenario) -> ChshTerms:
    """The four Born-rule terms of the inequality, each computed in its own
    compatible joint context."""
    validate_density_matrix(rho)

    def joint(axis_a, sign_a, axis_b, sign_b) -> float:
        proj = np.kron(spin_projection(axis_a, sign_a), spin_projection(axis_b, sign_b))
        return born_probability(rho, proj)

    lhs = joint(scenario.a1, 1, scenario.b1, 1)
    t1 = joint(scenario.a1, 1, scenario.b2, 1)
    t2 = joint(scenario.a2, 1, scenario.b1, 1)
    t3 = joint(scenario.a2, -1, scenario.b2, -1)
    return ChshTerms(lhs, t1, t2, t3, lhs <= t1 + t2 + t3 + TAU_PROB)


def chsh_sweep(steps: int) -> Iterator[tuple[float, ChshTerms]]:
    """(theta, terms) on the singlet at the angles theta * (0, 2, 3, 1),
    for theta = 90 k / steps, k = 0, ..., steps, steps >= 1."""
    rho = singlet_state()
    for k in range(steps + 1):
        theta = 90.0 * k / steps
        yield theta, chsh_terms(rho, BellScenario.from_angles(0.0, 2 * theta, 3 * theta, theta))


def singlet_joint_probability(theta_deg: float) -> float:
    """Closed form: P(+,+) on the singlet at relative angle theta."""
    return np.sin(np.deg2rad(theta_deg) / 2) ** 2 / 2


# -- Theorem-1 side -----------------------------------------------------------

ASSIGNMENTS = tuple(itertools.product((False, True), repeat=4))  # (A1, A2, B1, B2)


@dataclass(frozen=True)
class ProbabilityAssignment:
    """Probability weights over the 16 truth assignments to (A1, A2, B1, B2)."""

    weights: tuple[tuple[tuple[bool, bool, bool, bool], float], ...]

    @staticmethod
    def from_dict(w) -> "ProbabilityAssignment":
        return ProbabilityAssignment(tuple(sorted(w.items())))

    @staticmethod
    def point_mass(a1: bool, a2: bool, b1: bool, b2: bool) -> "ProbabilityAssignment":
        return ProbabilityAssignment.from_dict({(a1, a2, b1, b2): 1.0})

    def validate(self) -> None:
        total = 0.0
        for key, w in self.weights:
            if key not in ASSIGNMENTS:
                raise DomainError(f"unknown truth assignment {key}")
            if w < 0:
                raise DomainError("weights must be non-negative")
            total += w
        if abs(total - 1.0) > TAU_PROB:
            raise DomainError("weights must sum to 1")


def vertex_slack(a1: bool, a2: bool, b1: bool, b2: bool) -> int:
    """t1 + t2 + t3 - lhs on one truth assignment to (A1, A2, B1, B2):
    [A1 & B2] + [A2 & B1] + [~A2 & ~B2] - [A1 & B1], 0 or more."""
    return (a1 and b2) + (a2 and b1) + (not a2 and not b2) - (a1 and b1)


def theorem1_slack(pa: ProbabilityAssignment) -> float:
    """t1 + t2 + t3 - lhs for the assignment, the weighted sum of its
    vertices' slacks (Fine, PRL 48, 291, 1982); non-negative classically."""
    pa.validate()
    return sum(w * vertex_slack(*key) for key, w in pa.weights)


@dataclass(frozen=True)
class VertexReport:
    total: int
    satisfied: int
    min_slack: float

    @property
    def ok(self) -> bool:
        return self.satisfied == self.total


def classical_vertex_check() -> VertexReport:
    """Slack on every deterministic assignment; by convexity this certifies
    the inequality for every classical probability function."""
    slacks = [vertex_slack(*key) for key in ASSIGNMENTS]
    return VertexReport(
        len(slacks), sum(s >= 0 for s in slacks), min(slacks)
    )


# -- the CHSH section frame ----------------------------------------------------


@dataclass(eq=False)
class ChshFrame:
    """The scenario's quantum model plus the named elementary sections."""

    model: QuantumModel
    sections: dict[str, Section]

    @property
    def frame(self):
        return self.model.frame


def build_chsh_frame(scenario: BellScenario) -> ChshFrame:
    """Context poset over the two-qubit algebra generated by the four spin
    observables, with named sections A1, A2, B1, B2 and their complements."""
    eye = np.eye(2, dtype=complex)
    observables = {
        "A1": np.kron(spin_operator(scenario.a1), eye),
        "A2": np.kron(spin_operator(scenario.a2), eye),
        "B1": np.kron(eye, spin_operator(scenario.b1)),
        "B2": np.kron(eye, spin_operator(scenario.b2)),
    }
    model = QuantumModel(observables)
    sections = {}
    for name in observables:
        plus = model.frame.embed_elementary(model.elementary(name, [1.0]))
        minus = model.frame.embed_elementary(model.elementary(name, [-1.0]))
        sections[name] = plus
        sections["~" + name] = minus
    return ChshFrame(model, sections)


# -- Popper's witness in the raw projection lattice ----------------------------


def projection_join_raw(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Projection onto the span of the two ranges: the column space of
    [p1 p2], its left singular vectors of singular value above TAU_PROJ."""
    u, s, _ = np.linalg.svd(np.hstack([p1, p2]))
    basis = u[:, s > TAU_PROJ]
    return basis @ basis.conj().T


def projection_meet_raw(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Projection onto the intersection of the two ranges: the complement
    of the join of the complements."""
    eye = np.eye(len(p1))
    return eye - projection_join_raw(eye - p1, eye - p2)


@dataclass(frozen=True, eq=False)
class DistributivityWitness:
    p1: np.ndarray
    p2: np.ndarray
    lhs: np.ndarray  # P1 /\ (P2 \/ ~P2)
    rhs: np.ndarray  # (P1 /\ P2) \/ (P1 /\ ~P2)

    @property
    def fails(self) -> bool:
        return _maxabs(self.lhs - self.rhs) > TAU_PROJ


def orthodox_distributivity_witness() -> DistributivityWitness:
    """In the orthodox (non-distributive) projection lattice of a qubit:
    P1 /\\ (P2 \\/ ~P2) = P1 while (P1 /\\ P2) \\/ (P1 /\\ ~P2) = 0."""
    p1 = spin_projection(np.array([1.0, 0.0, 0.0]), 1)  # x+
    p2 = spin_projection(np.array([0.0, 0.0, 1.0]), 1)  # z+
    not_p2 = np.eye(2) - p2
    lhs = projection_meet_raw(p1, projection_join_raw(p2, not_p2))
    rhs = projection_join_raw(
        projection_meet_raw(p1, p2), projection_meet_raw(p1, not_p2)
    )
    return DistributivityWitness(p1, p2, lhs, rhs)
