"""Epistemic measurement logics over finite context posets.

Classical observables (partitions of a finite outcome space) and quantum
observables (finite Hermitian matrices) both generate a poset of
measurement contexts; the monotone sections over such a poset form a
Heyting algebra in which "I measured A and got a value in Delta" is an
elementary proposition, conjunction of incompatible measurements is a
contradiction, and excluded middle holds only inside a fixed context.
"""

from .bridge import classical_bridge
from .classical import (
    ClassicalModel,
    ClassicalObservable,
    OutcomeSpace,
    build_classical_frame,
    close_partition_family,
    partition_join,
    partition_meet,
    partition_of_observable,
)
from .errors import (
    DomainError,
    QLogicError,
    ResourceLimitError,
    StructureError,
    UnknownContextError,
)
from .poset import ContextPoset, LocalAlgebra
from .quantum import (
    QuantumModel,
    generated_context,
    spectral_decompose,
    spectral_projection,
)
from .sections import BOTTOM, ElementaryProposition, Frame, Section

__all__ = [
    "BOTTOM",
    "ClassicalModel",
    "ClassicalObservable",
    "ContextPoset",
    "DomainError",
    "ElementaryProposition",
    "Frame",
    "LocalAlgebra",
    "OutcomeSpace",
    "QLogicError",
    "QuantumModel",
    "ResourceLimitError",
    "Section",
    "StructureError",
    "UnknownContextError",
    "build_classical_frame",
    "classical_bridge",
    "close_partition_family",
    "generated_context",
    "partition_join",
    "partition_meet",
    "partition_of_observable",
    "spectral_decompose",
    "spectral_projection",
]
