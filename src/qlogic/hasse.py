"""Hasse-diagram export of a section frame as Graphviz DOT text.

Sections are up-sets of the (context, atom) point poset, so the covers
of an up-set U are generated, not searched for: U is covered by U | {p}
for each point p outside U such that U | {p} is again an up-set, that is,
the rest of p's up-set lies in U.  The export sorts and labels each up-set
from its per-context chunks of points, each chunk decoded once to its
sorted atoms.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from .poset import _bits
from .sections import Frame, Section

LABEL_LIMIT = 60


def section_label(frame: Frame, s: Section) -> str:
    """Readable label: the join of the section's elementary pieces."""
    return _label(((c, sorted(v)) for c, v in s.items), s == frame.top())


def _label(values: Iterable[tuple[str, Sequence[str]]], is_top: bool) -> str:
    """The label of a section given as (context, sorted atoms) per context."""
    pieces = [f"({c}: {'|'.join(atoms)})" for c, atoms in values if atoms]
    if not pieces:
        return "BOT"
    if is_top:
        return "TOP"
    text = " v ".join(pieces)
    if len(text) > LABEL_LIMIT:
        digest = hashlib.sha1(text.encode()).hexdigest()[:8]
        text = text[: LABEL_LIMIT - 9] + "~" + digest
    return text


def _covers(frame: Frame, masks: list[int]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) among the up-set masks, as indices into masks."""
    points = range(len(frame.poset.point_table.points))
    position = {m: i for i, m in enumerate(masks)}
    return [
        (i, position[u | 1 << p])
        for i, u in enumerate(masks)
        for p in points
        if not u >> p & 1 and u | 1 << p in position
    ]


def hasse_edges(frame: Frame, sections: list[Section]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) of the section order, as indices into sections.

    ``sections`` must be the full enumeration: each candidate U | {p} of a
    listed up-set U is looked up among the listed sections, which holds
    exactly the up-sets, so in a partial list a cover that is missing goes
    unreported.
    """
    return _covers(frame, [frame._mask(s) for s in sections])


def export_dot(frame: Frame) -> str:
    """Deterministic DOT digraph of the frame's Hasse diagram.

    One enumeration gives each up-set's mask.  A node sorts as its Section
    would, by each context's sorted atoms in context order, and is labelled
    from them; each context's chunk of the mask is decoded to its sorted
    atoms once.  The covers are read from the masks, and TOP is recognised
    by its mask.
    """
    t = frame.poset.point_table
    contexts = [c for c, _ in t.spans]
    spans = [span for _, span in t.spans]
    decoded: dict[int, tuple[str, ...]] = {}  # contexts hold disjoint bits

    def atoms(chunk: int) -> tuple[str, ...]:
        value = decoded.get(chunk)
        if value is None:
            value = decoded[chunk] = tuple(sorted(t.points[p][1] for p in _bits(chunk)))
        return value

    nodes = sorted((tuple([atoms(m & span) for span in spans]), m) for m in frame._upsets())
    lines = ["digraph sections {", "  rankdir=BT;"]
    for i, (key, m) in enumerate(nodes):
        label = _label(zip(contexts, key), m == t.top).replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in sorted(_covers(frame, [m for _, m in nodes])):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
