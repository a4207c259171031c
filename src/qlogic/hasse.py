"""Hasse-diagram export of a section frame as Graphviz DOT text.

Sections are up-sets of the (context, atom) point poset, so the covers
of an up-set U are generated, not searched for: U is covered by U | {p}
for each point p outside U such that U | {p} is again an up-set, that is,
the rest of p's up-set lies in U.
"""

from __future__ import annotations

import hashlib

from .sections import Frame, Section

LABEL_LIMIT = 60


def section_label(frame: Frame, s: Section) -> str:
    """Readable label: the join of the section's elementary pieces."""
    pieces = frame.decompose_to_elementary(s)
    if not pieces:
        return "BOT"
    if s == frame.top():
        return "TOP"
    text = " v ".join(
        f"({e.context}: {'|'.join(sorted(e.value))})" for e in pieces
    )
    if len(text) > LABEL_LIMIT:
        digest = hashlib.sha1(text.encode()).hexdigest()[:8]
        text = text[: LABEL_LIMIT - 9] + "~" + digest
    return text


def _sort_key(s: Section):
    return tuple((c, tuple(sorted(v))) for c, v in s.items)


def hasse_edges(frame: Frame, sections: list[Section]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) of the section order, as indices into sections.

    ``sections`` must be the full enumeration, as in :func:`export_dot`:
    each candidate U | {p} of a listed up-set U is looked up among the
    listed sections, which holds exactly the up-sets, so in a partial list
    a cover that is missing goes unreported.
    """
    points = range(len(frame._table.points))
    masks = [frame._mask(s) for s in sections]
    position = {m: i for i, m in enumerate(masks)}
    return [
        (i, position[u | 1 << p])
        for i, u in enumerate(masks)
        for p in points
        if not u >> p & 1 and u | 1 << p in position
    ]


def export_dot(frame: Frame, name: str = "sections") -> str:
    """Deterministic DOT digraph of the frame's Hasse diagram."""
    sections = sorted(frame.enumerate_sections(), key=_sort_key)
    edges = hasse_edges(frame, sections)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, s in enumerate(sections):
        label = section_label(frame, s).replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in sorted(edges):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
