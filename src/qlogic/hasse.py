"""Hasse-diagram export of a section frame as Graphviz DOT text.

Sections are up-sets of the (context, atom) point poset, so a section
covers another exactly when it holds one point more and lies above it.
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

    ``sections`` must be the full enumeration, as in :func:`export_dot`: a
    cover adds exactly one (context, atom) point, so i is covered by j iff
    s_i <= s_j and s_j has one point more.  In a partial list, covers
    across a missing section would go unreported.
    """
    size = [sum(len(v) for _, v in s.items) for s in sections]
    rows = frame.leq_rows(sections)
    return [
        (i, j)
        for i, row in enumerate(rows)
        for j in range(len(sections))
        if size[j] == size[i] + 1 and row >> j & 1
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
