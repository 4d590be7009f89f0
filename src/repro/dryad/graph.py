"""Dryad computation graphs: the vertices of one Select stage.

A Dryad job is a DAG whose vertices are sequential programs and whose
edges are communication channels.  DryadLINQ compiles the pleasingly
parallel ``Select`` to a single stage of independent vertices, one per
partition, with no channels between them, so that is all a
:class:`DryadGraph` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["DryadGraph", "Vertex"]


@dataclass
class Vertex:
    """One vertex: a sequential computation bound to a node's data."""

    vertex_id: str
    kind: str = "select"
    payload: Any = None
    preferred_node: int | None = None  # data-locality hint


class DryadGraph:
    """One stage of independent vertices, in insertion order."""

    def __init__(self):
        self._vertices: dict[str, Vertex] = {}

    def add_vertex(self, vertex: Vertex) -> Vertex:
        if vertex.vertex_id in self._vertices:
            raise ValueError(f"duplicate vertex {vertex.vertex_id!r}")
        self._vertices[vertex.vertex_id] = vertex
        return vertex

    def __len__(self) -> int:
        return len(self._vertices)

    def vertices(self) -> list[Vertex]:
        return list(self._vertices.values())
