"""Bounded windows into universal covers of graphs.

The universal cover of a connected graph G, based at u, has one vertex per
reduced walk from u and one edge per one-step extension; it is a tree and
the endpoint map is a covering projection. Only a finite window (walks up to
a chosen radius) is materialized; operations that would leave the window
raise instead of guessing.

Walks of the base lift into the window one step at a time. The maps
between covers that a homomorphism, or a fiber element over it, induces
are the tests' (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphInputError, NotConnected, OutOfWindow
from .graphs import Graph, graph_to_json, is_connected, require_vertex
from .walks import Walk, extend, reduced_walks_from


@dataclass(frozen=True)
class TreeCover:
    """A radius-bounded piece of the universal cover of `base` at `basepoint`."""

    base: Graph
    basepoint: int
    radius: int
    walks: tuple
    index: dict = field(compare=False, repr=False)
    at: dict = field(compare=False, repr=False)  # index, keyed by vertex tuples
    graph: Graph = field(compare=False)

    def project(self, vid):
        return self.walks[vid].target

    def project_walk(self, walk):
        if walk.graph != self.graph:
            raise GraphInputError("walk does not live in this cover")
        # the covering map is a homomorphism, so the image is a walk
        return Walk._from_checked(self.base, tuple(self.project(v) for v in walk.vertices))

    def vertex_of(self, walk):
        """The cover vertex named by a reduced walk from the basepoint."""
        if walk not in self.index:
            if walk.source != self.basepoint:
                raise GraphInputError("walk does not start at the basepoint")
            raise OutOfWindow(f"walk of length {walk.length} exceeds radius {self.radius}")
        return self.index[walk]

    def to_json(self):
        return {
            "base": graph_to_json(self.base),
            "basepoint": self.basepoint,
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "projection": [w.target for w in self.walks],
            "radius": self.radius,
            "vertices": [{"walk": list(w.vertices)} for w in self.walks],
        }


def tree_cover(base, basepoint, radius):
    """The universal cover of base at basepoint, cut to the reduced walks of
    length at most radius; more than DEFAULT_CAP walks raises ExplosionGuard."""
    if radius < 0:
        raise ValueError(f"radius must be a nonnegative integer, got {radius}")
    require_vertex(base, basepoint)
    if not is_connected(base):
        raise NotConnected("covers are built over connected graphs")
    walks = tuple(reduced_walks_from(base, basepoint, radius))
    index = {w: i for i, w in enumerate(walks)}
    at = {w.vertices: i for i, w in enumerate(walks)}
    edges = [(at[w.vertices[:-1]], i) for i, w in enumerate(walks) if w.length]
    return TreeCover(base, basepoint, radius, walks, index, at, Graph(len(walks), edges))


def lift_walk(cover, start, xi):
    """Lift a walk of the base into the cover, starting at a named vertex.

    Each step either extends the current reduced walk or cancels its last
    edge; both are tree edges, so the walk is kept as a vertex tuple and
    stepped by walks.extend. Raises when any stage of the lift leaves the
    window.
    """
    start_id = cover.vertex_of(start)
    if xi.graph != cover.base:
        raise GraphInputError("walk does not live in the base graph")
    if xi.source != start.target:
        raise GraphInputError(
            f"walk starts at {xi.source}, the lift starts over {start.target}"
        )
    ids = [start_id]
    current = start.vertices
    for y in xi.vertices[1:]:
        current = extend(current, y)
        if len(current) > cover.radius + 1:
            raise OutOfWindow(
                f"lift reaches length {len(current) - 1} beyond radius {cover.radius}"
            )
        ids.append(cover.at[current])
    return Walk._from_checked(cover.graph, tuple(ids))
