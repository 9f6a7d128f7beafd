"""The graph of reduced walks over a fixed base graph H.

Vertices are reduced walks in H. Two walks xi and eta are adjacent when their
sources are adjacent, their targets are adjacent, and conjugating eta by the
two connecting edges gives back xi:

    xi == (s(xi), s(eta)) * eta * (t(eta), t(xi))

An adjacent pair takes one of five shapes, which `walks_adjacent` tests by
slicing vertex tuples, and finite windows take their edges from the
conjugates of each walk's vertex tuple (walks.conjugate). The five shapes,
the conjugation equation and an all-pairs window scan are the tests'
references (tests/oracles.py).

The endpoint maps s, t send a walk to its source and target; length-zero
walks embed H into this graph. A homotopy between homomorphisms f, g: G -> H
is a homomorphism from G into the reduced-walk graph lying over (f, g). Its
value at one vertex forces the rest: the validity test spreads a walk xi at
u along the BFS tree from u (graphs.tree_spread), conjugating by (f(v), g(v))
at each step, and checks the spread values edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EndpointMismatch, NotConnected, NotNeighbor, NotValid
from .graphs import DEFAULT_CAP, Graph, require_vertex, tree_spread
from .walks import ReducedWalk, all_reduced_walks, conjugate


def walks_adjacent(H, a, b):
    """Are the reduced walks with vertex tuples a and b in H adjacent?

    With a of length l and b of length m, the pair is adjacent exactly when
    b is a with one step added at each end (m = l + 2), a is b with one
    added at each end (l = m + 2), one trails the other by a step (m = l >
    0), or both are single vertices joined by an edge; each is tested by
    slicing the tuples.
    """
    if len(a) == len(b):
        if len(a) == 1:
            return H.has_edge(a[0], b[0])
        return a[1:] == b[:-1] or a[:-1] == b[1:]
    if len(b) == len(a) + 2:
        return a == b[1:-1]
    return len(a) == len(b) + 2 and a[1:-1] == b


# ---------------------------------------------------------------------------
# homotopies


class Homotopy:
    """A homotopy from f to g: a vertex-indexed family of reduced walks.

    h assigns to each vertex u of G a reduced walk from f(u) to g(u) in H,
    and adjacent vertices must carry adjacent walks.
    """

    __slots__ = ("source_hom", "target_hom", "walks", "_hash")

    def __init__(self, source_hom, target_hom, walks):
        walks = tuple(walks)
        f, g = source_hom, target_hom
        if f.domain != g.domain or f.codomain != g.codomain:
            raise ValueError("homotopy endpoints must share domain and codomain")
        if len(walks) != f.domain.n:
            raise ValueError("one walk per domain vertex is required")
        for u, w in enumerate(walks):
            if not isinstance(w, ReducedWalk):
                raise ValueError(f"entry at vertex {u} is not a reduced walk")
            if w.graph != f.codomain:
                raise ValueError(f"walk at vertex {u} lives in the wrong graph")
            if w.source != f(u) or w.target != g(u):
                raise EndpointMismatch(
                    f"walk at vertex {u} runs {w.source}->{w.target}, "
                    f"needs {f(u)}->{g(u)}"
                )
        for u, v in f.domain.edges:
            if not walks_adjacent(f.codomain, walks[u].vertices, walks[v].vertices):
                raise NotNeighbor(
                    f"walks at adjacent vertices {u}, {v} are not adjacent"
                )
        self.source_hom = f
        self.target_hom = g
        self.walks = walks
        self._hash = hash((f, g, walks))

    @classmethod
    def _from_checked(cls, source_hom, target_hom, walks):
        """A homotopy whose tuple of walks passed every check of __init__."""
        self = object.__new__(cls)
        self.source_hom, self.target_hom, self.walks = source_hom, target_hom, walks
        self._hash = hash((source_hom, target_hom, walks))
        return self

    def norm(self):
        return sum(w.length for w in self.walks)

    def __eq__(self, other):
        return (
            isinstance(other, Homotopy)
            and self.source_hom == other.source_hom
            and self.target_hom == other.target_hom
            and self.walks == other.walks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Homotopy({[w.vertices for w in self.walks]})"


# ---------------------------------------------------------------------------
# walks that span homotopies


def _spread(xi, f, g, u):
    """The vertex tuples that the value xi at u forces: each vertex takes its
    BFS parent's value conjugated by (f(v), g(v)), so tree edges pass."""
    G, H = f.domain, f.codomain
    require_vertex(G, u)
    if not isinstance(xi, ReducedWalk) or xi.graph != H:
        raise ValueError("the walk must be a reduced walk in the codomain of f")
    if g.domain != G or g.codomain != H:
        raise ValueError("homotopy endpoints must share domain and codomain")
    if xi.source != f(u) or xi.target != g(u):
        raise EndpointMismatch(f"walk runs {xi.source}->{xi.target}, needs {f(u)}->{g(u)}")
    fm, gm = f.mapping, g.mapping
    values = tree_spread(G, u, xi.vertices, lambda w, v: conjugate(fm[v], w, gm[v]))
    if None in values:
        raise NotConnected("validity test needs a connected domain")
    return values


def _spans(f, values):
    """Are the spread values adjacent across every edge of the domain?"""
    return all(walks_adjacent(f.codomain, values[a], values[b]) for a, b in f.domain.edges)


def is_topologically_valid(xi, f, g, u):
    """Can xi (a reduced walk f(u) -> g(u)) be the value at u of a homotopy f -> g?

    A homotopy's value at u forces its other values along the BFS tree, so
    xi is valid exactly when those values are adjacent across every edge; a
    chord passes exactly when xi is fixed by conjugation along its loop at
    u. A u outside G raises GraphInputError, a xi that is not a reduced walk
    in f's codomain ValueError, a disconnected G NotConnected.
    """
    return _spans(f, _spread(xi, f, g, u))


def homotopy_from_valid_walk(xi, f, g, u):
    """Spread a valid walk at u out to the homotopy it determines.

    Raises as is_topologically_valid does, and NotValid for a walk it rejects.
    """
    values = _spread(xi, f, g, u)
    if not _spans(f, values):
        raise NotValid("walk is not compatible with some closed walk at the base vertex")
    H = f.codomain  # _spread checked the endpoints and reducedness, _spans the edges
    return Homotopy._from_checked(f, g, tuple(ReducedWalk._from_checked(H, w) for w in values))


# ---------------------------------------------------------------------------
# finite windows


@dataclass(frozen=True)
class PiWindow:
    """All reduced walks of length <= max_len in H, with their adjacencies.

    Walks of length >= max_len - 1 may be missing neighbors that only exist
    beyond the window.
    """

    base: Graph
    max_len: int
    walks: tuple
    edges: tuple  # pairs of indices (i, j), i < j

    def to_json(self):
        return {
            "edges": [list(e) for e in self.edges],
            "max_len": self.max_len,
            "vertices": [{"walk": list(w.vertices)} for w in self.walks],
        }


def materialize_pi(H, max_len, cap=DEFAULT_CAP):
    """Build the finite window of the reduced-walk graph up to max_len.

    The neighbors of a walk xi are its conjugates conjugate(x, xi, y) for x
    adjacent to s(xi) and y adjacent to t(xi), each the neighbor with source
    x and target y; those longer than max_len fall outside the window.
    A window of more than cap walks raises ExplosionGuard while it grows.
    """
    walks = all_reduced_walks(H, max_len, cap)
    index = {w.vertices: i for i, w in enumerate(walks)}
    edges = []
    for i, xi in enumerate(walks):
        for x in H.neighbors(xi.source):
            for y in H.neighbors(xi.target):
                j = index.get(conjugate(x, xi.vertices, y))
                if j is not None and j > i:
                    edges.append((i, j))
    return PiWindow(H, max_len, tuple(walks), tuple(sorted(edges)))
