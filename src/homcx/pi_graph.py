"""The graph of reduced walks over a fixed base graph H.

Vertices are reduced walks in H. Two walks xi and eta are adjacent when their
sources are adjacent, their targets are adjacent, and conjugating eta by the
two connecting edges gives back xi:

    xi == (s(xi), s(eta)) * eta * (t(eta), t(xi))

Adjacent pairs fall into five explicit shapes (A1 to A5 below), and only a
pair of length-1 walks can match two shapes at once (A2 and A4 together).
Finite windows take their edges from pi_neighbor; the tests keep the
conjugation equation and an all-pairs window scan as references.

The endpoint maps s, t send a walk to its source and target; length-zero
walks embed H into this graph. A homotopy between homomorphisms f, g: G -> H
is a homomorphism from G into the reduced-walk graph lying over (f, g).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (
    EndpointMismatch,
    ExplosionGuard,
    NotConnected,
    NotNeighbor,
    NotValid,
    SourceTargetMismatch,
    TransportMismatch,
)
from .graphs import Graph, bfs_parents, is_connected, tree_path_vertices
from .walks import (
    ReducedWalk,
    Walk,
    all_reduced_walks,
    edge_walk,
    pushed_walk,
    trivial_walk,
    walk_inverse,
    walk_product,
)


class AdjacencyType(enum.Enum):
    """The five shapes an ordered adjacent pair (xi, eta) can take.

    With xi = (x_0..x_l) and eta = (y_0..y_m):

    A1: m = l + 2 and x_i = y_{i+1} for all i (xi is the middle of eta)
    A2: m = l > 0 and x_{i+1} = y_i for i < l (eta trails xi by one step)
    A3: l = m + 2 and x_{i+1} = y_i for all i (eta is the middle of xi)
    A4: m = l > 0 and x_i = y_{i+1} for i < l (eta leads xi by one step)
    A5: l = m = 0 and x_0 y_0 is an edge
    """

    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"


def classify_adjacency(xi, eta):
    """The set of shape tags matched by the ordered pair, empty if not adjacent."""
    H = xi.graph
    if eta.graph != H:
        raise ValueError("walks live in different graphs")
    x, y = xi.vertices, eta.vertices
    lx, ly = xi.length, eta.length
    tags = set()
    if ly == lx + 2 and all(x[i] == y[i + 1] for i in range(lx + 1)):
        tags.add(AdjacencyType.A1)
    if lx == ly > 0 and all(x[i + 1] == y[i] for i in range(lx)):
        tags.add(AdjacencyType.A2)
    if lx == ly + 2 and all(x[i + 1] == y[i] for i in range(ly + 1)):
        tags.add(AdjacencyType.A3)
    if lx == ly > 0 and all(x[i] == y[i + 1] for i in range(lx)):
        tags.add(AdjacencyType.A4)
    if lx == ly == 0 and H.has_edge(x[0], y[0]):
        tags.add(AdjacencyType.A5)
    return frozenset(tags)


def adjacency_type(xi, eta):
    """The unique shape tag of an adjacent pair.

    Only defined away from the ambiguous case (both walks of length 1 matching
    A2 and A4 at once).
    """
    tags = classify_adjacency(xi, eta)
    if not tags:
        raise NotNeighbor(f"{xi!r} and {eta!r} are not adjacent")
    if len(tags) > 1:
        raise ValueError("type is ambiguous for this pair of length-1 walks")
    return next(iter(tags))


def pi_neighbor(xi, x, y):
    """The neighbor of xi whose source is x and target is y.

    x must neighbor s(xi) and y must neighbor t(xi); every neighbor of xi
    arises this way, exactly once.
    """
    H = xi.graph
    if x not in H.neighbors(xi.source):
        raise NotNeighbor(f"{x} is not adjacent to the source {xi.source}")
    if y not in H.neighbors(xi.target):
        raise NotNeighbor(f"{y} is not adjacent to the target {xi.target}")
    return walk_product(
        walk_product(edge_walk(H, x, xi.source), xi), edge_walk(H, xi.target, y)
    )


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
            if not classify_adjacency(walks[u], walks[v]):
                raise NotNeighbor(
                    f"walks at adjacent vertices {u}, {v} are not adjacent"
                )
        self.source_hom = f
        self.target_hom = g
        self.walks = walks
        self._hash = hash((f, g, walks))

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


def id_homotopy(f):
    """The identity homotopy at f: every vertex carries a length-zero walk."""
    return Homotopy(f, f, tuple(trivial_walk(f.codomain, f(u)) for u in f.domain.vertices()))


def compose_homotopies(h1, h2):
    """Pointwise product; h1 must end where h2 starts."""
    if h1.target_hom != h2.source_hom:
        raise SourceTargetMismatch(
            "cannot compose: first homotopy ends at a different homomorphism"
        )
    walks = tuple(walk_product(a, b) for a, b in zip(h1.walks, h2.walks))
    return Homotopy(h1.source_hom, h2.target_hom, walks)


def inverse_homotopy(h):
    return Homotopy(
        h.target_hom, h.source_hom, tuple(walk_inverse(w) for w in h.walks)
    )


def transport(h, omega):
    """Recompute h at the far end of a walk omega in G and check consistency.

    For omega from u to v the value at v is forced:

        h(v) = reduce(f(omega))^-1 * h(u) * reduce(g(omega))

    A mismatch against the stored walk means the input was not a homotopy.
    """
    f, g = h.source_hom, h.target_hom
    u, v = omega.source, omega.target
    expected = walk_product(
        walk_product(walk_inverse(pushed_walk(f, omega)), h.walks[u]),
        pushed_walk(g, omega),
    )
    if expected != h.walks[v]:
        raise TransportMismatch(
            f"transport along {omega.vertices} lands on {expected.vertices}, "
            f"stored walk is {h.walks[v].vertices}"
        )
    return expected


# ---------------------------------------------------------------------------
# walks that span homotopies


def _chord_loops(G, base):
    """Closed walks at base generating all loops: tree path, chord, tree path back."""
    parents = bfs_parents(G, base)
    tree = set()
    for v in G.vertices():
        p = parents[v]
        if p is not None and p >= 0:
            tree.add((min(p, v), max(p, v)))
    loops = []
    for a, b in sorted(G.edges):
        if (a, b) in tree:
            continue
        to_a = tree_path_vertices(parents, base, a)
        to_b = tree_path_vertices(parents, base, b)
        loops.append(Walk(G, to_a + tuple(reversed(to_b))))
    return loops


def is_topologically_valid(xi, f, g, u):
    """Can xi (a walk f(u) -> g(u)) be the value at u of a homotopy f -> g?

    The test: xi must be fixed by conjugation along every closed walk at u.
    Checking one loop per non-tree edge suffices, because the fixing
    condition is closed under loop products and inverses.
    """
    G = f.domain
    if not is_connected(G):
        raise NotConnected("validity test needs a connected domain")
    if xi.source != f(u) or xi.target != g(u):
        raise EndpointMismatch(
            f"walk runs {xi.source}->{xi.target}, needs {f(u)}->{g(u)}"
        )
    for loop in _chord_loops(G, u):
        conj = walk_product(
            walk_product(walk_inverse(pushed_walk(f, loop)), xi),
            pushed_walk(g, loop),
        )
        if conj != xi:
            return False
    return True


def homotopy_from_valid_walk(xi, f, g, u):
    """Spread a valid walk at u out to the homotopy it determines."""
    if not is_topologically_valid(xi, f, g, u):
        raise NotValid("walk is not compatible with some closed walk at the base vertex")
    G = f.domain
    parents = bfs_parents(G, u)
    walks = [None] * G.n
    for v in G.vertices():
        path = Walk(G, tree_path_vertices(parents, u, v))
        walks[v] = walk_product(
            walk_product(walk_inverse(pushed_walk(f, path)), xi),
            pushed_walk(g, path),
        )
    return Homotopy(f, g, tuple(walks))


# ---------------------------------------------------------------------------
# finite windows


@dataclass(frozen=True)
class PiWindow:
    """All reduced walks of length <= max_len in H, with their adjacencies.

    Walks of length >= max_len - 1 may be missing neighbors that only exist
    beyond the window; indices of fully safe walks are in interior.
    """

    base: Graph
    max_len: int
    walks: tuple
    edges: tuple  # pairs of indices (i, j), i < j

    @property
    def interior(self):
        return tuple(
            i for i, w in enumerate(self.walks) if w.length <= self.max_len - 2
        )

    def neighbors(self, i):
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def to_json(self):
        return {
            "edges": [list(e) for e in self.edges],
            "max_len": self.max_len,
            "vertices": [{"walk": list(w.vertices)} for w in self.walks],
        }


def materialize_pi(H, max_len, cap=200_000):
    """Build the finite window of the reduced-walk graph up to max_len.

    The neighbors of a walk xi are pi_neighbor(xi, x, y) for x adjacent to
    s(xi) and y adjacent to t(xi); those longer than max_len fall outside
    the window.
    """
    walks = all_reduced_walks(H, max_len)
    if len(walks) > cap:
        raise ExplosionGuard(
            f"window holds {len(walks)} walks, over the cap of {cap}"
        )
    index = {w: i for i, w in enumerate(walks)}
    edges = []
    for i, xi in enumerate(walks):
        for x in H.neighbors(xi.source):
            for y in H.neighbors(xi.target):
                j = index.get(pi_neighbor(xi, x, y))
                if j is not None and j > i:
                    edges.append((i, j))
    return PiWindow(H, max_len, tuple(walks), tuple(sorted(edges)))
