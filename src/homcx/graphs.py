"""Finite simple graphs: construction, standard families, products, structure tests.

Vertices are always 0..n-1. Graphs are immutable and hashable so they can key
caches and sit inside walks without copying. One breadth-first search,
`_bfs`, serves every traversal: connected components, connectivity, the
bipartition, the BFS vertex order and values spread along the BFS tree
(`tree_spread`) are each read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    ExplosionGuard,
    GraphInputError,
    NotConnected,
    NotHomomorphism,
    NotSquareFree,
)


def _is_int(x):
    """An int that is not a bool: JSON true and false are not vertex labels."""
    return isinstance(x, int) and not isinstance(x, bool)


class Graph:
    """Immutable simple undirected graph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "edges", "_adj", "_masks", "_hash")

    def __init__(self, n, edges=()):
        if not _is_int(n) or n < 0:
            raise GraphInputError(f"vertex count must be a nonnegative integer, got {n!r}")
        seen = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphInputError(f"edge {e!r} is not a vertex pair") from None
            if not (_is_int(u) and _is_int(v)):
                raise GraphInputError(f"edge {e!r} has non-integer endpoints")
            if u == v:
                raise GraphInputError(f"loop at vertex {u} rejected")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphInputError(f"duplicate edge {key} rejected")
            seen.add(key)
        self.n = n
        self.edges = frozenset(seen)
        buckets = [[] for _ in range(n)]
        for u, v in seen:
            buckets[u].append(v)
            buckets[v].append(u)
        self._adj = tuple(tuple(sorted(b)) for b in buckets)
        self._masks = None
        self._hash = hash((n, self.edges))

    def vertices(self):
        return range(self.n)

    def neighbors(self, u):
        return self._adj[u]

    @property
    def adj_masks(self):
        """adj_masks[x] is the neighborhood of x as an int bitmask, built on
        first use: on a large sparse graph, such as a tree-cover window, the
        masks would take memory quadratic in n."""
        if self._masks is None:
            self._masks = tuple(sum(1 << y for y in b) for b in self._adj)
        return self._masks

    def degree(self, u):
        return len(self._adj[u])

    def has_edge(self, u, v):
        return (u, v) in self.edges or (v, u) in self.edges

    @property
    def edge_count(self):
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def require_vertex(G, u):
    """Raise GraphInputError unless u is a vertex of G."""
    if not (_is_int(u) and 0 <= u < G.n):
        raise GraphInputError(f"{u!r} is not a vertex of a graph on {G.n} vertices")


class GraphHom:
    """A graph homomorphism: a vertex map sending every edge to an edge."""

    __slots__ = ("domain", "codomain", "mapping", "_hash")

    def __init__(self, domain, codomain, mapping):
        mapping = tuple(mapping)
        if len(mapping) != domain.n:
            raise NotHomomorphism(
                f"mapping has {len(mapping)} entries for a domain on {domain.n} vertices"
            )
        for x in mapping:
            if not (_is_int(x) and 0 <= x < codomain.n):
                raise NotHomomorphism(f"image vertex {x!r} out of range")
        for u, v in domain.edges:
            if not codomain.has_edge(mapping[u], mapping[v]):
                raise NotHomomorphism(
                    f"edge ({u}, {v}) maps to non-edge ({mapping[u]}, {mapping[v]})"
                )
        self.domain = domain
        self.codomain = codomain
        self.mapping = mapping
        self._hash = hash((domain, codomain, mapping))

    def __call__(self, u):
        return self.mapping[u]

    def __eq__(self, other):
        return (
            isinstance(other, GraphHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GraphHom({self.mapping})"


def maps_into_edge(H, mapping):
    """Does the image of a vertex map into H fit inside a single edge (or a
    single vertex)?"""
    img = sorted(set(mapping))
    return len(img) == 1 or len(img) == 2 and H.has_edge(*img)


# ---------------------------------------------------------------------------
# standard families


def cycle_graph(k):
    """Cycle on k >= 3 vertices, vertex i adjacent to i + 1 mod k."""
    if k < 3:
        raise GraphInputError(f"cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k):
    """Path on k vertices (k - 1 edges)."""
    if k < 1:
        raise GraphInputError(f"path needs at least 1 vertex, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k):
    """Complete graph on k >= 1 vertices."""
    if k < 1:
        raise GraphInputError(f"complete graph needs at least 1 vertex, got {k}")
    return Graph(k, itertools.combinations(range(k), 2))


def complete_bipartite(a, b):
    """Complete bipartite graph K_{a,b}: sides 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise GraphInputError("both sides of a complete bipartite graph need a vertex")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph():
    """Petersen graph: outer 5-cycle 0..4, spokes i -> i + 5, inner pentagram 5..9."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def disjoint_union(G, H):
    """G beside H, with H's vertices shifted up by G.n."""
    edges = list(G.edges) + [(u + G.n, v + G.n) for u, v in H.edges]
    return Graph(G.n + H.n, edges)


def permute_graph(G, perm):
    """Relabel G by the permutation perm (perm[u] is the new name of u)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(G.n)):
        raise GraphInputError("not a permutation of the vertex set")
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


# ---------------------------------------------------------------------------
# connectivity and bipartitions, each read off one breadth-first search


def _bfs(G, roots):
    """FIFO breadth-first search from each root that no earlier root reached,
    neighbors in increasing order. Returns the visiting order and, per
    vertex, the parent (-1 at a root) and depth, both None if unreached."""
    order = []
    parent = [None] * G.n
    depth = [None] * G.n
    for root in roots:
        if parent[root] is not None:
            continue
        parent[root], depth[root] = -1, 0
        queue = [root]
        for u in queue:
            for v in G.neighbors(u):
                if parent[v] is None:
                    parent[v], depth[v] = u, depth[u] + 1
                    queue.append(v)
        order += queue
    return order, parent, depth


def connected_components(G):
    """Vertex sets of the connected components, each sorted, ordered by least vertex."""
    order, parent, _ = _bfs(G, range(G.n))
    cuts = [i for i, u in enumerate(order) if parent[u] == -1] + [G.n]
    return [tuple(sorted(order[a:b])) for a, b in zip(cuts, cuts[1:])]


def is_connected(G):
    """Whether G has a vertex and every vertex is reached from vertex 0.
    The graph without vertices, whose connectivity networkx leaves
    undefined, is not connected."""
    return G.n > 0 and len(_bfs(G, [0])[0]) == G.n


def is_bipartite(G):
    """Return (side0, side1) as frozensets, or None if some cycle is odd.

    Side 0 holds the even search depths, so the least vertex of each
    connected component is in side 0, which makes the output deterministic.
    """
    depth = _bfs(G, range(G.n))[2]
    if any(depth[u] % 2 == depth[v] % 2 for u, v in G.edges):
        return None
    side0 = frozenset(u for u in range(G.n) if depth[u] % 2 == 0)
    return side0, frozenset(range(G.n)) - side0


def tree_spread(G, root, start, step):
    """One value per vertex, spread along the BFS tree from root: start at
    the root, then step(value at v's parent, v) for each v in search order.
    Vertices the root does not reach get None."""
    order, parent, _ = _bfs(G, [root])
    values = [None] * G.n
    values[root] = start
    for v in order[1:]:
        values[v] = step(values[parent[v]], v)
    return values


def bfs_order(G):
    """Breadth-first vertex order over every component."""
    return _bfs(G, range(G.n))[0]


def _search_order(G):
    """The order in which a backtracking search assigns G's vertices,
    bfs_order(G), and per position i the neighbours of the i-th vertex that
    come before it, in increasing order: each vertex is then constrained by
    an assigned neighbour whenever one exists."""
    order = bfs_order(G)
    position = [0] * G.n
    for i, u in enumerate(order):
        position[u] = i
    return order, [[v for v in G.neighbors(u) if position[v] < i] for i, u in enumerate(order)]


# ---------------------------------------------------------------------------
# automorphisms


def _automorphism_generators(G, budget):
    """A strong generating set of Aut(G), each generator a permutation tuple
    g with g[u] the image of u, relative to the base bfs_order(G).

    Level i, from the last up, fixes the vertices before position i. Each
    candidate image c of the i-th vertex u outside the orbit of u under the
    generators found so far starts a search for one automorphism that fixes
    that prefix and sends u to c; one found joins the generators. So the
    generators from level i on span the pointwise stabilizer of the prefix.
    A candidate at position j is a free vertex of equal degree whose
    neighbourhood among the vertices used so far is the image of the j-th
    vertex's earlier neighbours, and it is a neighbour of the first earlier
    neighbour's image when there is one. Each assignment keeps adjacency and
    non-adjacency to everything before it, so a complete one is an
    automorphism. Each level is one depth-first loop over positions i to
    n - 1, with bitmasks kept per position (the room left to try, the
    wanted neighbourhood and the vertices used before it), so it never
    recurses. Once a generator is found, u's new orbit leaves position i's
    room and the loop resumes there; the level ends when it backtracks
    below position i.

    A failing candidate can cost time exponential in n, so every candidate
    tried counts one step, and once budget steps are spent (math.inf means
    no bound) the generators found so far are returned: automorphisms
    still, but perhaps spanning only a subgroup.
    """
    order, earlier = _search_order(G)
    n = len(order)
    nbr = G.adj_masks
    same_degree = {}
    for u in G.vertices():
        same_degree[G.degree(u)] = same_degree.get(G.degree(u), 0) | 1 << u
    room_of = [same_degree[G.degree(u)] for u in order]
    image = list(range(n))  # positions before the current level stay fixed
    untried = [0] * n  # per position, the room not yet tried
    want = [0] * n  # per position, the images of its earlier neighbours
    used = [0] * (n + 1)  # per position, the images before it
    generators = []

    def open_position(j):
        """Set the room and the wanted neighbourhood of position j."""
        w = 0
        for v in earlier[j]:
            w |= 1 << image[v]
        want[j] = w
        room = room_of[j] & ~used[j]
        if earlier[j]:
            room &= nbr[image[earlier[j][0]]]
        untried[j] = room

    prefix = (1 << n) - 1
    for i in range(n - 1, -1, -1):
        u = order[i]
        prefix ^= 1 << u
        used[i] = prefix
        open_position(i)
        untried[i] &= ~(1 << u)  # every generator so far fixes u
        j = i
        while j >= i:
            if j == n:
                generators.append(tuple(image))
                for x in closure(u, lambda x: [g[x] for g in generators]):
                    untried[i] &= ~(1 << x)
                j = i
                continue
            left = untried[j]
            if not left:
                j -= 1
                continue
            budget -= 1
            if budget < 0:
                return generators
            low = left & -left
            untried[j] = left ^ low
            c = low.bit_length() - 1
            if nbr[c] & used[j] != want[j]:
                continue
            image[order[j]] = c
            used[j + 1] = used[j] | low
            j += 1
            if j < n:
                open_position(j)
    return generators


# ---------------------------------------------------------------------------
# the search engine


def mask_bits(mask):
    """The set bits of an int bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def common_neighbors(H, mask):
    """The vertices of H adjacent to every vertex of mask, as an int bitmask.

    An empty mask leaves every vertex of H.
    """
    nbr = H.adj_masks
    room = (1 << H.n) - 1
    while mask:
        low = mask & -mask
        room &= nbr[low.bit_length() - 1]
        mask ^= low
    return room


DEFAULT_CAP = 200_000


def _over_cap(stage, count, cap):
    return ExplosionGuard(f"{stage}: reached {count}, over the cap of {cap}")


def _require_cap(cap):
    """Raise ValueError unless cap is None or an int of at least 1: a cap
    that no enumeration can meet is bad input, not a tripped guard."""
    if cap is not None and (isinstance(cap, bool) or cap < 1):
        raise ValueError(f"the cap must be a positive integer or None, got {cap!r}")


def closure(start, moves, cap=None, stage="closure"):
    """The set of states reachable from start through moves(state).

    More than cap states raises ExplosionGuard; cap None means no cap.
    """
    _require_cap(cap)
    seen = {start}
    queue = [start]
    while queue:
        for nxt in moves(queue.pop()):
            if nxt not in seen:
                seen.add(nxt)
                if cap is not None and len(seen) > cap:
                    raise _over_cap(stage, len(seen), cap)
                queue.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# square-free test


def find_square(H):
    """Some 4-cycle subgraph (a, b, c, d) with edges ab, bc, cd, da, or None.

    Equivalent formulation: two distinct vertices with two common neighbors.
    The witness is the first pair a < c with two common neighbours, in
    lexicographic order, with its two least common neighbours b < d. For
    each a in turn, the walks a - b - c with c > a record b among c's
    middles, in ascending order of b; the least c with two middles closes a
    square. That is O(sum of squared degrees), not a scan of every pair.
    """
    for a in range(H.n):
        middles = {}
        for b in H.neighbors(a):
            for c in H.neighbors(b):
                if c > a:
                    middles.setdefault(c, []).append(b)
        closing = [c for c, bs in middles.items() if len(bs) >= 2]
        if closing:
            c = min(closing)
            return (a, middles[c][0], c, middles[c][1])
    return None


def is_square_free(H):
    """True when every pair of distinct vertices has at most one common neighbor."""
    return find_square(H) is None


def require_square_free(H):
    """Raise NotSquareFree, carrying find_square's witness, if H has a 4-cycle."""
    witness = find_square(H)
    if witness is not None:
        raise NotSquareFree(
            f"target graph contains the 4-cycle {witness}", witness=witness
        )


# ---------------------------------------------------------------------------
# products


def product(G, H):
    """Categorical product: (u, x) ~ (v, y) iff uv and xy are both edges.

    The vertex (u, x) is flattened to u * H.n + x.
    """
    edges = set()
    for u, v in G.edges:
        for x, y in H.edges:
            for (a, b), (c, d) in (((u, x), (v, y)), ((u, y), (v, x))):
                p, q = a * H.n + b, c * H.n + d
                edges.add((p, q) if p < q else (q, p))
    return Graph(G.n * H.n, edges)


@dataclass(frozen=True)
class TimesK2Report:
    """Structure of H x K2: its components and how they relate back to H."""

    graph: Graph
    components: tuple
    bipartite: bool
    isomorphisms: tuple  # per component, a vertex map component -> V(H), or None
    double_cover: bool

    def to_json(self):
        return {
            "bipartite": self.bipartite,
            "components": [list(c) for c in self.components],
            "double_cover": self.double_cover,
            "isomorphisms": [
                None if m is None else {str(p): x for p, x in sorted(m.items())}
                for m in self.isomorphisms
            ],
            "product": graph_to_json(self.graph),
        }


def times_k2(H):
    """H x K2 with its component structure made explicit.

    The projection (x, i) -> x is a 2-fold covering of H: each vertex's
    neighbours project one to one onto its image's. Non-bipartite H: one
    component, a connected double cover. Bipartite H: two components, each
    projecting bijectively onto V(H), so isomorphic to H by the covering.
    """
    if not is_connected(H):
        raise NotConnected("H x K2 structure is only reported for connected H")
    P = product(H, complete_graph(2))
    comps = connected_components(P)
    bipartite = is_bipartite(H) is not None
    if bipartite and len(comps) != 2:
        raise NotConnected(f"expected 2 components for bipartite H, got {len(comps)}")
    if not bipartite and len(comps) != 1:
        raise NotConnected(f"expected 1 component for non-bipartite H, got {len(comps)}")
    for pv in P.vertices():
        if sorted(q // 2 for q in P.neighbors(pv)) != list(H.neighbors(pv // 2)):
            raise NotHomomorphism("projection onto H is not a local bijection")
    if not bipartite:
        return TimesK2Report(P, tuple(comps), False, (None,), True)
    # a component is a sorted tuple, so its projection is ascending
    if any([pv // 2 for pv in comp] != list(range(H.n)) for comp in comps):
        raise NotHomomorphism("component does not hit each H vertex exactly once")
    isos = tuple({pv: pv // 2 for pv in comp} for comp in comps)
    return TimesK2Report(P, tuple(comps), True, isos, False)


# ---------------------------------------------------------------------------
# JSON forms


def graph_to_json(G):
    """G as {"n": vertex count, "edges": sorted vertex pairs}."""
    return {"n": G.n, "edges": [list(e) for e in G.sorted_edges()]}


def graph_from_json(data):
    """The Graph that a graph_to_json dict describes; GraphInputError if malformed."""
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphInputError("graph JSON must be an object with 'n' and 'edges'")
    if not isinstance(data["edges"], (list, tuple)):
        raise GraphInputError("graph JSON 'edges' must be a list of vertex pairs")
    return Graph(data["n"], data["edges"])
