"""Finite simple graphs: construction, standard families, products, structure tests.

Vertices are always 0..n-1. Graphs are immutable and hashable so they can key
caches and sit inside walks without copying.
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

    __slots__ = ("n", "edges", "_adj", "_hash")

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
        self._hash = hash((n, self.edges))

    def vertices(self):
        return range(self.n)

    def neighbors(self, u):
        return self._adj[u]

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
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


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
            if not (isinstance(x, int) and 0 <= x < codomain.n):
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

    def image(self):
        return frozenset(self.mapping)

    def factors_through_edge(self):
        """True when the image fits inside a single edge (or a single vertex)."""
        img = sorted(self.image())
        if len(img) == 1:
            return True
        return len(img) == 2 and self.codomain.has_edge(img[0], img[1])

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


def identity_hom(G):
    return GraphHom(G, G, range(G.n))


# ---------------------------------------------------------------------------
# standard families


def cycle_graph(k):
    if k < 3:
        raise GraphInputError(f"cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k):
    """Path on k vertices (k - 1 edges)."""
    if k < 1:
        raise GraphInputError(f"path needs at least 1 vertex, got {k}")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k):
    if k < 1:
        raise GraphInputError(f"complete graph needs at least 1 vertex, got {k}")
    return Graph(k, itertools.combinations(range(k), 2))


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise GraphInputError("both sides of a complete bipartite graph need a vertex")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def disjoint_union(G, H):
    edges = list(G.edges) + [(u + G.n, v + G.n) for u, v in H.edges]
    return Graph(G.n + H.n, edges)


def permute_graph(G, perm):
    """Relabel G by the permutation perm (perm[u] is the new name of u)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(G.n)):
        raise GraphInputError("not a permutation of the vertex set")
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


# ---------------------------------------------------------------------------
# connectivity and bipartitions


def connected_components(G):
    """Vertex sets of the connected components, each sorted, ordered by least vertex."""
    seen = [False] * G.n
    comps = []
    for start in range(G.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        comp = []
        while queue:
            u = queue.pop()
            comp.append(u)
            for v in G.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(G):
    return G.n <= 1 or len(connected_components(G)) == 1


def is_bipartite(G):
    """Return (side0, side1) as frozensets, or None if some cycle is odd.

    Within each connected component the least vertex is placed in side 0,
    which makes the output deterministic.
    """
    color = [-1] * G.n
    for start in range(G.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in G.neighbors(u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    side0 = frozenset(u for u in range(G.n) if color[u] == 0)
    side1 = frozenset(u for u in range(G.n) if color[u] == 1)
    return side0, side1


def bfs_parents(G, root):
    """BFS tree parents (root gets -1), visiting neighbors in increasing order."""
    parents = [None] * G.n
    parents[root] = -1
    queue = [root]
    while queue:
        nxt = []
        for u in queue:
            for v in G.neighbors(u):
                if parents[v] is None:
                    parents[v] = u
                    nxt.append(v)
        queue = nxt
    return parents


def bfs_order(G):
    """Breadth-first vertex order over every component, neighbors in increasing order."""
    order = []
    seen = [False] * G.n
    for start in range(G.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for u in queue:
            for v in G.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        order.extend(queue)
    return order


# ---------------------------------------------------------------------------
# the search engine


def neighbor_masks(H):
    """mask[x] is the neighborhood of x as an int bitmask over V(H)."""
    return [sum(1 << y for y in H.neighbors(x)) for x in H.vertices()]


def mask_bits(mask):
    """The set bits of an int bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def common_neighbors(nbr, mask):
    """The vertices adjacent to every vertex of mask, as an int bitmask.

    nbr is neighbor_masks(H). An empty mask leaves every vertex of H.
    """
    room = (1 << len(nbr)) - 1
    for x in mask_bits(mask):
        room &= nbr[x]
    return room


def _over_cap(stage, count, cap):
    return ExplosionGuard(f"{stage}: reached {count}, over the cap of {cap}")


def backtrack(order, candidates, cap=None, stage="search"):
    """Every complete assignment of values to the keys in order, depth first.

    candidates(u, partial) returns the ordered list of values for u that are
    compatible with partial, the dict of keys already assigned (exactly those
    before u in order). Assignments are yielded in first-found order as the
    live dict, which the next step changes: copy what you keep. More than cap
    of them raises ExplosionGuard; cap None means no cap.
    """
    partial = {}
    if not order:
        if cap is not None and cap < 1:
            raise _over_cap(stage, 1, cap)
        yield partial
        return
    count = 0
    stack = [iter(candidates(order[0], partial))]
    while stack:
        k = len(stack) - 1
        u = order[k]
        for x in stack[k]:
            partial[u] = x
            if k + 1 < len(order):
                stack.append(iter(candidates(order[k + 1], partial)))
                break
            count += 1
            if cap is not None and count > cap:
                raise _over_cap(stage, count, cap)
            yield partial
        else:
            stack.pop()
            partial.pop(u, None)


def closure(start, moves, cap=None, stage="closure"):
    """The set of states reachable from start through moves(state).

    More than cap states raises ExplosionGuard; cap None means no cap.
    """
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


def tree_path_vertices(parents, root, v):
    """Vertex sequence of the unique tree path root -> v."""
    back = [v]
    while back[-1] != root:
        p = parents[back[-1]]
        if p is None:
            raise NotConnected(f"vertex {v} not reached from root {root}")
        back.append(p)
    return tuple(reversed(back))


# ---------------------------------------------------------------------------
# square-free test


def find_square(H):
    """Some 4-cycle subgraph (a, b, c, d) with edges ab, bc, cd, da, or None.

    Equivalent formulation: two distinct vertices with two common neighbors.
    """
    for a, c in itertools.combinations(range(H.n), 2):
        common = [b for b in H.neighbors(a) if H.has_edge(b, c)]
        if len(common) >= 2:
            return (a, common[0], c, common[1])
    return None


def is_square_free(H):
    """True when every pair of distinct vertices has at most one common neighbor."""
    return find_square(H) is None


def require_square_free(H):
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

    Bipartite H: two components, each isomorphic to H through (x, i) -> x.
    Non-bipartite H: one component, a connected double cover of H.
    """
    if not is_connected(H):
        raise NotConnected("H x K2 structure is only reported for connected H")
    P = product(H, complete_graph(2))
    comps = connected_components(P)
    sides = is_bipartite(H)
    isos = []
    if sides is not None:
        if len(comps) != 2:
            raise NotConnected(f"expected 2 components for bipartite H, got {len(comps)}")
        for comp in comps:
            mapping = {pv: pv // 2 for pv in comp}
            _check_component_iso(P, comp, mapping, H)
            isos.append(mapping)
        return TimesK2Report(P, tuple(comps), True, tuple(isos), False)
    if len(comps) != 1:
        raise NotConnected(f"expected 1 component for non-bipartite H, got {len(comps)}")
    for pv in comps[0]:
        images = sorted(q // 2 for q in P.neighbors(pv))
        if images != sorted(H.neighbors(pv // 2)):
            raise NotHomomorphism("projection onto H is not a local bijection")
    return TimesK2Report(P, tuple(comps), False, (None,), True)


def _check_component_iso(P, comp, mapping, H):
    if sorted(mapping.values()) != list(range(H.n)):
        raise NotHomomorphism("component does not hit each H vertex exactly once")
    comp_set = set(comp)
    comp_edges = {(p, q) for p, q in P.edges if p in comp_set and q in comp_set}
    if len(comp_edges) != H.edge_count:
        raise NotHomomorphism("component edge count does not match H")
    for p, q in comp_edges:
        if not H.has_edge(mapping[p], mapping[q]):
            raise NotHomomorphism("component edge maps to a non-edge of H")


# ---------------------------------------------------------------------------
# JSON forms


def graph_to_json(G):
    return {"n": G.n, "edges": [list(e) for e in G.sorted_edges()]}


def graph_from_json(data):
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphInputError("graph JSON must be an object with 'n' and 'edges'")
    if not isinstance(data["edges"], (list, tuple)):
        raise GraphInputError("graph JSON 'edges' must be a list of vertex pairs")
    return Graph(data["n"], data["edges"])
