"""Reference implementations that the tests hold the package against.

Each one answers a question the package also answers, by a slower or more
literal route: adjacency straight from the conjugation equation, a window's
edges by scanning every pair of walks, the fiber by structural search with
no connectivity walk, Betti numbers on the order complex instead of the
cellular complex. None of them runs outside the tests.
"""

from __future__ import annotations

import itertools

from homcx.graphs import GraphHom, backtrack, bfs_order
from homcx.hom_cover import EfElement, _require_cover_setting
from homcx.hom_poset import DEFAULT_CAP
from homcx.homology import chain_complex, complex_from_chains
from homcx.pi_graph import classify_adjacency, pi_neighbor
from homcx.walks import edge_walk, reduced_walks_from, walk_product


def pi_adjacent(xi, eta):
    """Adjacency test straight from the definition (conjugation equation)."""
    H = xi.graph
    if eta.graph != H:
        raise ValueError("walks live in different graphs")
    if not H.has_edge(xi.source, eta.source):
        return False
    if not H.has_edge(xi.target, eta.target):
        return False
    conj = walk_product(
        walk_product(edge_walk(H, xi.source, eta.source), eta),
        edge_walk(H, eta.target, xi.target),
    )
    return conj == xi


def window_edges(walks):
    """The pairs (i, j), i < j, of adjacent walks, by testing every pair."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(walks)), 2)
        if classify_adjacency(walks[i], walks[j])
    ]


def hom_adjacent(f, g):
    """Do two singleton elements differ at exactly one vertex?"""
    fm = f.mapping if isinstance(f, GraphHom) else f.as_graph_hom().mapping
    gm = g.mapping if isinstance(g, GraphHom) else g.as_graph_hom().mapping
    return sum(a != b for a, b in zip(fm, gm)) == 1


def find_isomorphism(G, H):
    """A vertex bijection G -> H preserving edges both ways, or None.

    Backtracking with degree pruning; intended for small graphs (say up to
    a dozen vertices).
    """
    if G.n != H.n or G.edge_count != H.edge_count:
        return None
    if sorted(map(G.degree, G.vertices())) != sorted(map(H.degree, H.vertices())):
        return None
    order = sorted(G.vertices(), key=lambda u: (-G.degree(u), u))

    def candidates(u, partial):
        used = set(partial.values())
        return [
            x
            for x in H.vertices()
            if x not in used
            and H.degree(x) == G.degree(u)
            and all(G.has_edge(u, v) == H.has_edge(x, y) for v, y in partial.items())
        ]

    mapping = next(backtrack(order, candidates), None)
    return None if mapping is None else tuple(mapping[u] for u in G.vertices())


def fiber_candidates_bounded(f, max_norm, cap=DEFAULT_CAP):
    """Every structurally valid fiber element with norm <= max_norm.

    Built without any connectivity search, by one backtrack over two passes
    of the domain: keys (0, u) pick a single walk at u, then keys (1, u) pick
    a set of walks at u containing that walk. The cross-check for the BFS
    enumeration `hom_cover.enumerate_Ef_bounded`.
    """
    _require_cover_setting(f)
    G, H = f.domain, f.codomain
    order = bfs_order(G)

    def through(u, eta):
        # the walks at u adjacent to the walk eta at a neighbor of u
        return [pi_neighbor(eta, f(u), y) for y in H.neighbors(eta.target)]

    def single_walks(u, partial):
        used = sum(w.length for w in partial.values())
        anchors = [partial[0, v] for v in G.neighbors(u) if (0, v) in partial]
        if anchors:
            pool = through(u, anchors[0])
        else:
            pool = reduced_walks_from(H, f(u), max_norm - used)
        return [
            w
            for w in pool
            if used + w.length <= max_norm
            and all(classify_adjacency(w, a) for a in anchors)
        ]

    def walk_sets(u, partial):
        nbrs = G.neighbors(u)
        h = partial[0, u]
        extras = {
            w
            for w in through(u, partial[0, nbrs[0]])
            if w != h
            and w.length <= max_norm
            and all(classify_adjacency(w, partial[0, v]) for v in nbrs)
        }
        placed = [partial[1, v] for v in nbrs if (1, v) in partial]
        used = sum(max(w.length for w in s) for (phase, _), s in partial.items() if phase)
        out = []
        for r in range(len(extras) + 1):
            for extra in itertools.combinations(extras, r):
                s = frozenset((h, *extra))
                if used + max(w.length for w in s) <= max_norm and all(
                    classify_adjacency(a, b) for t in placed for a in s for b in t
                ):
                    out.append(s)
        return out

    found = backtrack(
        [(0, u) for u in order] + [(1, u) for u in order],
        lambda key, partial: (walk_sets if key[0] else single_walks)(key[1], partial),
        cap,
        "fiber candidates",
    )
    elements = {EfElement(f, (a[1, u] for u in G.vertices())) for a in found}
    return sorted(elements, key=lambda e: e.key())


def order_complex(P, cap=DEFAULT_CAP):
    """Chains of the poset, as an abstract simplicial complex.

    For a component this is the barycentric subdivision of its cells, so it
    serves as an independent oracle for `hom_poset.cellular_chain_complex`.
    """
    return complex_from_chains(len(P), P.strict_upsets(), cap=cap)


def betti_numbers(K, max_dim):
    """Betti numbers b_0 .. b_max_dim of an order complex, exactly."""
    return chain_complex(K).betti(max_dim)
