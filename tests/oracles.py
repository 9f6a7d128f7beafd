"""Reference implementations that the tests hold the package against, and
the steps of the paper's proof that only the tests check.

Each reference answers a question the package also answers, by a slower or
more literal route: connected components, the bipartition and the BFS
trees and order each by a search of its own instead of one shared
breadth-first search, the first square by scanning every vertex pair
instead of the walks of length two from each vertex, the homomorphisms by
`backtrack`, a generic depth-first search over candidate lists, instead of
untried-image bitmasks, adjacency straight from the conjugation equation
(`pi_adjacent`), which every reference here uses, and by the five explicit
shapes (`classify_adjacency`), the lemma behind `pi_graph.walks_adjacent`,
a walk's neighbours by walk products (`pi_neighbor`) instead of
`walks.conjugate`, a window's edges by scanning every pair of walks, the
homotopy test, its homotopy and the closed form by pushing explicit chord
loops and tree paths through walk products instead of spreading one value
along the BFS tree, the fiber by structural search with no connectivity
walk, the fiber's component walk over validated elements instead of vertex
tuples, the local covering check with each lift counted by a product
formula below and a search over joinable walks above instead of among the
walked elements, a component of Hom(G, H) by walking its cells one image
vertex at a time instead of growing each from its least homomorphism, the
census by walking every component instead of one per orbit of Aut(G), the
acyclic matching on every cell, with no folded vertices, as explicit
pairs, and its critical counts and Betti numbers over every cell, the
cellular chain complex from sorted vertex tuples instead of bitmasks,
Betti numbers on the order complex instead of the cellular complex, a
tree-cover lift by walk products, and the Smith normal form of a small
dense matrix, which confirms that a sampled boundary carries no torsion.

The proof steps: the edge walks and pushed walks that the references build
from, the identity fiber element, the sink-truncation filtration of the
fiber (its stages, indexed by the simple paths of the domain grown on an
explicit stack, and the closure and interior operators between them), and
the maps that a homomorphism and a fiber element over it induce between
tree covers. None of this runs outside the tests.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import Counter

from homcx import hom_poset
from homcx.errors import (
    GraphInputError,
    InvariantViolation,
    NotConnected,
    NotInDomain,
    NotNeighbor,
    OutOfWindow,
)
from homcx.graphs import (
    GraphHom,
    _over_cap,
    bfs_order,
    closure,
    is_connected,
    is_square_free,
    mask_bits,
)
from homcx.hom_cover import (
    AuxDigraph,
    EfElement,
    _projection,
    _require_cover_setting,
    _subsets,
    _targets_below,
    _upsets_in_base,
    aux_digraph,
    fiber_component_bounded,
    is_in_Ef,
    tight_vertices,
)
from homcx.hom_poset import (
    DEFAULT_CAP,
    HomPoset,
    SetValuedHom,
    _betti,
    _hom_mappings,
    component_summary,
    larger_cells,
)
from homcx.homology import ChainComplex, chain_complex, complex_from_chains, exact_rank
from homcx.pi_graph import walks_adjacent
from homcx.walks import (
    ReducedWalk,
    Walk,
    conjugate,
    map_walk,
    reduce_walk,
    reduced_walks_from,
    trivial_walk,
    walk_inverse,
    walk_product,
)


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


def edge_walk(graph, x, y):
    """The reduced walk of length one along the edge from x to y."""
    return ReducedWalk(graph, (x, y))


def pushed_walk(f, walk):
    """reduce(f(walk)): the image walk in reduced form, which for a closed
    walk is the induced map on fundamental groups."""
    return reduce_walk(map_walk(f, walk))


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
    """The set of shape tags matched by the ordered pair, empty if not
    adjacent: the lemma that `pi_graph.walks_adjacent` tests by slicing."""
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
    """The neighbor of xi whose source is x and target is y, by walk
    products: the reference for `walks.conjugate` on vertex tuples.

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
        if pi_adjacent(walks[i], walks[j])
    ]


def tree_paths_reference(G, base):
    """The vertex tuple of the path from base to each vertex in the tree of
    bfs_parents_reference; a vertex base does not reach raises NotConnected."""
    parents = bfs_parents_reference(G, base)

    def path(v):
        back = [v]
        while back[-1] != base:
            p = parents[back[-1]]
            if p is None:
                raise NotConnected(f"vertex {v} not reached from root {base}")
            back.append(p)
        return tuple(reversed(back))

    return [path(v) for v in G.vertices()]


def chord_loops_reference(G, base):
    """Closed walks at base generating every loop: for each edge ab off the
    BFS tree, the tree path to a, the edge and the tree path back from b."""
    paths = tree_paths_reference(G, base)
    tree = {(min(p[-2], p[-1]), max(p[-2], p[-1])) for p in paths if len(p) > 1}
    return [
        Walk(G, paths[a] + tuple(reversed(paths[b])))
        for a, b in sorted(G.edges)
        if (a, b) not in tree
    ]


def conjugated_reference(f, g, omega, xi):
    """reduce(f(omega))^-1 * xi * reduce(g(omega)) by walk products: the
    value at omega's far end of the homotopy f -> g whose value at omega's
    source is xi."""
    return walk_product(
        walk_product(walk_inverse(pushed_walk(f, omega)), xi), pushed_walk(g, omega)
    )


def is_valid_reference(xi, f, g, u):
    """`pi_graph.is_topologically_valid` as the loop condition: xi is fixed
    by conjugation along every chord loop at u."""
    return all(
        conjugated_reference(f, g, loop, xi) == xi
        for loop in chord_loops_reference(f.domain, u)
    )


def homotopy_walks_reference(xi, f, g, u):
    """The walks of the homotopy with value xi at u: xi conjugated along the
    tree path from u to each vertex."""
    G = f.domain
    return tuple(conjugated_reference(f, g, Walk(G, p), xi) for p in tree_paths_reference(G, u))


def closed_form_reference(f):
    """`classifier.closed_form_type` by the pushed chord loops: Point when f
    has a tight vertex, otherwise HxK2Component when every chord loop at
    vertex 0 pushes forward to a walk that reduces to a point, otherwise
    Circle."""
    _require_cover_setting(f)
    if tight_vertices(f):
        return "Point"
    if all(pushed_walk(f, loop).length == 0 for loop in chord_loops_reference(f.domain, 0)):
        return "HxK2Component"
    return "Circle"


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


def connected_components_reference(G):
    """Vertex sets of the connected components by a stack search from each
    unseen vertex, each sorted, ordered by least vertex."""
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


def find_square_reference(G):
    """The first 4-cycle (a, b, c, d) by scanning every vertex pair a < c in
    lexicographic order for two common neighbours b < d."""
    for a, c in itertools.combinations(range(G.n), 2):
        common = [b for b in G.neighbors(a) if G.has_edge(b, c)]
        if len(common) >= 2:
            return (a, common[0], c, common[1])
    return None


def is_connected_reference(G):
    return len(connected_components_reference(G)) == 1


def is_bipartite_reference(G):
    """A 2-colouring by a stack search that stops at the first edge joining
    two vertices of one colour: (side0, side1), the least vertex of each
    component in side 0, or None."""
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


def bfs_parents_reference(G, root):
    """BFS tree parents one level at a time (root gets -1, unreached None)."""
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


def bfs_order_reference(G):
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


def hom_mappings_reference(G, H, cap=DEFAULT_CAP):
    """Every homomorphism G -> H as a mapping tuple, by `backtrack` over the
    breadth-first order with each vertex's images listed in increasing order:
    the reference for `hom_poset._hom_mappings`, its first-found order and
    its cap."""

    def candidates(u, partial):
        return [
            x
            for x in H.vertices()
            if all(H.has_edge(partial[v], x) for v in G.neighbors(u) if v in partial)
        ]

    found = backtrack(bfs_order_reference(G), candidates, cap, "graph homomorphisms")
    return (tuple(a[u] for u in G.vertices()) for a in found)


def simple_path_ordering(G):
    """Every directed simple path of G (single vertices included), grown on
    an explicit stack, sorted by length and then lexicographically. The
    position of a path in this list is its 1-based stage index in the
    sink-truncation filtration."""
    paths = []
    stack = [(v,) for v in G.vertices()]
    while stack:
        seq = stack.pop()
        paths.append(seq)
        stack.extend(seq + (w,) for w in G.neighbors(seq[-1]) if w not in seq)
    return tuple(sorted(paths, key=lambda p: (len(p), p)))


def fiber_candidates_bounded(f, max_norm, cap=DEFAULT_CAP):
    """Every structurally valid fiber element with norm <= max_norm.

    Built without any connectivity search, by one backtrack over two passes
    of the domain: keys (0, u) pick a single walk at u, then keys (1, u) pick
    a set of walks at u containing that walk. The cross-check for the fiber
    walk of `hom_cover.enumerate_Ef_bounded`.
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
            and all(pi_adjacent(w, a) for a in anchors)
        ]

    def walk_sets(u, partial):
        nbrs = G.neighbors(u)
        h = partial[0, u]
        extras = {
            w
            for w in through(u, partial[0, nbrs[0]])
            if w != h
            and w.length <= max_norm
            and all(pi_adjacent(w, partial[0, v]) for v in nbrs)
        }
        placed = [partial[1, v] for v in nbrs if (1, v) in partial]
        used = sum(max(w.length for w in s) for (phase, _), s in partial.items() if phase)
        out = []
        for r in range(len(extras) + 1):
            for extra in itertools.combinations(extras, r):
                s = frozenset((h, *extra))
                if used + max(w.length for w in s) <= max_norm and all(
                    pi_adjacent(a, b) for t in placed for a in s for b in t
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


def identity_element(f):
    """The fiber element over f at which every vertex carries just its
    trivial walk."""
    H = f.codomain
    return EfElement(f, (frozenset({trivial_walk(H, f(u))}) for u in f.domain.vertices()))


def _addition_candidates(phi, u, max_norm):
    """Walks that could be added at u: adjacent to every walk at every neighbor."""
    G, H = phi.base_hom.domain, phi.base_hom.codomain
    nbrs = G.neighbors(u)
    eta0 = min(phi.sets[nbrs[0]], key=lambda w: w.vertices)
    base_norm = phi.norm() - phi.len_at(u)
    return [
        cand
        for cand in (pi_neighbor(eta0, phi.base_hom(u), y) for y in H.neighbors(eta0.target))
        if cand not in phi.sets[u]
        and base_norm + max(phi.len_at(u), cand.length) <= max_norm
        and all(pi_adjacent(cand, eta) for v in nbrs for eta in phi.sets[v])
    ]


def _fiber_moves(phi, max_norm):
    """Elements one walk away from phi: remove a walk, or add one within the bound."""
    moves = []
    for u in phi.base_hom.domain.vertices():
        if len(phi.sets[u]) >= 2:
            moves.extend(phi.with_set(u, phi.sets[u] - {w}) for w in phi.sets[u])
        for cand in _addition_candidates(phi, u, max_norm):
            moves.append(phi.with_set(u, phi.sets[u] | {cand}))
    return moves


def fiber_component_reference(f, max_norm, cap=DEFAULT_CAP):
    """The reference for `hom_cover.fiber_component_bounded`: a closure
    through every element, not only the singletons, whose moves add or
    remove one walk.

    Every move builds and validates the EfElement it reaches, and candidate
    walks come from pi_neighbor's walk products rather than vertex tuples.
    """
    if max_norm < 0:
        raise ValueError(f"max_norm must be a nonnegative integer, got {max_norm}")
    if f.domain.n < 2 or not is_connected(f.domain):
        raise NotConnected("the domain must be connected with at least two vertices")
    seen = closure(
        identity_element(f), lambda phi: _fiber_moves(phi, max_norm), cap, "fiber elements"
    )
    return sorted(seen, key=lambda e: e.key())


# ---------------------------------------------------------------------------
# the sink-truncation filtration of the fiber: a step of the paper's proof
# that the identity component retracts onto the identity element


def contains_directed_walk(D, seq):
    """Is the vertex sequence seq a directed walk in the AuxDigraph D?"""
    if any(v not in D.vertices for v in seq):
        return False
    return all((a, b) in D.arcs for a, b in zip(seq, seq[1:]))


def _level_digraph(phi, n):
    """The interaction digraph restricted to vertices at exactly level 2n."""
    D = aux_digraph(phi)
    verts = frozenset(u for u in D.vertices if phi.len_at(u) == 2 * n)
    arcs = frozenset((a, b) for a, b in D.arcs if a in verts and b in verts)
    return AuxDigraph(verts, arcs)


def in_stage(phi, n, i, paths=None):
    """Is phi in stage (n, i): levels at most 2n, and the level digraph
    contains none of the paths after stage i as a directed walk? The stages
    are numbered by simple_path_ordering, from 1."""
    G = phi.base_hom.domain
    if paths is None:
        paths = simple_path_ordering(G)
    if any(phi.len_at(u) > 2 * n for u in G.vertices()):
        return False
    D = _level_digraph(phi, n)
    return not any(contains_directed_walk(D, p) for p in paths[i:])


def _truncated_top_walk(phi, v):
    H = phi.base_hom.codomain
    tops = {w[:-2] for w in phi.maximal_walks(v)}
    if len(tops) != 1:
        raise InvariantViolation("truncation depends on the maximal walk chosen")
    return ReducedWalk._from_checked(H, tops.pop())


def _retraction_step(phi, n, i, paths):
    """The terminal vertex v of stage (n, i) and the two-step truncation of
    phi's top walk there, or None when phi already lies in stage (n, i - 1)."""
    if paths is None:
        paths = simple_path_ordering(phi.base_hom.domain)
    if not 1 <= i <= len(paths):
        raise NotInDomain(f"stage index {i} out of range")
    if not is_in_Ef(phi) or not in_stage(phi, n, i, paths):
        raise NotInDomain("element is not in this stage of the filtration")
    if in_stage(phi, n, i - 1, paths):
        return None
    v = paths[i - 1][-1]
    return v, _truncated_top_walk(phi, v)


def retraction_U(phi, n, i, paths=None):
    """Closure half of stage (n, i): add the two-step truncation at the
    terminal vertex of the stage path. Identity on earlier stages."""
    step = _retraction_step(phi, n, i, paths)
    if step is None:
        return phi
    v, shorter = step
    return phi.with_set(v, phi.sets[v] | {shorter})


def retraction_D(phi, n, i, paths=None):
    """Interior half of stage (n, i): keep only the truncation at the
    terminal vertex. Defined on the image of the closure half."""
    step = _retraction_step(phi, n, i, paths)
    if step is None:
        return phi
    v, shorter = step
    if shorter.vertices not in phi.key()[v]:
        raise NotInDomain("element is not in the image of the closure operator")
    return phi.with_set(v, {shorter})


def _count_down_lifts(by_target, cell):
    """Number of elements below phi whose projection is exactly cell, given
    by_target, per vertex the number of phi's walks ending at each vertex."""
    total = 1
    for counts, t in zip(by_target, cell):
        for x in mask_bits(t):
            total *= (1 << counts[x]) - 1
    return total


def _joinable_walks(phi):
    """Per vertex u, the walks an element above phi may add at u, as vertex
    tuples: the walks through a walk eta at the first neighbor of u (the edge
    (f(u), s(eta)), then eta, then one more step) that are not at u and are
    adjacent to every walk at every neighbor of u."""
    f = phi.base_hom
    G, H, key = f.domain, f.codomain, phi.key()
    joinable = []
    for u in G.vertices():
        nbrs = G.neighbors(u)
        pool = {conjugate(f(u), eta, y) for eta in key[nbrs[0]] for y in H.neighbors(eta[-1])}
        near = [eta for v in nbrs for eta in key[v]]
        joinable.append(
            [w for w in pool.difference(key[u]) if all(walks_adjacent(H, w, b) for b in near)]
        )
    return joinable


def _count_up_lifts(phi, joinable, cell):
    """Number of elements above phi whose projection is exactly cell, given
    _joinable_walks(phi)."""
    G, H, key = phi.base_hom.domain, phi.base_hom.codomain, phi.key()
    targets = [set(mask_bits(t)) for t in cell]
    optional = [[w for w in ws if w[-1] in t] for ws, t in zip(joinable, targets)]

    def candidates(u, partial):
        out = []
        for extra in _subsets(optional[u]):
            s = key[u] + extra
            if {w[-1] for w in s} == targets[u] and all(
                walks_adjacent(H, a, b)
                for v in G.neighbors(u)
                if v in partial
                for a in s
                for b in partial[v]
            ):
                out.append(s)
        return out

    return sum(1 for _ in backtrack(G.vertices(), candidates))


def covering_report_reference(f, max_norm, cap=DEFAULT_CAP):
    """The reference for `hom_cover.check_poset_covering_local`: the same
    report, with each lift counted without looking at the other walked
    elements. Below phi, every choice of a nonempty subset of phi's walks
    ending at each target vertex is a lift, so the count is a product; above
    phi, a backtracking search picks at each vertex phi's walks plus a
    subset of the walks that may join them."""
    G, H = f.domain, f.codomain
    elements = fiber_component_bounded(f, max_norm, cap=cap)
    report = {
        "down_checks": 0,
        "up_checks": 0,
        "elements": len(elements),
        "max_norm": max_norm,
        "square_free": is_square_free(H),
        "violations": [],
    }
    for phi in elements:
        base = _projection(phi)
        checks = []
        if phi.norm() <= max_norm - 2:
            by_target = [Counter(w[-1] for w in s) for s in phi.key()]
            down = functools.partial(_count_down_lifts, by_target)
            checks.append(("down", _targets_below(base), down))
        if phi.norm() <= max_norm - 2 * G.n:
            up = functools.partial(_count_up_lifts, phi, _joinable_walks(phi))
            checks.append(("up", _upsets_in_base(G, H, base, cap), up))
        for direction, targets, count_lifts in checks:
            for cell in targets:
                count = count_lifts(cell)
                report[direction + "_checks"] += 1
                if count != 1:
                    psi = SetValuedHom(G, H, map(mask_bits, cell))
                    report["violations"].append(
                        {
                            "direction": direction,
                            "element": phi.to_json(),
                            "lift_count": count,
                            "target": psi.to_json(),
                        }
                    )
    return report


def smaller_cells(cell):
    """The cells one image vertex below cell: drop one element from a set of
    two or more."""
    out = []
    for u, s in enumerate(cell):
        if s & (s - 1):
            out.extend(cell[:u] + (s ^ (1 << x),) + cell[u + 1 :] for x in mask_bits(s))
    return out


def walked_component(G, H, f, cap=DEFAULT_CAP):
    """The component of f, a GraphHom or a SetValuedHom, as a closure over
    cells: down through smaller_cells and up through `hom_poset.larger_cells`.

    The reference for `hom_poset.enumerate_component`, which walks only the
    homomorphisms and grows every cell once from its least one.
    """
    sets = ([x] for x in f.mapping) if isinstance(f, GraphHom) else f.sets
    start = tuple(sum(1 << x for x in s) for s in sets)

    def moves(cell):
        return smaller_cells(cell) + larger_cells(G, H, cell)

    cells = closure(start, moves, cap, "component elements")
    homs = sorted(
        tuple(s.bit_length() - 1 for s in cell)
        for cell in cells
        if not any(s & (s - 1) for s in cell)
    )
    packed = sorted(sum(s << (u * H.n) for u, s in enumerate(cell)) for cell in cells)
    return HomPoset(G, H, tuple(packed), tuple(homs))


def component_census_reference(G, H, cap=DEFAULT_CAP):
    """Every component of the homomorphism poset, each one walked: in sorted
    order, the first mapping no component has claimed seeds a walk, which
    must hold it as its least member and claim only unclaimed mappings the
    enumeration found. The reference for `hom_poset.component_census`, which
    walks one component per orbit of Aut(G) and relabels the others."""
    mappings = sorted(_hom_mappings(G, H, cap))
    unclaimed = set(mappings)
    summaries = []
    for m in mappings:
        if m not in unclaimed:
            continue
        s = component_summary(G, H, GraphHom(G, H, m), cap=cap)
        if s.representative != m or not unclaimed.issuperset(s.members):
            raise InvariantViolation("components do not partition the homomorphism set")
        unclaimed.difference_update(s.members)
        summaries.append(s)
    return summaries


def morse_pairs(P):
    """The acyclic matching of `critical_cells` on every cell of P,
    as (face, coface) pairs, with the cells that hold each bit gathered by
    scanning each image set.

    It is a sequence of element matchings (Jonsson, Simplicial Complexes of
    Graphs, 2008, section 4), one per bit from the highest down: each cell c
    that holds the bit and is still unmatched is paired with c ^ bit when
    that face is still unmatched too.
    """
    m, n = P.domain.n, P.codomain.n
    everything = (1 << n) - 1
    holding = {}  # bit index -> the cells with that face bit
    for cell in P.cells:
        for u in range(m):
            s = cell >> (u * n) & everything
            if s & (s - 1):
                for x in mask_bits(s):
                    holding.setdefault(u * n + x, []).append(cell)
    matched, pairs = set(), []
    for b in sorted(holding, reverse=True):
        bit = 1 << b
        for cell in holding[b]:
            if cell not in matched:
                face = cell ^ bit
                if face not in matched:
                    matched.add(cell)
                    matched.add(face)
                    pairs.append((face, cell))
    return pairs


def critical_cells(P):
    """The number of cells the acyclic matching of `hom_poset` leaves
    unmatched in each dimension, 0 to the top dimension of P, with every
    cell of P kept. The folded walk of `component_summary` counts the same.
    Read through the module, so a test that patches the matching reaches it."""
    return hom_poset._critical_counts(P.cells, P.domain.n, P.codomain.n)


def cellular_betti(P):
    """Every Betti number b_0 .. b_top of the component's cell complex, by
    the route `component_summary` takes, over every cell of P."""
    return _betti(critical_cells(P), lambda: P)


def order_complex(P, cap=DEFAULT_CAP):
    """Chains of the poset, as an abstract simplicial complex.

    For a component this is the barycentric subdivision of its cells, so it
    serves as an independent oracle for `hom_poset.cellular_chain_complex`.
    """
    return complex_from_chains(len(P), P.strict_upsets(), cap=cap)


def betti_numbers(K, max_dim):
    """Betti numbers b_0 .. b_max_dim of an order complex, exactly, with
    `exact_rank` in every degree as in `ChainComplex.betti`, and zero above
    the top dimension."""
    C = chain_complex(K)
    ranks = [0] + [exact_rank(dict(col) for col in b) for b in C.boundaries[1:]] + [0]
    return tuple(
        (C.counts[d] - ranks[d] - ranks[d + 1]) if d < len(C.counts) else 0
        for d in range(max_dim + 1)
    )


def cell_masks(G, H, cell):
    """The image sets of a packed cell of Hom(G, H), one int bitmask per
    vertex of G."""
    return tuple(cell >> (u * H.n) & ((1 << H.n) - 1) for u in G.vertices())


def cell_keys(P):
    """Each cell of P as a tuple of sorted image-vertex tuples, in P's order."""
    masks = (cell_masks(P.domain, P.codomain, cell) for cell in P.cells)
    return [tuple(tuple(mask_bits(s)) for s in sets) for sets in masks]


def keyed_chain_complex(P):
    """The cellular chain complex of a component, built on vertex tuples.

    The d-cells are the cells of dimension d, in P's order. Dropping the
    i-th smallest element of eta(u) (counting from 0), where |eta(u)| >= 2,
    carries the sign (-1)^(i + sum over v < u of (|eta(v)| - 1)). The
    reference for `hom_poset.cellular_chain_complex`, which works on masks.
    """
    levels = {}
    for key in cell_keys(P):
        levels.setdefault(sum(len(s) - 1 for s in key), []).append(key)
    grades = [levels.get(d, []) for d in range(max(levels, default=-1) + 1)]
    boundaries = [tuple(() for _ in grades[0])] if grades else []
    for d in range(1, len(grades)):
        index = {key: i for i, key in enumerate(grades[d - 1])}
        cols = []
        for key in grades[d]:
            entries = []
            shift = 0
            for u, s in enumerate(key):
                if len(s) >= 2:
                    for i in range(len(s)):
                        face = index.get(key[:u] + (s[:i] + s[i + 1 :],) + key[u + 1 :])
                        if face is None:
                            raise InvariantViolation(f"a face of {key} is not in the component")
                        entries.append((face, -1 if (i + shift) % 2 else 1))
                shift += len(s) - 1
            cols.append(tuple(entries))
        boundaries.append(tuple(cols))
    return ChainComplex(tuple(map(len, grades)), tuple(boundaries))


def lift_walk_by_products(cover, start, xi):
    """`tree_covers.lift_walk` by groupoid products: each step multiplies the
    current reduced walk by one edge walk and looks the product up in
    cover.index. The reference for the lift that steps a vertex tuple."""
    start_id = cover.vertex_of(start)
    if xi.graph != cover.base:
        raise GraphInputError("walk does not live in the base graph")
    if xi.source != start.target:
        raise GraphInputError(
            f"walk starts at {xi.source}, the lift starts over {start.target}"
        )
    ids = [start_id]
    current = start
    for y in xi.vertices[1:]:
        current = walk_product(current, edge_walk(cover.base, current.target, y))
        if current.length > cover.radius:
            raise OutOfWindow(
                f"lift reaches length {current.length} beyond radius {cover.radius}"
            )
        ids.append(cover.index[current])
    return Walk(cover.graph, tuple(ids))


def _check_cover_pair(f, cover_G, cover_H):
    if cover_G.base != f.domain or cover_H.base != f.codomain:
        raise GraphInputError("covers do not sit over the given homomorphism")
    if cover_H.basepoint != f(cover_G.basepoint):
        raise GraphInputError("cover basepoints do not correspond under f")


def induced_cover_map(f, cover_G, cover_H):
    """The vertex map between covers induced by pushing walks through f."""
    _check_cover_pair(f, cover_G, cover_H)
    mapping = []
    for w in cover_G.walks:
        fw = pushed_walk(f, w)
        if fw.length > cover_H.radius:
            raise OutOfWindow(
                f"image walk of length {fw.length} exceeds radius {cover_H.radius}"
            )
        mapping.append(cover_H.index[fw])
    return tuple(mapping)


def psi_apply(phi, cover_G, cover_H):
    """Transport a fiber element to a set-valued map between the covers.

    A cover vertex named by the walk w is sent to the endpoints of
    reduce(f(w)) * xi for xi in phi at the endpoint of w. The result is
    validated as a set-valued homomorphism between the two trees; its
    pointwise projection recovers the walk targets of phi.
    """
    f = phi.base_hom
    _check_cover_pair(f, cover_G, cover_H)
    phi_sets = phi.sets
    sets = []
    for w in cover_G.walks:
        f_tilde = pushed_walk(f, w)
        lifted = set()
        for xi in phi_sets[w.target]:
            end = walk_product(f_tilde, xi)
            if end.length > cover_H.radius:
                raise OutOfWindow(
                    f"lifted walk of length {end.length} exceeds radius {cover_H.radius}"
                )
            lifted.add(cover_H.index[end])
        sets.append(frozenset(lifted))
    return SetValuedHom(cover_G.graph, cover_H.graph, sets)


def elementary_divisors(matrix):
    """Nonzero diagonal entries of the Smith normal form of a small dense matrix.

    Dense integer algorithm, used to confirm homology groups carry no torsion
    on sampled complexes. matrix is a list of equal-length integer rows.
    """
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    divisors = []
    r = c = 0
    while r < rows and c < cols:
        # smallest nonzero entry of the remaining block becomes the pivot
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        while best is not None:
            i, j = best
            m[r], m[i] = m[i], m[r]
            for row in m:
                row[c], row[j] = row[j], row[c]
            pivot = m[r][c]
            for i2 in range(r + 1, rows):
                q = m[i2][c] // pivot
                if q:
                    for j2 in range(c, cols):
                        m[i2][j2] -= q * m[r][j2]
            for j2 in range(c + 1, cols):
                q = m[r][j2] // pivot
                if q:
                    for i2 in range(r, rows):
                        m[i2][j2] -= q * m[i2][c]
            # leftovers are remainders, strictly smaller than the pivot: recurse on them
            best = None
            for i2 in range(r + 1, rows):
                if m[i2][c] != 0:
                    best = (i2, c)
                    break
            if best is None:
                for j2 in range(c + 1, cols):
                    if m[r][j2] != 0:
                        best = (r, j2)
                        break
        divisors.append(abs(m[r][c]))
        r += 1
        c += 1
    # repair divisibility pairwise
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a != 0:
                g = math.gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
    return divisors
