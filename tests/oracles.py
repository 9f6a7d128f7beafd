"""Reference implementations that the tests hold the package against.

Each one answers a question the package also answers, by a slower or more
literal route: connected components, the bipartition and the BFS trees
and order each by a search of its own instead of one shared breadth-first
search, the first square by scanning every vertex pair instead of the
walks of length two from each vertex, the homomorphisms by `backtrack`, a generic depth-first search over
candidate lists, instead of untried-image bitmasks, the simple paths by an
explicit stack instead of a closure,
adjacency straight from the conjugation equation, a window's
edges by scanning every pair of walks, the homotopy test, its homotopy and
the closed form by pushing explicit chord loops and tree paths through
walk products instead of spreading one value along the BFS tree, the fiber
by structural search with no connectivity walk, the fiber's component walk over validated elements
instead of vertex tuples, the local covering check with each lift counted
by a product formula below and a search over joinable walks above instead
of among the walked elements, a component of Hom(G, H) by walking its cells one
image vertex at a time instead of growing each from its least homomorphism,
the census by walking every component instead of one per orbit of Aut(G),
the acyclic matching on every cell, with no folded vertices, as explicit
pairs, the cellular chain complex from sorted vertex tuples instead of bitmasks,
Betti numbers on the order complex instead of the cellular complex, and the
Smith normal form of a small dense matrix, which confirms that a sampled
boundary carries no torsion. None of them runs outside the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

from homcx.errors import GraphInputError, InvariantViolation, NotConnected, OutOfWindow
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
    EfElement,
    _projection,
    _require_cover_setting,
    _subsets,
    _targets_below,
    _upsets_in_base,
    fiber_component_bounded,
    identity_element,
    tight_vertices,
)
from homcx.hom_poset import (
    DEFAULT_CAP,
    HomPoset,
    SetValuedHom,
    _hom_mappings,
    component_summary,
    larger_cells,
)
from homcx.homology import ChainComplex, chain_complex, complex_from_chains, exact_rank
from homcx.pi_graph import classify_adjacency, pi_neighbor, walks_adjacent
from homcx.walks import (
    Walk,
    conjugate,
    edge_walk,
    pushed_walk,
    reduced_walks_from,
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


def simple_path_ordering_reference(G):
    """Every directed simple path of G, grown on an explicit stack, sorted by
    length and then lexicographically."""
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
        and all(classify_adjacency(cand, eta) for v in nbrs for eta in phi.sets[v])
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
    """The acyclic matching of `hom_poset.critical_cells` on every cell of P,
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
