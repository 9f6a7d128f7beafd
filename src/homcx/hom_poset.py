"""The poset of set-valued homomorphisms between two graphs.

A set-valued homomorphism assigns each vertex of G a nonempty set of vertices
of H so that every cross pair along an edge of G is an edge of H. Each one is
a cell of the polyhedral complex Hom(G, H): the product over u of the simplex
on its image set, of dimension sum_u (|eta(u)| - 1). Ordered by pointwise
inclusion, the cells form the face poset of that complex.

From the component walk to the boundary matrix, a cell is one int: the
image set eta(u) is a bitmask over V(H) stored at bit u * |V(H)|, so the
cell is sum_u eta(u) << (u * |V(H)|). Every choice of one vertex from each
set of a cell is a homomorphism below it, so a component is the set of cells
above its homomorphisms, and two homomorphisms under one cell are joined by
changes at one vertex at a time. The walk (`enumerate_component`) therefore
moves through homomorphisms only, changing one vertex to another common
neighbor of its neighbors' images. Each cell has exactly one least
homomorphism, the one taking the lowest vertex of every set, so growing each
homomorphism h only by vertices above h(u) at each u produces every cell of
the component exactly once, with no set of cells seen. `HomPoset` keeps the
cells in ascending order; inclusion is one AND, the cellular chain complex
grades a cell by its popcount and finds each face by clearing one bit.
The Betti numbers come from an acyclic matching on the cells
(`_critical_counts`), one bit from the highest down: when it leaves no critical
cell above dimension 1 the component is a wedge of circles with free
homology, and only otherwise is the cellular chain complex built and ranked.
`component_summary` folds the top vertices that are pairwise non-adjacent:
the matching takes their bits first and leaves one cell over each choice of
sets on the other vertices, so its walk counts the rest and keeps only
those cells. `larger_cells`, the cells one image vertex above a cell
given as a tuple of masks, serves the fiber's covering check. The
homomorphisms, the cells of one-point sets, stay the walk's mapping tuples
and are a component summary's members; only the census's seed of each
component becomes a `GraphHom`. The census walks one component per orbit
of Aut(G) and Aut(H) and reads the others off by relabelling:
precomposition with an automorphism of G, or postcomposition with one of
H, carries a component onto one with the same cells, Betti numbers,
homomorphism count and edge-factoring marker, so only its members change.
Each automorphism search has a step budget in proportion to the mappings
left unclaimed; a component no generator found reaches is walked.
The order complex of the face poset, the barycentric subdivision, is the
tests' independent oracle (tests/oracles.py), built from
`HomPoset.strict_upsets`; so are the matching's counts and Betti numbers
over every cell of a component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotHomomorphism
from .graphs import (
    DEFAULT_CAP,
    Graph,
    GraphHom,
    closure,
    common_neighbors,
    graph_to_json,
    maps_into_edge,
    mask_bits,
    _automorphism_generators,
    _is_int,
    _over_cap,
    _require_cap,
    _search_order,
)
from .homology import ChainComplex


class SetValuedHom:
    """A pointwise-nonempty set assignment whose cross pairs are all edges."""

    __slots__ = ("domain", "codomain", "sets", "_hash")

    def __init__(self, domain, codomain, sets):
        sets = tuple(frozenset(s) for s in sets)
        if len(sets) != domain.n:
            raise NotHomomorphism("one set per domain vertex is required")
        for u, s in enumerate(sets):
            if not s:
                raise NotHomomorphism(f"empty set at vertex {u}")
            for x in s:
                if not (_is_int(x) and 0 <= x < codomain.n):
                    raise NotHomomorphism(f"image vertex {x!r} out of range")
        for u, v in domain.edges:
            for x in sets[u]:
                for y in sets[v]:
                    if not codomain.has_edge(x, y):
                        raise NotHomomorphism(
                            f"pair ({x}, {y}) across edge ({u}, {v}) is not an edge"
                        )
        self.domain = domain
        self.codomain = codomain
        self.sets = sets
        self._hash = hash((domain, codomain, sets))

    def key(self):
        return tuple(tuple(sorted(s)) for s in self.sets)

    def is_singleton(self):
        return all(len(s) == 1 for s in self.sets)

    def as_graph_hom(self):
        if not self.is_singleton():
            raise NotHomomorphism("not singleton-valued")
        return GraphHom(self.domain, self.codomain, (min(s) for s in self.sets))

    def __eq__(self, other):
        return (
            isinstance(other, SetValuedHom)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.sets == other.sets
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SetValuedHom({self.key()})"

    def to_json(self):
        return {"sets": [list(s) for s in self.key()]}


def _hom_mappings(G, H, cap=DEFAULT_CAP):
    """Every homomorphism G -> H as a mapping tuple, in first-found order.

    Vertices are assigned depth first in breadth-first order, so each new
    vertex is constrained by an already-assigned neighbor whenever possible.
    Each position holds its untried images as one bitmask and takes the
    lowest next. More than cap of them raises ExplosionGuard.
    """
    _require_cap(cap)
    order, earlier = _search_order(G)
    m = len(order)
    nbr = H.adj_masks
    everything = (1 << H.n) - 1
    image = [0] * m
    untried = [everything] * m
    count = i = 0
    while i >= 0:
        if i == m:
            count += 1
            if count > cap:
                raise _over_cap("graph homomorphisms", count, cap)
            yield tuple(image)
            i -= 1
            continue
        left = untried[i]
        if not left:
            i -= 1
            continue
        low = left & -left
        untried[i] = left ^ low
        image[order[i]] = low.bit_length() - 1
        i += 1
        if i < m:
            room = everything
            for v in earlier[i]:
                room &= nbr[image[v]]
            untried[i] = room


def enumerate_graph_homs(G, H, cap=DEFAULT_CAP):
    """All homomorphisms G -> H by backtracking, in lexicographic mapping order."""
    return [GraphHom(G, H, m) for m in sorted(_hom_mappings(G, H, cap))]


def has_hom(G, H):
    """Whether there is at least one homomorphism G -> H."""
    return next(_hom_mappings(G, H), None) is not None


@dataclass(frozen=True)
class HomPoset:
    """A component of Hom(G, H): each cell packed into one int, ascending.

    The image set of vertex u is the bitmask cell >> (u * |V(H)|) &
    (2**|V(H)| - 1), so pointwise inclusion is one AND and the dimension of
    a cell is its popcount minus |V(G)|. hom_mappings holds the
    homomorphisms, the cells of one-point sets, as mapping tuples in
    lexicographic order.
    """

    domain: Graph
    codomain: Graph
    cells: tuple
    hom_mappings: tuple

    def __len__(self):
        return len(self.cells)

    def leq(self, i, j):
        return not self.cells[i] & ~self.cells[j]

    def singletons(self):
        """The homomorphisms in the component as one-point set-valued ones."""
        return [
            SetValuedHom(self.domain, self.codomain, ({x} for x in m)) for m in self.hom_mappings
        ]

    def strict_upsets(self):
        """greater[i] = indices strictly above element i."""
        n = len(self.cells)
        return [[j for j in range(n) if j != i and self.leq(i, j)] for i in range(n)]


def larger_cells(G, H, cell):
    """The cells one image vertex above cell: add at u a vertex x adjacent to
    every vertex in the sets at the neighbors of u, which is exactly when the
    result is again a set-valued homomorphism."""
    out = []
    for u, s in enumerate(cell):
        near = 0
        for v in G.neighbors(u):
            near |= cell[v]
        room = common_neighbors(H, near) & ~s
        out.extend(cell[:u] + (s | (1 << x),) + cell[u + 1 :] for x in mask_bits(room))
    return out


def _submasks(mask):
    """Every submask of an int bitmask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def enumerate_component(G, H, f, cap=DEFAULT_CAP):
    """The full poset component of the GraphHom f.

    The walk is a closure over the homomorphisms, moving one vertex u to
    another common neighbor of the images of its neighbors. Each
    homomorphism h is visited once: its rooms, the common neighbors at each
    u, give its moves and the cells whose least homomorphism it is, where u
    grows by a subset of its room above h(u), cut down to the common
    neighbors of each earlier neighbor's set. More than cap homomorphisms,
    or more than cap cells, raises ExplosionGuard; the cells are counted as
    they grow, and each partial cell grows into at least one cell. A seed that is not a map
    G -> H raises NotHomomorphism.
    """
    homs, cells, _, _ = _walk(G, H, f, cap, G.n)
    return HomPoset(G, H, tuple(sorted(cells)), homs)


def _fold_start(G):
    """The least s such that the vertices s .. |V(G)| - 1 are pairwise
    non-adjacent: one more than the lower end of the highest edge."""
    return max((u for u, _ in G.edges), default=-1) + 1


def _walk(G, H, f, cap, start):
    """The walk of enumerate_component with the vertices from start up
    folded: cells grow below start only, and each such rest r, grown from h,
    stands for 2^(sum_t |fit_t|) cells, fit_t the room R_t(r) above h(t) at
    each folded t. All count toward the size and the cap; r with h(t) at each
    t is kept only when every fit is empty. Returns the sorted homomorphisms,
    the kept cells, the count of all cells and the top dimension of those not
    kept (negative if none). start = |V(G)| keeps every cell."""
    _require_cap(cap)
    if not isinstance(f, GraphHom) or f.domain != G or f.codomain != H:
        raise NotHomomorphism("the seed does not map the given domain to the given target")
    n = H.n
    nbr = H.adj_masks
    everything = (1 << n) - 1
    adj = [G.neighbors(u) for u in G.vertices()]
    kept = []
    dropped = top = 0  # cells counted but not kept, and their top popcount

    def check(more):
        if len(kept) + dropped + more > cap:
            raise _over_cap("component elements", cap + 1, cap)

    def visit(h):
        """Grow the cells whose least homomorphism is h; return h's moves."""
        nonlocal dropped, top
        moves, grew, folded = [], set(), []
        level = [sum(1 << (u * n + x) for u, x in enumerate(h))]
        for u, x in enumerate(h):
            room = everything
            for v in adj[u]:
                room &= nbr[h[v]]
            other = room & ~(1 << x)
            while other:
                low = other & -other
                other ^= low
                moves.append(h[:u] + (low.bit_length() - 1,) + h[u + 1 :])
            above = room & ~((2 << x) - 1)
            if not above:
                continue
            watch = [v * n for v in adj[u] if v in grew]
            if u >= start:
                # over a rest, each folded u adds to h(u) any subset of its fit
                folded.append((above, watch))
                continue
            grew.add(u)
            grown = []
            for cell in level:
                fit = above
                for shift in watch:
                    s = cell >> shift & everything
                    if s & (s - 1):
                        fit &= common_neighbors(H, s)
                check(len(grown) + (1 << fit.bit_count()))
                grown.extend(cell | sub for sub in _submasks(fit << u * n))
            level = grown
        if not folded:
            kept.extend(level)
        else:
            for cell in level:
                spare = 0
                for fit, watch in folded:
                    for shift in watch:
                        s = cell >> shift & everything
                        if s & (s - 1):
                            fit &= common_neighbors(H, s)
                    spare += fit.bit_count()
                if spare:
                    dropped += 1 << spare
                    top = max(top, cell.bit_count() + spare)
                else:
                    kept.append(cell)
        check(0)
        return moves

    homs = closure(f.mapping, visit, cap, "component elements")
    return tuple(sorted(homs)), kept, len(kept) + dropped, top - G.n


def cellular_chain_complex(P):
    """The cellular chain complex of a component of Hom(G, H).

    The d-cells are the cells of dimension d, popcount(cell) - |V(G)|, in
    ascending order. Each cell is a product of simplices, so its boundary
    clears one bit at a time: clearing the i-th lowest set bit of eta(u)
    (counting from 0), where eta(u) has at least two, carries the sign
    (-1)^(i + sum over v < u of (popcount(eta(v)) - 1)).
    """
    m, n = P.domain.n, P.codomain.n
    everything = (1 << n) - 1
    levels = {}
    for cell in P.cells:
        levels.setdefault(cell.bit_count() - m, []).append(cell)
    grades = [levels.get(d, []) for d in range(max(levels, default=-1) + 1)]
    boundaries = [tuple(() for _ in grades[0])] if grades else []
    for d in range(1, len(grades)):
        index = {cell: i for i, cell in enumerate(grades[d - 1])}
        cols = []
        for cell in grades[d]:
            entries = []
            i = 0  # the sign exponent of the next bit cleared
            for u in range(0, m * n, n):
                s = cell >> u & everything
                if s & (s - 1):
                    while s:
                        low = s & -s
                        s ^= low
                        face = index.get(cell ^ low << u)
                        if face is None:
                            raise InvariantViolation(f"a face of {cell:#x} is not in the component")
                        entries.append((face, -1 if i % 2 else 1))
                        i += 1
                    i -= 1  # a set of b vertices adds b - 1 to the exponent
            cols.append(tuple(entries))
        boundaries.append(tuple(cols))
    return ChainComplex(tuple(map(len, grades)), tuple(boundaries))


def _critical_counts(cells, m, n, top=0):
    """The cells of each dimension, 0 to the top of cells and top, that the
    acyclic matching leaves unmatched. It is a sequence of element matchings
    (Jonsson, Simplicial Complexes of Graphs, 2008, section 4), one per bit
    from the highest down: each cell c that holds the bit and is still
    unmatched is paired with c ^ bit when that face is among cells and still
    unmatched too. Within one bit the pairs are disjoint, and such a
    sequence is acyclic. The faces of c clear one bit of a set of two or
    more vertices: c & (c - base) clears the lowest vertex of every set, so
    the sets it leaves nonempty are those whose bits are faces.
    """
    everything = (1 << n) - 1
    base = sum(1 << u * n for u in range(m))  # bit u * n for every u
    holding = {}  # bit index -> the cells with that face bit
    for cell in cells:
        rest = cell & (cell - base)
        while rest:
            shift = (rest.bit_length() - 1) // n * n
            rest &= (1 << shift) - 1
            s = cell >> shift & everything
            while s:
                low = s & -s
                s ^= low
                holding.setdefault(shift + low.bit_length() - 1, []).append(cell)
    unmatched = set(cells)
    for b in sorted(holding, reverse=True):
        bit = 1 << b
        for cell in holding[b]:
            if cell in unmatched and cell ^ bit in unmatched:
                unmatched.remove(cell)
                unmatched.remove(cell ^ bit)
    critical = [0] * (max([top, *(cell.bit_count() - m for cell in cells)]) + 1)
    for cell in unmatched:
        critical[cell.bit_count() - m] += 1
    return tuple(critical)


def _betti(critical, walk):
    """The Betti numbers of a component from its critical cell counts.

    When no critical cell of the acyclic matching lies above dimension 1,
    the component is homotopy equivalent to a graph with c0 vertices and c1
    edges (Forman, Morse theory for cell complexes, 1998). That graph is
    connected, because the walk joins the homomorphisms by one-vertex moves
    and each move is a 1-cell, so b_0 = 1, b_1 = c1 - c0 + 1, and the
    homology is free. Otherwise b_0 .. b_top come from the exact ranks of
    every boundary of the cellular chain complex of walk(), the full
    component. Its cells and the critical ones have the same alternating
    sum, as matched pairs cancel and the cells the fold drops over each rest
    sum to zero; a mismatch, a fault in the fold or the matching, raises
    InvariantViolation.
    """
    top = len(critical) - 1
    if not any(critical[2:]):
        return _truncate((1, critical[1] - critical[0] + 1 if top else 0), top)
    C = cellular_chain_complex(walk())
    euler = sum((-1) ** d * n for d, n in enumerate(C.counts))
    if sum((-1) ** d * c for d, c in enumerate(critical)) != euler:
        raise InvariantViolation(
            f"critical cells {critical} disagree with the Euler characteristic {euler}"
        )
    return C.betti()


def _truncate(betti, max_dim):
    return betti[: max_dim + 1] + (0,) * (max_dim + 1 - len(betti))


@dataclass(frozen=True)
class ComponentSummary:
    """One component: cell count, its homomorphisms as mapping tuples in
    lexicographic order, Betti numbers of every degree, and whether some
    member factors through an edge."""

    size: int
    members: tuple
    cell_betti: tuple
    k2_factoring: bool

    @property
    def representative(self):
        """The lexicographically least mapping of the component."""
        return self.members[0]

    @property
    def betti(self):
        """b_0 .. b_2."""
        return _truncate(self.cell_betti, 2)

    def to_json(self):
        return {
            "betti": list(self.betti),
            "homs": len(self.members),
            "k2_factoring": self.k2_factoring,
            "representative": {"mapping": list(self.representative)},
            "size": self.size,
        }


def component_summary(G, H, f, cap=DEFAULT_CAP):
    """The size, mappings, Betti numbers and edge-factoring marker of the
    component of the GraphHom f; a seed that is not a map G -> H raises
    NotHomomorphism. The fold set T, the vertices from _fold_start(G) up,
    is independent, so over a rest r, a choice of sets on the other
    vertices, the cells form a product of full simplices, one on each room
    R_t(r). The matching takes T's bits first and pairs away all of them but
    r + {max R_t(r)}, the cells the walk keeps. Later stages pair unmatched
    cells only, and a face not kept is matched already, so the kept cells,
    a face counting only if kept, leave the full matching's critical cells.
    Only when one lies above dimension 1 is the whole component walked."""
    members, kept, size, top = _walk(G, H, f, cap, _fold_start(G))
    critical = _critical_counts(kept, G.n, H.n, top)
    betti = _betti(critical, lambda: enumerate_component(G, H, f, cap=cap))
    return ComponentSummary(size, members, betti, any(maps_into_edge(H, m) for m in members))


_SEARCH_STEPS = 4  # domain automorphism search steps per vertex and unclaimed mapping


def component_census(G, H, cap=DEFAULT_CAP):
    """Every component of the homomorphism poset, with homology and markers.

    Components are listed by their lexicographically least homomorphism. In
    sorted order, the first mapping no component has claimed is the least
    of a new one, and its component is walked. Precomposition with an
    automorphism g of G, x -> x o g, and postcomposition with an
    automorphism s of H, x -> s o x, map each component onto one with the
    same cells, Betti numbers, homomorphism count and edge-factoring marker,
    so the images of a walked component under the generators of Aut(G) and
    of Aut(H), and theirs in turn, are read off by relabelling its members.
    An image whose least member is unclaimed is a new component; one whose
    least member is claimed must equal the component that claimed it. Every
    claimed mapping must be one the backtracking enumeration found and not
    yet claimed, and a walk's least member must be its seed. The generators
    are searched for only once a walk leaves a mapping unclaimed, and
    relabelling stops once every mapping is claimed. With left mappings
    unclaimed then, the search of G may spend _SEARCH_STEPS * |V(G)| * left
    steps and that of H left steps, each a constant times the enumeration
    that found them; generators a search misses only leave their images to
    be walked.
    """
    mappings = sorted(_hom_mappings(G, H, cap))
    owner = dict.fromkeys(mappings)  # mapping -> the summary claiming it
    left = len(mappings)
    summaries = []
    relabellings = None

    def claim(s):
        nonlocal left
        for x in s.members:
            if x not in owner or owner[x] is not None:
                raise InvariantViolation("components do not partition the homomorphism set")
            owner[x] = s
        left -= len(s.members)
        summaries.append(s)

    for m in mappings:
        if not left:
            break
        if owner[m] is not None:
            continue
        s = component_summary(G, H, GraphHom(G, H, m), cap=cap)
        if s.representative != m:
            raise InvariantViolation("components do not partition the homomorphism set")
        claim(s)
        queue = [s]
        while queue and left:
            if relabellings is None:
                relabellings = [
                    lambda x, g=g: tuple(map(x.__getitem__, g))
                    for g in _automorphism_generators(G, _SEARCH_STEPS * G.n * left)
                ] + [
                    lambda x, a=a: tuple(map(a.__getitem__, x))
                    for a in _automorphism_generators(H, left)
                ]
            t = queue.pop()
            for relabel in relabellings:
                image = tuple(sorted(map(relabel, t.members)))
                other = owner.get(image[0])
                if other is None:
                    other = ComponentSummary(t.size, image, t.cell_betti, t.k2_factoring)
                    claim(other)
                    queue.append(other)
                    if not left:
                        break
                elif other.members != image:
                    raise InvariantViolation("components do not partition the homomorphism set")
    summaries.sort(key=lambda s: s.members[0])
    return summaries


def census_report(G, H, cap=DEFAULT_CAP):
    """The census of Hom(G, H) as a JSON-ready dict: one summary per component and both graphs."""
    summaries = component_census(G, H, cap=cap)
    return {
        "components": [s.to_json() for s in summaries],
        "graph_meta": {"codomain": graph_to_json(H), "domain": graph_to_json(G)},
    }
