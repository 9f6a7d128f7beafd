"""The poset of set-valued homomorphisms between two graphs.

A set-valued homomorphism assigns each vertex of G a nonempty set of vertices
of H so that every cross pair along an edge of G is an edge of H. Each one is
a cell of the polyhedral complex Hom(G, H): the product over u of the simplex
on its image set, of dimension sum_u (|eta(u)| - 1). Ordered by pointwise
inclusion, the cells form the face poset of that complex.

A cell is a tuple of int bitmasks over V(H), one per vertex of G, from the
component walk to the boundary matrix. The walk's moves remove one image
vertex (`smaller_cells`), or add one adjacent to every vertex in the sets at
the neighbors (`larger_cells`), which reaches exactly the cells connected
through comparability zigzags.
`HomPoset` keeps the masks the walk returns, and the cellular chain complex
grades them by popcount and finds faces by clearing one bit. Only the
homomorphisms, the cells of one-point sets, become `GraphHom`s. The
order complex of the face poset, the barycentric subdivision, is the tests'
independent oracle (tests/oracles.py), built from `HomPoset.strict_upsets`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotHomomorphism
from .graphs import (
    DEFAULT_CAP,
    Graph,
    GraphHom,
    backtrack,
    bfs_order,
    closure,
    common_neighbors,
    graph_to_json,
    mask_bits,
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
                if not (0 <= x < codomain.n):
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

    def leq(self, other):
        """Pointwise inclusion."""
        return all(a <= b for a, b in zip(self.sets, other.sets))

    def is_singleton(self):
        return all(len(s) == 1 for s in self.sets)

    def as_graph_hom(self):
        if not self.is_singleton():
            raise NotHomomorphism("not singleton-valued")
        return GraphHom(self.domain, self.codomain, (min(s) for s in self.sets))

    @classmethod
    def from_graph_hom(cls, f):
        return cls(f.domain, f.codomain, ({x} for x in f.mapping))

    def norm(self):
        return sum(len(s) for s in self.sets)

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


def post_compose(k, phi):
    """Apply a homomorphism k: H -> K to every image set of phi."""
    if k.domain != phi.codomain:
        raise NotHomomorphism("composition mismatch: k must start where phi lands")
    return SetValuedHom(
        phi.domain, k.codomain, (frozenset(k(x) for x in s) for s in phi.sets)
    )


def _hom_mappings(G, H, cap=DEFAULT_CAP):
    """Every homomorphism G -> H as a mapping tuple, in first-found order.

    Vertices are assigned in breadth-first order so each new vertex is
    constrained by an already-assigned neighbor whenever possible.
    """
    nbr = H.adj_masks
    everything = (1 << H.n) - 1

    def candidates(u, partial):
        mask = everything
        for v in G.neighbors(u):
            if v in partial:
                mask &= nbr[partial[v]]
        return mask_bits(mask)

    found = backtrack(bfs_order(G), candidates, cap, "graph homomorphisms")
    return (tuple(a[u] for u in G.vertices()) for a in found)


def enumerate_graph_homs(G, H, cap=DEFAULT_CAP):
    """All homomorphisms G -> H by backtracking, in lexicographic mapping order."""
    return [GraphHom(G, H, m) for m in sorted(_hom_mappings(G, H, cap))]


def has_hom(G, H):
    return next(_hom_mappings(G, H), None) is not None


@dataclass(frozen=True)
class HomPoset:
    """A component of Hom(G, H): its cells as tuples of int bitmasks over V(H).

    cells[i][u] is the image set of vertex u. Cells are in key order, the
    order of their image sets as sorted vertex lists.
    """

    domain: Graph
    codomain: Graph
    cells: tuple

    def __len__(self):
        return len(self.cells)

    def leq(self, i, j):
        return not any(a & ~b for a, b in zip(self.cells[i], self.cells[j]))

    def homs(self):
        """The homomorphisms in the component, built once from the cells of
        one-point sets."""
        return [
            GraphHom(self.domain, self.codomain, (s.bit_length() - 1 for s in cell))
            for cell in self.cells
            if not any(s & (s - 1) for s in cell)
        ]

    def singletons(self):
        """The homomorphisms in the component: the cells of one-point sets."""
        return [
            SetValuedHom(self.domain, self.codomain, ({s.bit_length() - 1} for s in cell))
            for cell in self.cells
            if not any(s & (s - 1) for s in cell)
        ]

    def strict_upsets(self):
        """greater[i] = indices strictly above element i."""
        n = len(self.cells)
        return [[j for j in range(n) if j != i and self.leq(i, j)] for i in range(n)]


def _bit_lists(cells):
    """mask_bits of every distinct mask in cells."""
    return {s: mask_bits(s) for s in {s for cell in cells for s in cell}}


def smaller_cells(cell):
    """The cells one image vertex below cell: drop one element from a set of
    two or more."""
    out = []
    for u, s in enumerate(cell):
        if s & (s - 1):
            out.extend(cell[:u] + (s ^ (1 << x),) + cell[u + 1 :] for x in mask_bits(s))
    return out


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


def enumerate_component(G, H, f, cap=DEFAULT_CAP):
    """The full poset component of f, a GraphHom or a SetValuedHom.

    Cells are walked as tuples of int bitmasks over V(H), down through
    smaller_cells and up through larger_cells.
    """

    def moves(cell):
        return smaller_cells(cell) + larger_cells(G, H, cell)

    sets = ([x] for x in f.mapping) if isinstance(f, GraphHom) else f.sets
    start = tuple(sum(1 << x for x in s) for s in sets)
    cells = closure(start, moves, cap, "component elements")
    bits = _bit_lists(cells)
    return HomPoset(G, H, tuple(sorted(cells, key=lambda cell: [bits[s] for s in cell])))


def cellular_chain_complex(P):
    """The cellular chain complex of a component of Hom(G, H).

    The d-cells are the cells of dimension d, sum over u of
    (popcount(eta(u)) - 1), in key order. Each cell is a product of
    simplices, so its boundary clears one bit at a time: clearing the i-th
    lowest set bit of eta(u) (counting from 0), where eta(u) has at least
    two, carries the sign (-1)^(i + sum over v < u of (popcount(eta(v)) - 1)).
    """
    levels = {}
    for cell in P.cells:
        levels.setdefault(sum(s.bit_count() for s in cell) - P.domain.n, []).append(cell)
    grades = [levels.get(d, []) for d in range(max(levels, default=-1) + 1)]
    boundaries = [tuple(() for _ in grades[0])] if grades else []
    bits = _bit_lists(P.cells)
    for d in range(1, len(grades)):
        index = {cell: i for i, cell in enumerate(grades[d - 1])}
        cols = []
        for cell in grades[d]:
            entries = []
            shift = 0
            for u, s in enumerate(cell):
                if s & (s - 1):
                    for i, x in enumerate(bits[s]):
                        face = index.get(cell[:u] + (s ^ (1 << x),) + cell[u + 1 :])
                        if face is None:
                            raise InvariantViolation(f"a face of {cell} is not in the component")
                        entries.append((face, -1 if (i + shift) % 2 else 1))
                shift += s.bit_count() - 1
            cols.append(tuple(entries))
        boundaries.append(tuple(cols))
    return ChainComplex(tuple(map(len, grades)), tuple(boundaries))


def cellular_betti(P):
    """Every Betti number b_0 .. b_top of the component's cell complex.

    The alternating sum of the Betti numbers must equal that of the cell
    counts; a mismatch raises InvariantViolation.
    """
    C = cellular_chain_complex(P)
    betti = C.betti(len(C.counts) - 1)
    euler = sum((-1) ** d * n for d, n in enumerate(C.counts))
    if sum((-1) ** d * b for d, b in enumerate(betti)) != euler:
        raise InvariantViolation(
            f"Betti numbers {betti} disagree with the Euler characteristic {euler}"
        )
    return betti


def component_betti(P, max_dim=2):
    """Betti numbers b_0 .. b_max_dim of the component, zero above its top cell."""
    return _truncate(cellular_betti(P), max_dim)


def _truncate(betti, max_dim):
    return betti[: max_dim + 1] + (0,) * (max_dim + 1 - len(betti))


@dataclass(frozen=True)
class ComponentSummary:
    """One component: cell count, homomorphisms in mapping order, Betti
    numbers of every degree, and whether some member factors through an edge."""

    size: int
    members: tuple
    cell_betti: tuple
    k2_factoring: bool

    @property
    def representative(self):
        """The lexicographically least homomorphism of the component."""
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
            "representative": {"mapping": list(self.representative.mapping)},
            "size": self.size,
        }


def component_summary(G, H, f, cap=DEFAULT_CAP):
    """Walk the component of the GraphHom f, build its homomorphisms once, and
    take its Betti numbers and its edge-factoring marker."""
    P = enumerate_component(G, H, f, cap=cap)
    members = tuple(P.homs())
    return ComponentSummary(
        len(P), members, cellular_betti(P), any(h.factors_through_edge() for h in members)
    )


def component_census(G, H, cap=DEFAULT_CAP):
    """Every component of the homomorphism poset, with homology and markers.

    Components are listed by their lexicographically least homomorphism: in
    sorted order, the first mapping no component has claimed is the least
    of a new one.
    """
    mappings = sorted(_hom_mappings(G, H, cap))
    summaries = []
    assigned = set()
    for m in mappings:
        if m in assigned:
            continue
        s = component_summary(G, H, GraphHom(G, H, m), cap=cap)
        assigned.update(h.mapping for h in s.members)
        summaries.append(s)
    if sum(len(s.members) for s in summaries) != len(mappings):
        raise InvariantViolation(
            "components do not partition the homomorphism set"
        )
    return summaries


def census_report(G, H, cap=DEFAULT_CAP):
    summaries = component_census(G, H, cap=cap)
    return {
        "components": [s.to_json() for s in summaries],
        "graph_meta": {"codomain": graph_to_json(H), "domain": graph_to_json(G)},
    }
