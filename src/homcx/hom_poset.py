"""The poset of set-valued homomorphisms between two graphs.

A set-valued homomorphism assigns each vertex of G a nonempty set of vertices
of H so that every cross pair along an edge of G is an edge of H. Each one is
a cell of the polyhedral complex Hom(G, H): the product over u of the simplex
on its image set, of dimension sum_u (|eta(u)| - 1). Ordered by pointwise
inclusion, the cells form the face poset of that complex. Connected
components are discovered by a walk over cells held as tuples of int
bitmasks over V(H): each move removes one image vertex, or adds one
adjacent to every vertex in the sets at the neighbors, which reaches
exactly the elements connected through comparability zigzags.
Homology is computed on the cellular chain complex of each component; the
order complex of its face poset, the barycentric subdivision, is the tests'
independent oracle (tests/oracles.py), built from `HomPoset.strict_upsets`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolation, NotHomomorphism
from .graphs import (
    GraphHom,
    backtrack,
    bfs_order,
    closure,
    common_neighbors,
    graph_to_json,
    mask_bits,
    neighbor_masks,
)
from .homology import ChainComplex

DEFAULT_CAP = 200_000


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
        self._hash = hash((domain, codomain, self.key()))

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


def enumerate_graph_homs(G, H, cap=DEFAULT_CAP, first_only=False):
    """All homomorphisms G -> H by backtracking, in lexicographic mapping order.

    Vertices are assigned in breadth-first order so each new vertex is
    constrained by an already-assigned neighbor whenever possible.
    """
    nbr = neighbor_masks(H)
    everything = (1 << H.n) - 1

    def candidates(u, partial):
        mask = everything
        for v in G.neighbors(u):
            if v in partial:
                mask &= nbr[partial[v]]
        return mask_bits(mask)

    found = backtrack(bfs_order(G), candidates, cap, "graph homomorphisms")
    homs = (GraphHom(G, H, [a[u] for u in G.vertices()]) for a in found)
    if first_only:
        return list(itertools.islice(homs, 1))
    return sorted(homs, key=lambda f: f.mapping)


def has_hom(G, H):
    return bool(enumerate_graph_homs(G, H, first_only=True))


@dataclass(frozen=True)
class HomPoset:
    """A set of set-valued homomorphisms, closed under comparability zigzags."""

    elements: tuple

    @classmethod
    def from_elements(cls, elements):
        return cls(tuple(sorted(elements, key=lambda e: e.key())))

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return self.elements[i].leq(self.elements[j])

    def singletons(self):
        return [e for e in self.elements if e.is_singleton()]

    def strict_upsets(self):
        """greater[i] = indices strictly above element i."""
        n = len(self.elements)
        greater = [[] for _ in range(n)]
        for i, j in itertools.permutations(range(n), 2):
            if self.leq(i, j):
                greater[i].append(j)
        return [sorted(g) for g in greater]


def enumerate_component(G, H, f, cap=DEFAULT_CAP):
    """The full poset component of f, a GraphHom or a SetValuedHom.

    Cells are walked as tuples of int bitmasks over V(H). A move removes one
    element from a set of size at least two, or adds a vertex x at u when x
    is adjacent to every vertex in the sets at the neighbors of u, which is
    exactly when the result is again a set-valued homomorphism.
    """
    if isinstance(f, GraphHom):
        f = SetValuedHom.from_graph_hom(f)
    nbr = neighbor_masks(H)

    def moves(cell):
        out = []
        for u, s in enumerate(cell):
            if s & (s - 1):
                out.extend(cell[:u] + (s ^ (1 << x),) + cell[u + 1 :] for x in mask_bits(s))
            near = 0
            for v in G.neighbors(u):
                near |= cell[v]
            room = common_neighbors(nbr, near) & ~s
            out.extend(cell[:u] + (s | (1 << x),) + cell[u + 1 :] for x in mask_bits(room))
        return out

    start = tuple(sum(1 << x for x in s) for s in f.sets)
    cells = closure(start, moves, cap, "component elements")
    # one frozenset per distinct mask, shared by every cell that uses it,
    # so the returned poset holds far fewer sets than cells
    frozen = {s: frozenset(mask_bits(s)) for s in {s for cell in cells for s in cell}}
    return HomPoset.from_elements(
        SetValuedHom(G, H, (frozen[s] for s in cell)) for cell in cells
    )


def cellular_chain_complex(P):
    """The cellular chain complex of a component of Hom(G, H).

    The d-cells are the elements of dimension d, in key order. Each cell is
    a product of simplices, so its boundary removes one image vertex at a
    time: dropping the i-th smallest element of eta(u) (counting from 0),
    where |eta(u)| >= 2, carries the sign (-1)^(i + sum over v < u of
    (|eta(v)| - 1)).
    """
    levels = {}
    for e in P.elements:
        key = e.key()
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
    """One component; betti is b_0 .. b_2, cell_betti every degree."""

    poset: HomPoset
    betti: tuple
    k2_factoring: bool
    representative: GraphHom
    cell_betti: tuple

    def to_json(self):
        return {
            "betti": list(self.betti),
            "homs": len(self.poset.singletons()),
            "k2_factoring": self.k2_factoring,
            "representative": {"mapping": list(self.representative.mapping)},
            "size": len(self.poset),
        }


def component_census(G, H, cap=DEFAULT_CAP):
    """Every component of the homomorphism poset, with homology and markers.

    Components are listed by their lexicographically least homomorphism.
    """
    homs = enumerate_graph_homs(G, H, cap=cap)
    summaries = []
    assigned = set()
    for f in homs:
        if f in assigned:
            continue
        P = enumerate_component(G, H, f, cap=cap)
        members = [s.as_graph_hom() for s in P.singletons()]
        assigned.update(members)
        rep = min(members, key=lambda h: h.mapping)
        cell_betti = cellular_betti(P)
        summaries.append(
            ComponentSummary(
                poset=P,
                betti=_truncate(cell_betti, 2),
                k2_factoring=any(h.factors_through_edge() for h in members),
                representative=rep,
                cell_betti=cell_betti,
            )
        )
    summaries.sort(key=lambda s: s.representative.mapping)
    total = sum(len(s.poset.singletons()) for s in summaries)
    if total != len(homs):
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
