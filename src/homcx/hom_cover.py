"""The universal cover of a component of the homomorphism poset.

Fix a homomorphism f: G -> H. The fiber over f consists of set-valued maps
phi assigning each vertex u a nonempty finite set of reduced walks in H
starting at f(u), with every cross pair along a G-edge adjacent in the
reduced-walk graph. The connected component of the all-trivial-walks element
covers the component of f; taking walk targets pointwise is the covering
projection.

Its bounded part is walked over the singleton elements, each growing, once,
the elements whose least walks it holds. A singleton's candidate walks at a
vertex are the conjugates of its walk at that vertex's first neighbor, built
once per walk and shared by every singleton that holds it. Each walk and
cross pair is tested as it is added, so the walked elements, and the deck
transformations read off them, skip the constructor's checks. An element is
held as its key, the sorted vertex tuples of each walk set, which the walk,
the checks and the readers here all use, and its norm, which the walk
counts as it grows the element; `EfElement.sets` builds the `ReducedWalk`s
on demand for the operations that take or return walks.

Membership in that component has a closed-form test when H is square-free:
all walk lengths must be even, and any vertex lying on a tight closed walk
(one whose f-image is cyclically reduced) must carry exactly its trivial
walk. Tight vertices are found by Kosaraju's two passes, the second a
`graphs.closure`. Self-homotopies of f act on the fiber as deck
transformations, the singleton members of the identity component that return
to f: each `GammaElement` is an `EfElement`. The local covering check groups
the walked elements by projection, read off the key as int bitmasks, takes
the base elements above each from `hom_poset.larger_cells`, and counts the
lifts of a target among the elements in its group. The steps of the proof
that only the tests check, the sink-truncation filtration with its
closure/interior pair (tests/oracles.py), the explicit down lift and the
deck action on elements (tests/test_hom_cover.py), live under tests/.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    InvariantViolation,
    NoSink,
    NotConnected,
    NotInDomain,
    NotInFiber,
    NotNeighbor,
)
from .graphs import (
    GraphHom,
    _over_cap,
    closure,
    is_connected,
    is_square_free,
    mask_bits,
    require_square_free,
    require_vertex,
)
from .hom_poset import DEFAULT_CAP, SetValuedHom, larger_cells
from .pi_graph import Homotopy, walks_adjacent
from .walks import ReducedWalk, conjugate, trivial_walk, walk_inverse, walk_product


class EfElement:
    """A fiber element: vertex-indexed sets of reduced walks over f, held as
    its key, the sorted vertex tuples of each set, and its norm, the sum
    over vertices of the longest walk's length."""

    __slots__ = ("base_hom", "_key", "_hash", "_norm")

    def __init__(self, base_hom, sets):
        f = base_hom
        G, H = f.domain, f.codomain
        sets = tuple(frozenset(s) for s in sets)
        if len(sets) != G.n:
            raise NotInFiber("one walk set per domain vertex is required")
        for u, s in enumerate(sets):
            if not s:
                raise NotInFiber(f"empty walk set at vertex {u}")
            for w in s:
                if not isinstance(w, ReducedWalk) or w.graph != H:
                    raise NotInFiber(f"entry at vertex {u} is not a reduced walk in H")
                if w.source != f(u):
                    raise NotInFiber(f"walk at vertex {u} starts at {w.source}, the fiber needs {f(u)}")
        key = tuple(tuple(sorted(w.vertices for w in s)) for s in sets)
        for u, v in G.edges:
            for a, b in itertools.product(key[u], key[v]):
                if not walks_adjacent(H, a, b):
                    raise NotNeighbor(f"walks {a} at {u} and {b} at {v} are not adjacent")
        self.base_hom, self._key, self._hash = f, key, hash((f, key))
        self._norm = sum(max(map(len, s)) - 1 for s in key)

    @classmethod
    def _from_checked(cls, base_hom, key, norm):
        """An element whose key passed every check of __init__, and whose
        norm is norm."""
        self = object.__new__(cls)
        self.base_hom, self._key, self._hash = base_hom, key, hash((base_hom, key))
        self._norm = norm
        return self

    @property
    def sets(self):
        """The walk sets as frozensets of ReducedWalks, built on each call."""
        H = self.base_hom.codomain
        return tuple(frozenset(ReducedWalk._from_checked(H, w) for w in s) for s in self._key)

    def key(self):
        return self._key

    def len_at(self, u):
        return max(map(len, self._key[u])) - 1

    def norm(self):
        return self._norm

    def is_singleton(self):
        return max(map(len, self._key), default=1) == 1

    def maximal_walks(self, u):
        """The longest walks at u, as vertex tuples in ascending order."""
        top = max(map(len, self._key[u]))
        return [w for w in self._key[u] if len(w) == top]

    def with_set(self, u, new_set):
        sets = self.sets
        return EfElement(self.base_hom, sets[:u] + (frozenset(new_set),) + sets[u + 1 :])

    def leq(self, other):
        return self.base_hom == other.base_hom and all(
            set(a).issubset(b) for a, b in zip(self._key, other._key)
        )

    def as_homotopy(self):
        if not self.is_singleton():
            raise NotInFiber("only singleton elements are homotopies")
        f = self.base_hom
        H = f.codomain
        g = GraphHom(f.domain, H, (s[0][-1] for s in self._key))
        walks = tuple(ReducedWalk._from_checked(H, s[0]) for s in self._key)
        return Homotopy._from_checked(f, g, walks)  # the fiber checked all of it

    def __eq__(self, other):
        return (
            isinstance(other, EfElement)
            and self.base_hom == other.base_hom
            and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"EfElement({self.key()})"

    def to_json(self):
        return {
            "f": self.base_hom.mapping,
            "phi": {str(u): walks for u, walks in enumerate(self._key)},
        }


def _require_cover_setting(f):
    if f.domain.n < 2 or not is_connected(f.domain):
        raise NotConnected("the domain must be connected with at least two vertices")
    if f.codomain.n < 2 or not is_connected(f.codomain):
        raise NotConnected("the target must be connected with at least two vertices")
    require_square_free(f.codomain)


# ---------------------------------------------------------------------------
# tight vertices


def tight_vertices(f):
    """Vertices lying on some closed walk whose f-image is cyclically reduced.

    Searched on the digraph of ordered adjacent pairs: (u, v) -> (v, w) is an
    arc when f(u) != f(w). Directed closed walks there are exactly the tight
    closed walks of G, so a vertex qualifies iff one of its pairs sits in a
    strongly connected component with at least two nodes. The components
    come from Kosaraju's two passes: a depth-first search records the order
    in which pairs finish, then, in reverse finishing order, each pair not
    yet placed takes the closure of the reversed arcs among the unplaced
    pairs. The arcs into (u, v) come from the pairs (x, u) with f(x) != f(v).
    """
    G, m = f.domain, f.mapping
    finished, seen = [], set()
    for root in ((u, v) for u in G.vertices() for v in G.neighbors(u)):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(G.neighbors(root[1])))]
        while stack:
            (u, v), ahead = stack[-1]
            for w in ahead:
                if m[u] != m[w] and (v, w) not in seen:
                    seen.add((v, w))
                    stack.append(((v, w), iter(G.neighbors(w))))
                    break
            else:
                finished.append(stack.pop()[0])
    placed, tight = set(), set()

    def arcs_in(pair):
        u, v = pair
        return [(x, u) for x in G.neighbors(u) if m[x] != m[v] and (x, u) not in placed]

    for node in reversed(finished):
        if node not in placed:
            comp = closure(node, arcs_in)
            placed |= comp
            if len(comp) >= 2:
                tight.update(u for u, _ in comp)
    return frozenset(tight)


def is_in_Ef(phi):
    """Closed-form membership test for the identity component of the fiber."""
    _require_cover_setting(phi.base_hom)
    return _passes_membership_test(phi, tight_vertices(phi.base_hom))


def _passes_membership_test(phi, tight):
    """is_in_Ef without re-checking the cover setting, given the tight
    vertices of phi's base, read off phi's key: even walk lengths (odd
    vertex tuples), and only trivial walks at tight vertices."""
    key = phi.key()
    if not all(len(w) % 2 for s in key for w in s):
        return False
    m = phi.base_hom.mapping
    return all(key[u] == ((m[u],),) for u in tight)


# ---------------------------------------------------------------------------
# the interaction digraph


@dataclass(frozen=True)
class AuxDigraph:
    """Directed interactions between vertices carrying walks of length >= 2."""

    vertices: frozenset
    arcs: frozenset

    def sinks(self):
        with_out = {u for u, v in self.arcs}
        return sorted(self.vertices - with_out)


def aux_digraph(phi):
    """Arcs point from a walk to a neighbor extending it: (u, v) is an arc
    when the maximal walk at u equals the maximal walk at v with its last
    step removed, then shifted (shapes A1 and A2). The choice of maximal
    walks cannot matter; disagreement is reported as a violation.
    """
    G = phi.base_hom.domain
    verts = frozenset(u for u in G.vertices() if phi.len_at(u) >= 2)
    arcs = set()
    for u, v in G.edges:
        for a, b in ((u, v), (v, u)):
            if a not in verts or b not in verts:
                continue
            votes = {
                xi[-1] == eta[-2]
                for xi in phi.maximal_walks(a)
                for eta in phi.maximal_walks(b)
            }
            if len(votes) != 1:
                raise InvariantViolation(
                    f"arc test at ({a}, {b}) depends on the maximal walk chosen"
                )
            if votes.pop():
                arcs.add((a, b))
    return AuxDigraph(verts, frozenset(arcs))


def reduce_to_identity(h):
    """Deform a singleton fiber element down to the identity element.

    Repeatedly truncates the walk at the least sink of the interaction
    digraph by two vertices. Returns the whole chain, ending at the
    identity; each step lowers the total length by exactly 2.
    """
    if not h.is_singleton():
        raise NotInDomain("only singleton-valued elements can be reduced")
    if not is_in_Ef(h):
        raise NotInDomain("element fails the membership test, nothing to reduce to")
    H = h.base_hom.codomain
    chain = [h]
    current = h
    while current.norm() > 0:
        D = aux_digraph(current)
        sinks = D.sinks()
        if not sinks:
            raise NoSink("no sink although some walk still has positive length")
        v = min(sinks)
        shorter = ReducedWalk._from_checked(H, current.key()[v][0][:-2])
        current = current.with_set(v, {shorter})
        chain.append(current)
    return chain


# ---------------------------------------------------------------------------
# bounded enumeration


def fiber_component_bounded(f, max_norm, cap=DEFAULT_CAP):
    """The elements of norm at most max_norm in the component of the identity
    element, sorted by key.

    A closure over the singletons h, one reduced-walk vertex tuple per vertex,
    visits each once. h's room at u: the conjugates conjugate(f(u), h(v), y)
    of its walk at u's first neighbor v adjacent to h at the other neighbors
    and within the norm bound; a move swaps h(u) for another walk of the room.
    The sorted conjugates of each walk at u's first neighbor are built once
    per call and shared by every singleton holding that walk. h grows the
    elements whose least walk at every vertex is h's: u adds a subset of its
    room above h(u), cut down to the walks adjacent to every walk at each
    earlier neighbor, pruned by norm. Each element carries a running count
    of the vertices of its longest walks, which is its norm plus |V(G)|, so
    the bound is a cap on that count and the element keeps its norm. The
    norm is monotone, so each element is built once, from its least
    singleton. Singletons, then elements, count against the cap. Equal walk
    sets share one tuple.

    Every cross pair is tested once, as it is built: a room walk is a reduced
    walk from f(u), adjacent to the walk it conjugates and tested against h
    at u's other neighbors, and each added walk is tested against every walk
    added at an earlier neighbor. So the elements are returned without
    EfElement's checks.
    """
    if not max_norm >= 0:
        raise ValueError(f"max_norm must be a nonnegative integer, got {max_norm}")
    if f.domain.n < 2 or not is_connected(f.domain):
        raise NotConnected("the domain must be connected with at least two vertices")
    G, H, m = f.domain, f.codomain, f.mapping
    nbrs = [G.neighbors(u) for u in G.vertices()]
    others = [vs[1:] for vs in nbrs]
    earlier = [[v for v in vs if v < u] for u, vs in enumerate(nbrs)]
    limit = max_norm + G.n  # the most vertices an element's longest walks may hold
    interned = [{} for _ in nbrs]  # the walk sets at each vertex
    rooms = [{} for _ in nbrs]  # the sorted conjugates of each first neighbor's walk
    elements = []

    def check(more):
        if len(elements) + more > cap:
            raise _over_cap("fiber elements", cap + 1, cap)

    def visit(h):
        """Grow the elements whose least singleton is h; return h's moves."""
        size = sum(map(len, h))
        moves = []
        level = [(tuple(interned[u].setdefault((w,), (w,)) for u, w in enumerate(h)), size)]
        for u, w in enumerate(h):
            first, rest = h[nbrs[u][0]], others[u]
            conjugates = rooms[u].get(first)
            if conjugates is None:
                conjugates = rooms[u][first] = sorted(
                    conjugate(m[u], first, y) for y in H.neighbors(first[-1])
                )
            top = limit - size + len(w)
            above = []
            for c in conjugates:
                if (
                    len(c) <= top
                    and c != w
                    and (not rest or all(walks_adjacent(H, c, h[v]) for v in rest))
                ):
                    moves.append(h[:u] + (c,) + h[u + 1 :])
                    if c > w:
                        above.append(c)
            if not above:
                continue
            prior = earlier[u]
            grown = []
            for key, n in level:
                top = limit - n + len(w)
                fit = [
                    c
                    for c in above
                    if len(c) <= top
                    and (
                        not prior
                        or all(walks_adjacent(H, c, b) for v in prior for b in key[v][1:])
                    )
                ]
                check(len(grown) + (1 << len(fit)))
                for sub in _subsets(fit):
                    s = (w,) + sub
                    s = interned[u].setdefault(s, s)
                    grown.append((key[:u] + (s,) + key[u + 1 :], n - len(w) + max(map(len, s))))
            level = grown
        check(len(level))
        elements.extend(EfElement._from_checked(f, key, n - G.n) for key, n in level)
        return moves

    closure(tuple((x,) for x in m), visit, cap, "fiber elements")
    elements.sort(key=EfElement.key)
    return elements


def enumerate_Ef_bounded(f, max_norm, cap=DEFAULT_CAP):
    """All cover elements with norm at most max_norm.

    Walked by fiber_component_bounded; every element is re-verified against the
    closed-form membership test.
    """
    _require_cover_setting(f)
    elements = fiber_component_bounded(f, max_norm, cap=cap)
    tight = tight_vertices(f)
    for e in elements:
        if not _passes_membership_test(e, tight):
            raise InvariantViolation(
                "the fiber walk reached an element the membership test rejects"
            )
    return elements


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


# ---------------------------------------------------------------------------
# local covering checks


def _projection(phi):
    """The pointwise walk targets of phi, its projection back into the base
    poset, as a tuple of int bitmasks read off the key."""
    return tuple(sum(1 << w[-1] for w in s) for s in phi.key())


def _targets_below(base):
    """Every product of nonempty subsets of the masks in base, as tuples of int
    bitmasks, each mask's subsets by size and then lexicographically."""
    pools = [[sum(1 << x for x in c) for c in _subsets(mask_bits(s)) if c] for s in base]
    return itertools.product(*pools)


def _upsets_in_base(G, H, base, cap):
    """All set-valued homomorphisms G -> H pointwise above base, a tuple of
    int bitmasks, as such tuples in key order: the closure of base under
    hom_poset.larger_cells."""
    cells = closure(base, functools.partial(larger_cells, G, H), cap, "elements above the base")
    return sorted(cells, key=lambda cell: [mask_bits(s) for s in cell])


def check_poset_covering_local(f, max_norm, cap=DEFAULT_CAP):
    """Verify unique lifting of comparabilities across the bounded fiber.

    For every walked element phi sufficiently inside the norm bound and
    every base element comparable to its projection, exactly one comparable
    fiber element must project onto it. Downward checks run for norms up to
    max_norm - 2, upward checks up to max_norm - 2|V(G)|. The lifts are
    counted among the walked elements, grouped once by projection, which
    finds every lift: each is comparable to phi, so it lies in phi's
    component, and its norm is within max_norm. One below phi has norm at
    most norm(phi). One above phi adds at u only walks w adjacent to a walk
    eta of phi at a neighbor v, itself adjacent to a walk xi of phi at u.
    Adjacency changes length by 0 or 2, and |w| = |xi| + 4 would make w
    (f(u), f(v), f(u), ...), which is not reduced. So each vertex gains at
    most 2, and the lift's norm is at most norm(phi) + 2|V(G)|. Returns a
    report; any count other than one is recorded as a violation. H is not
    required to be square-free here, so the expected failure on a 4-cycle
    target can be demonstrated.
    """
    G, H = f.domain, f.codomain
    elements = fiber_component_bounded(f, max_norm, cap=cap)
    bases = [_projection(e) for e in elements]
    over = {}
    for e, base in zip(elements, bases):
        over.setdefault(base, []).append(e)
    report = {
        "down_checks": 0,
        "up_checks": 0,
        "elements": len(elements),
        "max_norm": max_norm,
        "square_free": is_square_free(H),
        "violations": [],
    }
    for phi, base in zip(elements, bases):
        norm = phi.norm()
        checks = []
        if norm <= max_norm - 2:
            checks.append(("down", _targets_below(base), lambda e: e.leq(phi)))
        if norm <= max_norm - 2 * G.n:
            checks.append(("up", _upsets_in_base(G, H, base, cap), phi.leq))
        for direction, targets, comparable in checks:
            for cell in targets:
                count = sum(map(comparable, over.get(cell, ())))
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


# ---------------------------------------------------------------------------
# deck transformations


class GammaElement(EfElement):
    """A self-homotopy of f that lies in the identity component of the fiber:
    a singleton fiber element whose walks all return to f."""

    __slots__ = ()

    def __init__(self, base_hom, sets):
        super().__init__(base_hom, sets)
        if not self.is_singleton():
            raise NotInDomain("deck transformations are singleton-valued")
        if any(s[0][-1] != x for s, x in zip(self._key, base_hom.mapping)):
            raise NotInDomain("walks must return to f at every vertex")
        if not is_in_Ef(self):
            raise NotInDomain("element is outside the identity component")

    @classmethod
    def from_walks(cls, f, walks):
        return cls(f, (frozenset({w}) for w in walks))

    @property
    def walks(self):
        H = self.base_hom.codomain
        return tuple(ReducedWalk._from_checked(H, s[0]) for s in self._key)

    def __repr__(self):
        return f"GammaElement({[s[0] for s in self._key]})"


def gamma_identity(f):
    """The identity of the deck group of f: the trivial walk at each image vertex."""
    H = f.codomain
    return GammaElement.from_walks(f, [trivial_walk(H, x) for x in f.mapping])


def gamma_product(a, b):
    """Pointwise walk product; the group law of the deck group."""
    if a.base_hom != b.base_hom:
        raise NotInFiber("deck transformations of different homomorphisms")
    walks = tuple(walk_product(x, y) for x, y in zip(a.walks, b.walks))
    return GammaElement.from_walks(a.base_hom, walks)


def gamma_inverse(a):
    """The inverse in the deck group: each walk of a reversed."""
    return GammaElement.from_walks(
        a.base_hom, tuple(walk_inverse(w) for w in a.walks)
    )


def gamma_elements_bounded(f, u, max_norm, cap=DEFAULT_CAP):
    """All deck transformations of norm at most max_norm.

    These correspond one to one with their walk at the chosen base vertex u;
    the list is closed under inverses and sorted by norm, then by key. A u
    outside the domain raises GraphInputError before the fiber is grown.
    """
    require_vertex(f.domain, u)
    return deck_transformations(f, u, enumerate_Ef_bounded(f, max_norm, cap=cap))


def deck_transformations(f, u, elements):
    """The deck transformations among the fiber elements of f that
    enumerate_Ef_bounded returned, as in gamma_elements_bounded: its
    singletons whose walks return to f, which it has already checked and
    held to the membership test. Checks that their walks at u are distinct
    and that the set is closed under inverses. A u outside the domain
    raises GraphInputError."""
    require_vertex(f.domain, u)
    out = [
        GammaElement._from_checked(f, e.key(), e.norm())
        for e in elements
        if e.is_singleton() and all(s[0][-1] == x for s, x in zip(e.key(), f.mapping))
    ]
    base_walks = {g.key()[u] for g in out}
    if len(base_walks) != len(out):
        raise InvariantViolation("two deck transformations share a base walk")
    keys = {g.key() for g in out}
    for g in out:
        if tuple((s[0][::-1],) for s in g.key()) not in keys:
            raise InvariantViolation("inverse left the bounded set")
    return sorted(out, key=lambda g: (g.norm(), g.key()))
