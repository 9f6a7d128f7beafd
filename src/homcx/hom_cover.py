"""The universal cover of a component of the homomorphism poset.

Fix a homomorphism f: G -> H. The fiber over f consists of set-valued maps
phi assigning each vertex u a nonempty finite set of reduced walks in H
starting at f(u), with every cross pair along a G-edge adjacent in the
reduced-walk graph. The connected component of the all-trivial-walks element
covers the component of f; taking walk targets pointwise is the covering
projection.

Membership in that component has a closed-form test when H is square-free:
all walk lengths must be even, and any vertex lying on a tight closed walk
(one whose f-image is cyclically reduced) must carry exactly its trivial
walk. Self-homotopies of f act on the fiber as deck transformations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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
    backtrack,
    closure,
    common_neighbors,
    is_connected,
    is_square_free,
    mask_bits,
    neighbor_masks,
    require_square_free,
)
from .hom_poset import DEFAULT_CAP, SetValuedHom
from .pi_graph import Homotopy, classify_adjacency
from .walks import (
    ReducedWalk,
    edge_walk,
    trivial_walk,
    walk_inverse,
    walk_product,
)


class EfElement:
    """A fiber element: vertex-indexed sets of reduced walks over f."""

    __slots__ = ("base_hom", "sets", "_hash")

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
                    raise NotInFiber(
                        f"walk at vertex {u} starts at {w.source}, the fiber needs {f(u)}"
                    )
        for u, v in G.edges:
            for a in sets[u]:
                for b in sets[v]:
                    if not classify_adjacency(a, b):
                        raise NotNeighbor(
                            f"walks {a.vertices} at {u} and {b.vertices} at {v} "
                            "are not adjacent"
                        )
        self.base_hom = f
        self.sets = sets
        self._hash = hash((f, self.key()))

    def key(self):
        return tuple(tuple(sorted(w.vertices for w in s)) for s in self.sets)

    def len_at(self, u):
        return max(w.length for w in self.sets[u])

    def norm(self):
        return sum(self.len_at(u) for u in self.base_hom.domain.vertices())

    def is_singleton(self):
        return all(len(s) == 1 for s in self.sets)

    def maximal_walks(self, u):
        top = self.len_at(u)
        return sorted(
            (w for w in self.sets[u] if w.length == top), key=lambda w: w.vertices
        )

    def with_set(self, u, new_set):
        return EfElement(
            self.base_hom, self.sets[:u] + (frozenset(new_set),) + self.sets[u + 1 :]
        )

    def leq(self, other):
        return self.base_hom == other.base_hom and all(
            a <= b for a, b in zip(self.sets, other.sets)
        )

    def target_hom(self):
        """Pointwise walk targets: the projection back into the base poset."""
        f = self.base_hom
        return SetValuedHom(
            f.domain, f.codomain, (frozenset(w.target for w in s) for s in self.sets)
        )

    def as_homotopy(self):
        if not self.is_singleton():
            raise NotInFiber("only singleton elements are homotopies")
        f = self.base_hom
        walks = tuple(next(iter(s)) for s in self.sets)
        g = GraphHom(f.domain, f.codomain, (w.target for w in walks))
        return Homotopy(f, g, walks)

    def __eq__(self, other):
        return (
            isinstance(other, EfElement)
            and self.base_hom == other.base_hom
            and self.sets == other.sets
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"EfElement({self.key()})"

    def to_json(self):
        return {
            "f": list(self.base_hom.mapping),
            "phi": {
                str(u): [list(w) for w in walks] for u, walks in enumerate(self.key())
            },
        }


def identity_element(f):
    """Every vertex carries just its trivial walk."""
    H = f.codomain
    return EfElement(f, (frozenset({trivial_walk(H, f(u))}) for u in f.domain.vertices()))


def _require_cover_setting(f):
    if f.domain.n < 2 or not is_connected(f.domain):
        raise NotConnected("the domain must be connected with at least two vertices")
    if f.codomain.n < 2 or not is_connected(f.codomain):
        raise NotConnected("the target must be connected with at least two vertices")
    require_square_free(f.codomain)


# ---------------------------------------------------------------------------
# tight vertices


@lru_cache(maxsize=None)
def tight_vertices(f):
    """Vertices lying on some closed walk whose f-image is cyclically reduced.

    Searched on the digraph of ordered adjacent pairs: (u, v) -> (v, w) is an
    arc when f(u) != f(w). Directed closed walks there are exactly the tight
    closed walks of G, so a vertex qualifies iff one of its pairs sits in a
    strongly connected component with at least two nodes.
    """
    G = f.domain
    nodes = [(u, v) for u, v in itertools.permutations(G.vertices(), 2) if G.has_edge(u, v)]
    succ = {
        (u, v): [(v, w) for w in G.neighbors(v) if f(u) != f(w)] for u, v in nodes
    }
    # iterative Tarjan
    index = {}
    low = {}
    on_stack = set()
    stack = []
    scc_sizes = {}
    counter = itertools.count()
    scc_of = {}
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = next(counter)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                for member in comp:
                    scc_of[member] = node
                scc_sizes[node] = len(comp)
    return frozenset(
        u for (u, v) in nodes if scc_sizes[scc_of[(u, v)]] >= 2
    )


def is_in_Ef(phi):
    """Closed-form membership test for the identity component of the fiber."""
    _require_cover_setting(phi.base_hom)
    return _passes_membership_test(phi)


def _passes_membership_test(phi):
    """is_in_Ef without re-checking the cover setting: even walk lengths,
    and only trivial walks at tight vertices."""
    f = phi.base_hom
    for s in phi.sets:
        for w in s:
            if w.length % 2 != 0:
                return False
    H = f.codomain
    for u in tight_vertices(f):
        if phi.sets[u] != frozenset({trivial_walk(H, f(u))}):
            return False
    return True


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

    def contains_directed_walk(self, seq):
        if any(v not in self.vertices for v in seq):
            return False
        return all((a, b) in self.arcs for a, b in zip(seq, seq[1:]))


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
                xi.vertices[-1] == eta.vertices[-2]
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
        xi = next(iter(current.sets[v]))
        shorter = ReducedWalk(H, xi.vertices[:-2])
        current = current.with_set(v, {shorter})
        chain.append(current)
    return chain


# ---------------------------------------------------------------------------
# bounded enumeration


def _extensions(f, u, eta):
    """Walks at u through the walk eta at a neighbor of u: the edge
    (f(u), s(eta)), then eta, then one more step from its target."""
    H = f.codomain
    first_leg = walk_product(edge_walk(H, f(u), eta.source), eta)
    return [
        walk_product(first_leg, edge_walk(H, eta.target, y))
        for y in H.neighbors(eta.target)
    ]


def _addition_candidates(phi, u, max_norm):
    """Walks that could be added at u: adjacent to every walk at every neighbor."""
    G = phi.base_hom.domain
    nbrs = G.neighbors(u)
    if not nbrs:
        return []
    eta0 = min(phi.sets[nbrs[0]], key=lambda w: w.vertices)
    base_norm = phi.norm() - phi.len_at(u)
    return [
        cand
        for cand in _extensions(phi.base_hom, u, eta0)
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


def fiber_component_bounded(f, max_norm, cap=DEFAULT_CAP):
    """BFS through comparabilities from the identity element, capped by norm.

    Moves add or remove a single walk; both directions stay inside the norm
    bound, which is enough to reach every member of the component whose norm
    fits (walks shrink monotonically along the deformation to the identity).
    """
    if max_norm < 0:
        raise ValueError(f"max_norm must be a nonnegative integer, got {max_norm}")
    if f.domain.n < 2 or not is_connected(f.domain):
        raise NotConnected("the domain must be connected with at least two vertices")
    seen = closure(
        identity_element(f), lambda phi: _fiber_moves(phi, max_norm), cap, "fiber elements"
    )
    return sorted(seen, key=lambda e: e.key())


def enumerate_Ef_bounded(f, max_norm, cap=DEFAULT_CAP):
    """All cover elements with norm at most max_norm.

    Discovered by BFS; every discovered element is re-verified against the
    closed-form membership test.
    """
    _require_cover_setting(f)
    elements = fiber_component_bounded(f, max_norm, cap=cap)
    for e in elements:
        if not _passes_membership_test(e):
            raise InvariantViolation(
                "BFS reached an element the membership test rejects"
            )
    return elements


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


# ---------------------------------------------------------------------------
# local covering checks


def down_lift(phi, psi):
    """The element below phi projecting onto psi, built by the explicit formula.

    Each walk of phi at a neighbor v is rerouted through u and retargeted at
    the requested endpoints: (f(u), f(v)) * eta * (t(eta), x) for x in psi(u).
    """
    f = phi.base_hom
    G, H = f.domain, f.codomain
    if psi.domain != G or psi.codomain != H:
        raise NotInFiber("target lives over the wrong graphs")
    if not psi.leq(phi.target_hom()):
        raise NotInFiber("psi must sit below the projection of phi")
    new_sets = []
    for u in G.vertices():
        nbrs = G.neighbors(u)
        v = nbrs[0]
        eta = min(phi.sets[v], key=lambda w: w.vertices)
        first_leg = walk_product(edge_walk(H, f(u), f(v)), eta)
        walks = {
            walk_product(first_leg, edge_walk(H, eta.target, x)) for x in psi.sets[u]
        }
        if not walks <= phi.sets[u]:
            raise InvariantViolation("down lift left the original element")
        new_sets.append(walks)
    out = EfElement(f, new_sets)
    if out.target_hom() != psi:
        raise InvariantViolation("down lift misses the requested projection")
    return out


def _upsets_in_base(base, cap):
    """All set-valued homomorphisms pointwise above base, sorted by key.

    Sets are int bitmasks over V(H). The set at u must lie in the common
    neighborhood of the set at each neighbor v, which is the set chosen at v
    or, before v is reached, base(v): every choice at v contains it.
    """
    G, H = base.domain, base.codomain
    nbr = neighbor_masks(H)
    floor = [sum(1 << x for x in s) for s in base.sets]

    def candidates(u, partial):
        near = 0
        for v in G.neighbors(u):
            near |= partial.get(v, floor[v])
        room = common_neighbors(nbr, near)
        if floor[u] & ~room:
            return []
        free = room & ~floor[u]
        out = [floor[u] | free]
        sub = free
        while sub:
            sub = (sub - 1) & free
            out.append(floor[u] | sub)
        return out

    found = backtrack(G.vertices(), candidates, cap, "elements above the base")
    upsets = [SetValuedHom(G, H, (mask_bits(a[u]) for u in G.vertices())) for a in found]
    return sorted(upsets, key=lambda s: s.key())


def _count_down_lifts(phi, psi):
    """Number of elements below phi whose projection is exactly psi."""
    total = 1
    for u in range(phi.base_hom.domain.n):
        by_target = {}
        for w in phi.sets[u]:
            by_target.setdefault(w.target, []).append(w)
        ways = 1
        for x in sorted(psi.sets[u]):
            ways *= (1 << len(by_target.get(x, []))) - 1
        total *= ways
    return total


def _count_up_lifts(phi, psi):
    """Number of elements above phi whose projection is exactly psi."""
    f = phi.base_hom
    G = f.domain
    optional = []
    for u in G.vertices():
        nbrs = G.neighbors(u)
        pool = {w for eta in phi.sets[nbrs[0]] for w in _extensions(f, u, eta)}
        optional.append(
            [
                w
                for w in pool - phi.sets[u]
                if w.target in psi.sets[u]
                and all(classify_adjacency(w, eta) for v in nbrs for eta in phi.sets[v])
            ]
        )

    def candidates(u, partial):
        out = []
        for extra in _subsets(optional[u]):
            s = phi.sets[u].union(extra)
            if {w.target for w in s} == psi.sets[u] and all(
                classify_adjacency(a, b)
                for v in G.neighbors(u)
                if v in partial
                for a in s
                for b in partial[v]
            ):
                out.append(s)
        return out

    return sum(1 for _ in backtrack(G.vertices(), candidates))


def check_poset_covering_local(f, max_norm, cap=DEFAULT_CAP):
    """Verify unique lifting of comparabilities across the bounded fiber.

    For every enumerated element phi sufficiently inside the norm bound and
    every base element comparable to its projection, exactly one comparable
    fiber element must project onto it. Downward checks run for norms up to
    max_norm - 2; upward checks, which can lengthen every walk by two, only
    up to max_norm - 2|V(G)|. Returns a report; any count other than one is
    recorded as a violation. H is not required to be square-free here, so
    the expected failure on a 4-cycle target can be demonstrated.
    """
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
        tphi = phi.target_hom()
        if phi.norm() <= max_norm - 2:
            pools = [
                [frozenset(c) for r in range(1, len(s) + 1) for c in itertools.combinations(sorted(s), r)]
                for s in tphi.sets
            ]
            for pick in itertools.product(*pools):
                psi = SetValuedHom(G, H, pick)
                count = _count_down_lifts(phi, psi)
                report["down_checks"] += 1
                if count != 1:
                    report["violations"].append(
                        {
                            "direction": "down",
                            "element": phi.to_json(),
                            "lift_count": count,
                            "target": psi.to_json(),
                        }
                    )
        if phi.norm() <= max_norm - 2 * G.n:
            for psi in _upsets_in_base(tphi, cap):
                count = _count_up_lifts(phi, psi)
                report["up_checks"] += 1
                if count != 1:
                    report["violations"].append(
                        {
                            "direction": "up",
                            "element": phi.to_json(),
                            "lift_count": count,
                            "target": psi.to_json(),
                        }
                    )
    return report


# ---------------------------------------------------------------------------
# the filtration operators


def simple_path_ordering(G):
    """Every directed simple path of G (single vertices included), sorted by
    length and then lexicographically. The position of a path in this list
    is its 1-based stage index in the filtration."""
    paths = []
    stack = [(v,) for v in G.vertices()]
    while stack:
        seq = stack.pop()
        paths.append(seq)
        stack.extend(seq + (w,) for w in G.neighbors(seq[-1]) if w not in seq)
    return tuple(sorted(paths, key=lambda p: (len(p), p)))


def _level_digraph(phi, n):
    """The interaction digraph restricted to vertices at exactly level 2n."""
    D = aux_digraph(phi)
    verts = frozenset(u for u in D.vertices if phi.len_at(u) == 2 * n)
    arcs = frozenset((a, b) for a, b in D.arcs if a in verts and b in verts)
    return AuxDigraph(verts, arcs)


def in_stage(phi, n, i, paths=None):
    """Is phi in stage (n, i): levels at most 2n, and the level digraph
    contains none of the paths after stage i as a directed walk?"""
    G = phi.base_hom.domain
    if paths is None:
        paths = simple_path_ordering(G)
    if any(phi.len_at(u) > 2 * n for u in G.vertices()):
        return False
    D = _level_digraph(phi, n)
    return not any(D.contains_directed_walk(p) for p in paths[i:])


def _truncated_top_walk(phi, v):
    H = phi.base_hom.codomain
    tops = {w.vertices[:-2] for w in phi.maximal_walks(v)}
    if len(tops) != 1:
        raise InvariantViolation("truncation depends on the maximal walk chosen")
    return ReducedWalk(H, tops.pop())


def retraction_U(phi, n, i, paths=None):
    """Closure half of stage (n, i): add the two-step truncation at the
    terminal vertex of the stage path. Identity on earlier stages."""
    G = phi.base_hom.domain
    if paths is None:
        paths = simple_path_ordering(G)
    if not 1 <= i <= len(paths):
        raise NotInDomain(f"stage index {i} out of range")
    if not is_in_Ef(phi) or not in_stage(phi, n, i, paths):
        raise NotInDomain("element is not in this stage of the filtration")
    if in_stage(phi, n, i - 1, paths):
        return phi
    v = paths[i - 1][-1]
    shorter = _truncated_top_walk(phi, v)
    return phi.with_set(v, phi.sets[v] | {shorter})


def retraction_D(phi, n, i, paths=None):
    """Interior half of stage (n, i): keep only the truncation at the
    terminal vertex. Defined on the image of the closure half."""
    G = phi.base_hom.domain
    if paths is None:
        paths = simple_path_ordering(G)
    if not 1 <= i <= len(paths):
        raise NotInDomain(f"stage index {i} out of range")
    if not is_in_Ef(phi) or not in_stage(phi, n, i, paths):
        raise NotInDomain("element is not in this stage of the filtration")
    if in_stage(phi, n, i - 1, paths):
        return phi
    v = paths[i - 1][-1]
    shorter = _truncated_top_walk(phi, v)
    if shorter not in phi.sets[v]:
        raise NotInDomain("element is not in the image of the closure operator")
    return phi.with_set(v, {shorter})


# ---------------------------------------------------------------------------
# deck transformations


class GammaElement:
    """A self-homotopy of f that lies in the identity component of the fiber."""

    __slots__ = ("element",)

    def __init__(self, element):
        f = element.base_hom
        if not element.is_singleton():
            raise NotInDomain("deck transformations are singleton-valued")
        h = element.as_homotopy()
        if h.target_hom != f:
            raise NotInDomain("walks must return to f at every vertex")
        if not is_in_Ef(element):
            raise NotInDomain("element is outside the identity component")
        self.element = element

    @classmethod
    def from_walks(cls, f, walks):
        return cls(EfElement(f, (frozenset({w}) for w in walks)))

    @property
    def base_hom(self):
        return self.element.base_hom

    @property
    def walks(self):
        return tuple(next(iter(s)) for s in self.element.sets)

    def norm(self):
        return self.element.norm()

    def key(self):
        return self.element.key()

    def as_homotopy(self):
        return self.element.as_homotopy()

    def __eq__(self, other):
        return isinstance(other, GammaElement) and self.element == other.element

    def __hash__(self):
        return hash(self.element)

    def __repr__(self):
        return f"GammaElement({[w.vertices for w in self.walks]})"


def gamma_identity(f):
    return GammaElement(identity_element(f))


def gamma_product(a, b):
    """Pointwise walk product; the group law of the deck group."""
    if a.base_hom != b.base_hom:
        raise NotInFiber("deck transformations of different homomorphisms")
    walks = tuple(walk_product(x, y) for x, y in zip(a.walks, b.walks))
    return GammaElement.from_walks(a.base_hom, walks)


def gamma_inverse(a):
    return GammaElement.from_walks(
        a.base_hom, tuple(walk_inverse(w) for w in a.walks)
    )


def gamma_act(h, phi):
    """The deck transformation h applied to a fiber element.

    Prepends h's walk pointwise: (h.phi)(u) = {h(u) * xi}. Endpoints are
    untouched, so the projection to the base poset commutes with the action.
    """
    if h.base_hom != phi.base_hom:
        raise NotInFiber("action and element sit over different homomorphisms")
    walks = h.walks
    return EfElement(
        phi.base_hom,
        (frozenset(walk_product(walks[u], xi) for xi in s) for u, s in enumerate(phi.sets)),
    )


def gamma_elements_bounded(f, u, max_norm, cap=DEFAULT_CAP):
    """All deck transformations of norm at most max_norm.

    These correspond one to one with their walk at the chosen base vertex u;
    the list is closed under inverses and sorted by norm, then by key.
    """
    return deck_transformations(f, u, enumerate_Ef_bounded(f, max_norm, cap=cap))


def deck_transformations(f, u, elements):
    """The deck transformations among fiber elements of f, as in
    gamma_elements_bounded, checking that their walks at u are distinct and
    that the set is closed under inverses."""
    out = [
        GammaElement(e)
        for e in elements
        if e.is_singleton()
        and all(next(iter(s)).target == f(v) for v, s in enumerate(e.sets))
    ]
    base_walks = {g.walks[u] for g in out}
    if len(base_walks) != len(out):
        raise InvariantViolation("two deck transformations share a base walk")
    keys = {g.key() for g in out}
    for g in out:
        if gamma_inverse(g).key() not in keys:
            raise InvariantViolation("inverse left the bounded set")
    return sorted(out, key=lambda g: (g.norm(), g.key()))
