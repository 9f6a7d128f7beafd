"""Homotopy types of homomorphism poset components.

With a connected domain and a square-free target, every component of the
homomorphism poset realizes a point, a circle, or a wedge of circles; the
wedge case occurs exactly for components containing a homomorphism that
factors through a single edge, and its rank is the cycle rank of the
target's tensor double. The classifier computes the exact homology of each
component's cells in every degree, checks it against this trichotomy, and
raises rather than mislabel anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyHomSet, GraphInputError, InvariantViolation, NotConnected
from .graphs import (
    Graph,
    connected_components,
    graph_to_json,
    is_bipartite,
    is_connected,
    require_square_free,
)
from .hom_poset import (
    DEFAULT_CAP,
    cellular_betti,
    component_census,
    enumerate_component,
    has_hom,
)

POINT = "Point"
CIRCLE = "Circle"
EDGE_COMPONENT = "HxK2Component"


@dataclass(frozen=True)
class HomotopyType:
    """A wedge of `circles` circles; the tag separates the three cases.

    A component is tagged HxK2Component exactly when it contains a
    homomorphism factoring through one edge; such a component realizes the
    tensor double of the target and its circle count must match
    expected_rank. Otherwise the component is a Point or a Circle.
    """

    circles: int
    case_tag: str
    expected_rank: int

    def to_json(self):
        return {
            "case": self.case_tag,
            "circles": self.circles,
            "expected_rank": self.expected_rank,
        }


def expected_rank(H):
    """Number of circles in the wedge realized by the edge-factoring component.

    The cycle rank of the tensor double of H: E - V + 1 when H is bipartite
    (the double splits into two copies of H), 2E - 2V + 1 otherwise.
    """
    if not is_connected(H):
        raise NotConnected("rank prediction needs a connected target")
    e, n = H.edge_count, H.n
    if is_bipartite(H) is not None:
        return e - n + 1
    return 2 * e - 2 * n + 1


def induced_component(H, comp):
    """The induced subgraph on one connected component, densely relabeled."""
    relabel = {v: i for i, v in enumerate(comp)}
    edges = {
        (relabel[u], relabel[v])
        for u, v in H.edges
        if u in relabel and v in relabel
    }
    return Graph(len(comp), edges)


def validate_instance(G, H):
    """Check the standing hypotheses and collect instance-level facts.

    Raises GraphInputError for a domain without vertices, NotSquareFree when
    the target contains a 4-cycle and EmptyHomSet when there is no
    homomorphism at all. A single-vertex domain makes every component a
    point; a disconnected domain factors as a product over its components; a
    disconnected target only meets one of its components per component of
    the domain image. These are reported as facts rather than rejected.
    """
    if G.n == 0:
        raise GraphInputError("the domain needs at least one vertex")
    require_square_free(H)
    facts = {
        "codomain_bipartite": is_bipartite(H) is not None,
        "codomain_connected": is_connected(H),
        "domain_bipartite": is_bipartite(G) is not None,
        "domain_components": len(connected_components(G)),
        "domain_connected": is_connected(G),
        "single_vertex_domain": G.n == 1,
        "square_free": True,
    }
    if not has_hom(G, H):
        raise EmptyHomSet("no homomorphism from the domain into the target")
    facts["codomain_component_ranks"] = [
        expected_rank(induced_component(H, comp)) for comp in connected_components(H)
    ]
    return facts


def _rank_at(H, image_vertex):
    comp = next(c for c in connected_components(H) if image_vertex in c)
    return expected_rank(induced_component(H, comp))


def _homotopy_type(betti, k2_factoring, r):
    """Classify by every Betti number of the component; r is the rank the
    target component predicts for the edge-factoring case."""
    if betti[0] != 1:
        raise InvariantViolation(f"component has {betti[0]} pieces, expected one")
    if any(b != 0 for b in betti[2:]):
        raise InvariantViolation(f"homology above degree one: {betti}")
    b1 = betti[1] if len(betti) > 1 else 0
    if k2_factoring:
        if b1 != r:
            raise InvariantViolation(
                f"edge-factoring component has rank {b1}, the target predicts {r}"
            )
        return HomotopyType(circles=b1, case_tag=EDGE_COMPONENT, expected_rank=r)
    if b1 == 0:
        return HomotopyType(circles=0, case_tag=POINT, expected_rank=r)
    if b1 == 1:
        return HomotopyType(circles=1, case_tag=CIRCLE, expected_rank=r)
    raise InvariantViolation(
        f"component of rank {b1} is neither a point nor a circle "
        "and contains no edge-factoring homomorphism"
    )


def classify_component(G, H, f, cap=DEFAULT_CAP):
    """The homotopy type of the component of f, via exact homology.

    An edgeless domain makes every component a full simplex, so the
    edge-factoring case (which presumes an edge in the domain) is only
    recognized when the domain has one.
    """
    require_square_free(H)
    P = enumerate_component(G, H, f, cap=cap)
    betti = cellular_betti(P)
    members = [s.as_graph_hom() for s in P.singletons()]
    k2 = G.edge_count > 0 and any(h.factors_through_edge() for h in members)
    return _homotopy_type(betti, k2, _rank_at(H, f.mapping[0]))


def full_case_report(G, H, cap=DEFAULT_CAP):
    """Census plus classification plus the global counting checks.

    The number of edge-factoring components is forced by bipartiteness: two
    when domain and target are both bipartite, one when only the domain is,
    none when the domain is not. (A non-bipartite domain with a bipartite
    target has already failed the instance check: the homomorphism set is
    empty.)
    """
    facts = validate_instance(G, H)
    rank_of = {
        v: r
        for comp, r in zip(connected_components(H), facts["codomain_component_ranks"])
        for v in comp
    }
    summaries = component_census(G, H, cap=cap)
    classified = []
    n_factoring = 0
    for s in summaries:
        k2 = s.k2_factoring and G.edge_count > 0
        ht = _homotopy_type(s.cell_betti, k2, rank_of[s.representative.mapping[0]])
        if ht.case_tag == EDGE_COMPONENT:
            n_factoring += 1
        entry = s.to_json()
        entry.update(ht.to_json())
        classified.append(entry)
    if facts["domain_connected"] and facts["codomain_connected"] and G.n >= 2:
        if facts["domain_bipartite"]:
            expected = 2 if facts["codomain_bipartite"] else 1
        else:
            expected = 0
        if n_factoring != expected:
            raise InvariantViolation(
                f"{n_factoring} edge-factoring components found, expected {expected}"
            )
    return {
        "components": classified,
        "edge_factoring_components": n_factoring,
        "facts": facts,
        "graph_meta": {"codomain": graph_to_json(H), "domain": graph_to_json(G)},
    }
