"""Homotopy types of homomorphism poset components.

With a connected domain and a square-free target, every component of the
homomorphism poset realizes a point, a circle, or a wedge of circles; the
wedge case occurs exactly for components containing a homomorphism that
factors through a single edge, and its rank is the cycle rank of the
target's tensor double. The classifier takes each component's Betti
numbers in every degree from an acyclic matching on its cells, checks them
against this trichotomy and, for a connected domain with two or more
vertices and a connected target, against the case `closed_form_type` reads
off the component's least homomorphism alone; it raises rather than
mislabel anything. `classify_component` returns, for the component of one
given homomorphism, the entry that `classify` prints for it.
"""

from __future__ import annotations

from .errors import EmptyHomSet, GraphInputError, InvariantViolation, NotConnected
from .graphs import (
    Graph,
    GraphHom,
    connected_components,
    graph_to_json,
    is_bipartite,
    is_connected,
    require_square_free,
    tree_spread,
)
from .hom_cover import _require_cover_setting, tight_vertices
from .hom_poset import DEFAULT_CAP, component_census, component_summary, has_hom
from .walks import extend

POINT = "Point"
CIRCLE = "Circle"
EDGE_COMPONENT = "HxK2Component"


def expected_rank(H):
    """Number of circles in the wedge realized by the edge-factoring component.

    The cycle rank of the tensor double of H: E - V + 1 when H is bipartite
    (the double splits into two copies of H), 2E - 2V + 1 otherwise.
    """
    if not is_connected(H):
        raise NotConnected("rank prediction needs a connected target with a vertex")
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
    return _instance_facts(G, H, connected_components(G), _component_ranks(H))


def _instance_facts(G, H, domain_comps, ranks):
    """validate_instance, given the components of G and _component_ranks(H)."""
    _require_domain_vertex(G)
    require_square_free(H)
    facts = {
        "codomain_bipartite": is_bipartite(H) is not None,
        "codomain_connected": len(ranks) <= 1,
        "domain_bipartite": is_bipartite(G) is not None,
        "domain_components": len(domain_comps),
        "domain_connected": len(domain_comps) <= 1,
        "single_vertex_domain": G.n == 1,
        "square_free": True,
    }
    if not has_hom(G, H):
        raise EmptyHomSet("no homomorphism from the domain into the target")
    facts["codomain_component_ranks"] = [r for _, r in ranks]
    return facts


def _require_domain_vertex(G):
    if G.n == 0:
        raise GraphInputError("the domain needs at least one vertex")


def _component_ranks(H):
    """Each connected component of H, with the rank it predicts."""
    return [(comp, expected_rank(induced_component(H, comp))) for comp in connected_components(H)]


def _homotopy_type(betti, k2_factoring, r):
    """The case, circles and expected_rank keys of a component, classified
    by every Betti number; r is the rank the target component predicts for
    the edge-factoring case. A component containing a homomorphism that
    factors through one edge is an HxK2Component whose circle count must
    be r; any other is a Point or a Circle."""
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
        case = EDGE_COMPONENT
    elif b1 > 1:
        raise InvariantViolation(
            f"component of rank {b1} is neither a point nor a circle "
            "and contains no edge-factoring homomorphism"
        )
    else:
        case = CIRCLE if b1 else POINT
    return {"case": case, "circles": b1, "expected_rank": r}


def _report_entry(G, H, s, ranks, connected):
    """The classify report entry of a ComponentSummary: its census keys
    plus those of _homotopy_type. ranks is _component_ranks(H), read at the
    image of an endpoint of the least edge (vertex 0 if there is none),
    which an edge-factoring component sends into the right target
    component. Homology above degree one on a disconnected domain raises
    NotConnected: the component is then a product over the domain's
    components, which the trichotomy does not cover. When connected (both
    graphs connected, two or more domain vertices), the case must equal
    _closed_form at the representative, or InvariantViolation is raised."""
    if any(s.cell_betti[2:]) and not is_connected(G):
        raise NotConnected(
            f"a disconnected domain gives homology above degree one: {s.cell_betti}"
        )
    x = s.representative[min(G.edges)[0] if G.edges else 0]
    r = next(r for comp, r in ranks if x in comp)
    entry = s.to_json()
    entry.update(_homotopy_type(s.cell_betti, s.k2_factoring and G.edge_count > 0, r))
    if connected:
        rule = _closed_form(GraphHom(G, H, s.representative))
        if rule != entry["case"]:
            raise InvariantViolation(
                f"component of {s.representative} is a {entry['case']}, "
                f"the closed form says {rule}"
            )
    return entry


def closed_form_type(f):
    """The case of f's component read off f alone, for a connected domain
    with at least two vertices and a connected square-free target; other
    inputs raise NotConnected or NotSquareFree.

    Point when f has a tight vertex: the membership test forces the trivial
    walk there, and a deck transformation is fixed by its walk at one
    vertex. Otherwise HxK2Component when f is trivial on the fundamental
    group, and Circle when it is not.
    """
    _require_cover_setting(f)
    return _closed_form(f)


def _closed_form(f):
    """closed_form_type for an f known to meet its hypotheses. f is trivial
    on the fundamental group exactly when it lifts to the universal cover of
    the target: the reduced f-images of the BFS tree paths from vertex 0
    step by one edge across every edge of the domain."""
    if tight_vertices(f):
        return POINT
    m = f.mapping
    lift = tree_spread(f.domain, 0, (m[0],), lambda w, v: extend(w, m[v]))
    if all(extend(lift[a], m[b]) == lift[b] for a, b in f.domain.edges):
        return EDGE_COMPONENT
    return CIRCLE


def classify_component(G, H, f, cap=DEFAULT_CAP):
    """The entry that classify reports for the component of f: its census
    keys (size, homs, Betti numbers, edge-factoring marker, least
    homomorphism) plus case, circles and expected_rank, from the Betti
    numbers that component_summary reads off an acyclic matching on its
    cells. It equals that component's entry in full_case_report.

    An edgeless domain makes every component a full simplex, so the
    edge-factoring case (which presumes an edge in the domain) is only
    recognized when the domain has one. With both graphs connected and two
    or more domain vertices, the case must also equal closed_form_type at
    the component's representative. A domain without vertices raises
    GraphInputError, and a seed f that is not a map G -> H NotHomomorphism.
    """
    _require_domain_vertex(G)
    require_square_free(H)
    ranks = _component_ranks(H)
    connected = is_connected(G) and is_connected(H) and G.n >= 2
    return _report_entry(G, H, component_summary(G, H, f, cap=cap), ranks, connected)


def full_case_report(G, H, cap=DEFAULT_CAP):
    """Census plus classification plus the global counting checks.

    The number of edge-factoring components is forced by bipartiteness: two
    when domain and target are both bipartite, one when only the domain is,
    none when the domain is not. (A non-bipartite domain with a bipartite
    target has already failed the instance check: the homomorphism set is
    empty.) With both graphs connected and at least two domain vertices,
    each component's case must also equal closed_form_type at its
    representative.
    """
    ranks = _component_ranks(H)
    facts = _instance_facts(G, H, connected_components(G), ranks)
    connected = facts["domain_connected"] and facts["codomain_connected"] and G.n >= 2
    classified = [_report_entry(G, H, s, ranks, connected) for s in component_census(G, H, cap=cap)]
    n_factoring = sum(c["case"] == EDGE_COMPONENT for c in classified)
    if connected:
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
