"""Homotopy types of components of graph homomorphism posets.

The pipeline: finite graphs and their homomorphisms (`graphs`), reduced
walks and their groupoid (`walks`), the reduced-walk graph with its
adjacency shapes and homotopies (`pi_graph`), the poset of set-valued
homomorphisms with the cellular homology of each component (`hom_poset`,
`homology`), the universal cover fiber with its deformation and deck group
(`hom_cover`), tree covers of the graphs themselves (`tree_covers`), and
the homotopy-type classifier (`classifier`).

The slower reference implementations that the tests check the package
against live in tests/oracles.py, not here.
"""

from .classifier import (
    HomotopyType,
    classify_component,
    closed_form_type,
    expected_rank,
    full_case_report,
    induced_component,
    validate_instance,
)
from .errors import (
    EmptyHomSet,
    EndpointMismatch,
    ExplosionGuard,
    GraphInputError,
    HomcxError,
    InvariantViolation,
    NoSink,
    NotClosed,
    NotConnected,
    NotHomomorphism,
    NotInDomain,
    NotInFiber,
    NotNeighbor,
    NotSquareFree,
    NotValid,
    OutOfWindow,
    SourceTargetMismatch,
)
from .graphs import (
    Graph,
    GraphHom,
    TimesK2Report,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    find_square,
    graph_from_json,
    graph_to_json,
    identity_hom,
    is_bipartite,
    is_connected,
    is_square_free,
    path_graph,
    permute_graph,
    petersen_graph,
    product,
    require_square_free,
    times_k2,
)
from .hom_cover import (
    AuxDigraph,
    EfElement,
    GammaElement,
    aux_digraph,
    check_poset_covering_local,
    down_lift,
    enumerate_Ef_bounded,
    fiber_component_bounded,
    gamma_act,
    gamma_elements_bounded,
    gamma_identity,
    gamma_inverse,
    gamma_product,
    identity_element,
    in_stage,
    is_in_Ef,
    reduce_to_identity,
    retraction_D,
    retraction_U,
    simple_path_ordering,
    tight_vertices,
)
from .hom_poset import (
    DEFAULT_CAP,
    ComponentSummary,
    HomPoset,
    SetValuedHom,
    census_report,
    component_census,
    component_summary,
    critical_cells,
    enumerate_component,
    enumerate_graph_homs,
    has_hom,
    post_compose,
)
from .homology import (
    ChainComplex,
    OrderComplex,
    chain_complex,
    complex_from_chains,
    exact_rank,
)
from .pi_graph import (
    AdjacencyType,
    Homotopy,
    PiWindow,
    adjacency_type,
    classify_adjacency,
    compose_homotopies,
    homotopy_from_valid_walk,
    id_homotopy,
    inverse_homotopy,
    is_topologically_valid,
    materialize_pi,
    pi_neighbor,
    transport,
    walks_adjacent,
)
from .tree_covers import (
    TreeCover,
    connecting_walk,
    f_star,
    induced_cover_map,
    lift_walk,
    pi1_elements,
    psi_apply,
    tree_cover,
)
from .walks import (
    ReducedWalk,
    Walk,
    all_reduced_walks,
    closed_reduced_walks_at,
    concat_walks,
    conjugate,
    edge_walk,
    is_cyclically_reduced,
    is_f_tight,
    map_walk,
    pushed_walk,
    reduce_walk,
    reduced_walks_from,
    trivial_walk,
    walk_inverse,
    walk_product,
)

__version__ = "0.1.0"
