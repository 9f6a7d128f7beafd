"""Homotopy types of components of graph homomorphism posets.

The pipeline: finite graphs and their homomorphisms (`graphs`), reduced
walks and their groupoid (`walks`), the reduced-walk graph with the
homotopies of homomorphisms (`pi_graph`), the poset of set-valued
homomorphisms with the cellular homology of each component (`hom_poset`,
`homology`), the universal cover fiber with its deformation to the identity
and its deck group (`hom_cover`), tree covers of the graphs themselves
(`tree_covers`), and the homotopy-type classifier (`classifier`).

Every name here is reached from the command line or the benchmark, or is
kept for an open item that will call it (README, Library). The slower reference
implementations that the tests check the package against, and the checks
of the proof's intermediate steps (the five adjacency shapes, the
sink-truncation filtration, the homotopy algebra, the maps induced between
covers), live under tests/, in tests/oracles.py or in the one test module
that uses them, not here.
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
    enumerate_Ef_bounded,
    fiber_component_bounded,
    gamma_elements_bounded,
    gamma_identity,
    gamma_inverse,
    gamma_product,
    is_in_Ef,
    reduce_to_identity,
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
    enumerate_component,
    enumerate_graph_homs,
    has_hom,
)
from .homology import (
    ChainComplex,
    OrderComplex,
    chain_complex,
    complex_from_chains,
    exact_rank,
)
from .pi_graph import (
    Homotopy,
    PiWindow,
    homotopy_from_valid_walk,
    is_topologically_valid,
    materialize_pi,
    walks_adjacent,
)
from .tree_covers import (
    TreeCover,
    lift_walk,
    tree_cover,
)
from .walks import (
    ReducedWalk,
    Walk,
    all_reduced_walks,
    closed_reduced_walks_at,
    concat_walks,
    conjugate,
    is_cyclically_reduced,
    is_f_tight,
    map_walk,
    reduce_walk,
    reduced_walks_from,
    trivial_walk,
    walk_inverse,
    walk_product,
)

__version__ = "0.1.0"
