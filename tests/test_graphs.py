"""Graphs, standard families, the square-free gate, and the tensor double.

The square-free test is cross-checked against a brute-force search for a
4-cycle over ordered vertex quadruples, which shares no code with the
common-neighbor formulation under test.
"""

import contextlib
import itertools
import math
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from homcx import (
    Graph,
    GraphHom,
    GraphInputError,
    NotConnected,
    NotHomomorphism,
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
from homcx.graphs import _automorphism_generators, bfs_order, closure, maps_into_edge, tree_spread
from homcx import hom_poset
from homcx.hom_poset import component_census

from oracles import (
    bfs_order_reference,
    bfs_parents_reference,
    component_census_reference,
    connected_components_reference,
    find_isomorphism,
    find_square_reference,
    is_bipartite_reference,
    is_connected_reference,
)


def brute_square(G):
    """A 4-cycle subgraph found the slow way: try every ordered quadruple."""
    for a, b, c, d in itertools.permutations(range(G.n), 4):
        if G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d) and G.has_edge(d, a):
            return True
    return False


@st.composite
def small_graphs(draw, max_n=12):
    """0 to max_n vertices and any set of edges, so that disconnected graphs,
    odd cycles and isolated vertices all turn up."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph(n)
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


# three components with interleaved labels: an odd cycle, a lone vertex and a path
SCATTERED = permute_graph(
    disjoint_union(disjoint_union(cycle_graph(5), Graph(1)), path_graph(3)),
    (6, 2, 8, 0, 4, 1, 7, 3, 5),
)


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


class TestConstruction:
    def test_rejects_loops_duplicates_and_range(self):
        with pytest.raises(GraphInputError):
            Graph(3, [(0, 0)])
        with pytest.raises(GraphInputError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(GraphInputError):
            Graph(2, [(0, 5)])
        with pytest.raises(GraphInputError):
            Graph(-1)

    def test_adjacency_is_symmetric_and_sorted(self):
        G = Graph(4, [(2, 0), (0, 1), (3, 1)])
        assert G.neighbors(0) == (1, 2)
        assert G.neighbors(1) == (0, 3)
        assert G.has_edge(0, 2) and G.has_edge(2, 0)
        assert G.edge_count == 3

    def test_equality_ignores_edge_orientation(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(1, 0)]))

    def test_json_round_trip(self):
        G = petersen_graph()
        assert graph_from_json(graph_to_json(G)) == G


class TestHom:
    def test_identity_and_validation(self):
        C5 = cycle_graph(5)
        assert GraphHom(C5, C5, range(5)).mapping == tuple(range(5))
        with pytest.raises(NotHomomorphism):
            GraphHom(C5, C5, (0, 0, 1, 2, 3))  # edge (0,1) -> (0,0), a loop

    @pytest.mark.parametrize("mapping", [(True, 2), (0, True)])
    def test_image_vertices_must_be_vertex_labels(self, mapping):
        # bools are rejected as in Graph, not read as 1 and 0
        with pytest.raises(NotHomomorphism):
            GraphHom(complete_graph(2), cycle_graph(5), mapping)

    def test_maps_into_edge(self):
        C3 = cycle_graph(3)
        assert maps_into_edge(C3, (0, 1, 0, 1, 0, 1))
        assert not maps_into_edge(C3, (0, 1, 2, 0, 1, 2))


class TestSquareFree:
    def test_gates(self):
        assert not is_square_free(cycle_graph(4))
        assert not is_square_free(complete_graph(4))
        assert not is_square_free(complete_bipartite(2, 2))
        assert is_square_free(cycle_graph(5))
        assert is_square_free(cycle_graph(6))
        assert is_square_free(path_graph(5))
        assert is_square_free(petersen_graph())

    def test_witness_traces_a_cycle(self):
        w = find_square(complete_bipartite(2, 3))
        a, b, c, d = w
        G = complete_bipartite(2, 3)
        assert len({a, b, c, d}) == 4
        assert G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d) and G.has_edge(d, a)
        with pytest.raises(Exception) as ei:
            require_square_free(G)
        assert ei.value.witness == w

    def test_agrees_with_brute_force_on_all_labeled_graphs_up_to_5(self):
        for n in range(6):
            for G in all_labeled_graphs(n):
                assert is_square_free(G) == (not brute_square(G))

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force_on_random_graphs(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        G = Graph(n, chosen)
        assert is_square_free(G) == (not brute_square(G))

    @given(small_graphs())
    @example(complete_graph(6))
    @example(complete_bipartite(3, 3))
    @example(petersen_graph())
    @example(path_graph(9))
    @example(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_witness_is_the_pair_scans(self, G):
        # graphs with and without squares are drawn, so both outcomes are compared
        assert find_square(G) == find_square_reference(G)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_relabeling(self, perm):
        G = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        assert is_square_free(permute_graph(G, perm)) == is_square_free(G)


class TestStructure:
    def test_components_and_connectivity(self):
        G = disjoint_union(cycle_graph(3), path_graph(2))
        assert connected_components(G) == [(0, 1, 2), (3, 4)]
        assert not is_connected(G)
        assert is_connected(petersen_graph())

    def test_the_empty_graph_is_not_connected(self):
        # networkx calls connectivity of the null graph undefined; the
        # package rejects it wherever a connected graph is needed
        assert is_connected(Graph(0)) is False
        assert is_connected(Graph(1)) is True
        with pytest.raises(NotConnected, match="only reported for connected H"):
            times_k2(Graph(0))

    def test_bipartition_is_deterministic_and_correct(self):
        sides = is_bipartite(cycle_graph(6))
        assert sides == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))
        assert is_bipartite(cycle_graph(5)) is None
        assert is_bipartite(petersen_graph()) is None

    def test_odd_cycle_oracle(self):
        # bipartite iff every cycle is even; check against hom into K2
        for n in range(2, 8):
            for G in [cycle_graph(max(n, 3)), path_graph(n)]:
                two_colorable = is_bipartite(G) is not None
                side = is_bipartite(G)
                if two_colorable:
                    f = GraphHom(G, complete_graph(2), tuple(0 if u in side[0] else 1 for u in G.vertices()))
                    assert maps_into_edge(f.codomain, f.mapping)


class TestOneSearch:
    """Each traversal read off the one breadth-first search returns exactly
    what the search of its own that it replaced returned (tests/oracles.py)."""

    @given(small_graphs())
    @example(Graph(0))
    @example(Graph(12))
    @example(SCATTERED)
    @example(disjoint_union(cycle_graph(7), cycle_graph(4)))
    @settings(max_examples=300, deadline=None)
    def test_traversals_match_their_references(self, G):
        assert connected_components(G) == connected_components_reference(G)
        assert is_connected(G) == is_connected_reference(G)
        assert is_bipartite(G) == is_bipartite_reference(G)
        assert bfs_order(G) == bfs_order_reference(G)
        for root in G.vertices():
            # the tree paths from root, each vertex's parent read off its path
            paths = tree_spread(G, root, (root,), lambda w, v: w + (v,))
            parents = [None if w is None else -1 if len(w) == 1 else w[-2] for w in paths]
            assert parents == bfs_parents_reference(G, root)
            assert all(w is None or w[-1] == v for v, w in enumerate(paths))


class TestProduct:
    def test_definition(self):
        G, H = path_graph(3), cycle_graph(3)
        P = product(G, H)
        for u, x in itertools.product(G.vertices(), H.vertices()):
            for v, y in itertools.product(G.vertices(), H.vertices()):
                expected = G.has_edge(u, v) and H.has_edge(x, y)
                assert P.has_edge(u * H.n + x, v * H.n + y) == expected

    def test_c5_double_is_a_ten_cycle(self):
        report = times_k2(cycle_graph(5))
        assert len(report.components) == 1
        assert report.double_cover and not report.bipartite
        iso = find_isomorphism(report.graph, cycle_graph(10))
        assert iso is not None
        # verify the witness by hand: bijective and edge-preserving both ways
        assert sorted(iso) == list(range(10))
        C10 = cycle_graph(10)
        assert all(C10.has_edge(iso[u], iso[v]) for u, v in report.graph.edges)
        assert report.graph.edge_count == C10.edge_count

    def test_c6_double_splits_into_two_hexagons(self):
        report = times_k2(cycle_graph(6))
        assert report.bipartite and len(report.components) == 2
        C6 = cycle_graph(6)
        for comp, mapping in zip(report.components, report.isomorphisms):
            assert sorted(mapping[p] for p in comp) == list(range(6))
            comp_set = set(comp)
            edges = [(p, q) for p, q in report.graph.edges if p in comp_set and q in comp_set]
            assert len(edges) == 6
            assert all(C6.has_edge(mapping[p], mapping[q]) for p, q in edges)

    def test_double_cover_projection_is_a_local_bijection(self):
        report = times_k2(petersen_graph())
        assert report.double_cover
        P, H = report.graph, petersen_graph()
        for pv in range(P.n):
            assert sorted(q // 2 for q in P.neighbors(pv)) == sorted(H.neighbors(pv // 2))

    def test_disconnected_input_rejected(self):
        with pytest.raises(NotConnected):
            times_k2(disjoint_union(cycle_graph(3), cycle_graph(3)))


class TestIsomorphism:
    def test_finds_cycle_relabelings(self):
        C7 = cycle_graph(7)
        perm = (3, 5, 0, 1, 6, 2, 4)
        iso = find_isomorphism(C7, permute_graph(C7, perm))
        assert iso is not None
        H = permute_graph(C7, perm)
        assert all(H.has_edge(iso[u], iso[v]) for u, v in C7.edges)

    def test_distinguishes_non_isomorphic(self):
        assert find_isomorphism(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3))) is None
        assert find_isomorphism(path_graph(4), Graph(4, [(0, 1), (1, 2), (1, 3)])) is None


def lopsided_tree(depth):
    """A root whose two children each head a complete binary tree of the
    given depth, with one pendant vertex below the last leaf. The pendant is
    last in BFS order, so a search trying to swap the two halves meets it
    only after every partial isomorphism of the halves."""
    edges, n, level = [(0, 1), (0, 2)], 3, [1, 2]
    for _ in range(depth):
        below = []
        for u in level:
            for _ in range(2):
                edges.append((u, n))
                below.append(n)
                n += 1
        level = below
    return Graph(n + 1, edges + [(level[-1], n)])


@contextlib.contextmanager
def finishes_within(seconds):
    """Raise TimeoutError in the body once seconds of wall time pass, so a
    search that blows up fails the test instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def is_automorphism(G, g):
    return sorted(g) == list(G.vertices()) and {frozenset((g[u], g[v])) for u, v in G.edges} == {
        frozenset(e) for e in G.edges
    }


def generated_group(n, generators):
    """The permutations the generators span: the identity closed under
    composition with each generator."""
    return closure(tuple(range(n)), lambda a: [tuple(g[x] for x in a) for g in generators])


class TestAutomorphisms:
    @given(small_graphs(max_n=7))
    @example(Graph(0))
    @example(Graph(7))
    @example(complete_graph(7))
    @example(path_graph(7))
    @example(complete_bipartite(3, 4))
    @example(disjoint_union(cycle_graph(3), cycle_graph(3)))
    @example(disjoint_union(disjoint_union(path_graph(2), Graph(1)), cycle_graph(4)))
    @settings(max_examples=100, deadline=None)
    def test_generators_span_the_whole_group(self, G):
        generators = _automorphism_generators(G, math.inf)
        for g in generators:
            assert is_automorphism(G, g)
        brute = sum(
            all(G.has_edge(p[u], p[v]) for u, v in G.edges)
            for p in itertools.permutations(G.vertices())
        )
        group = generated_group(G.n, generators)
        assert len(group) == brute
        # strong: the generators fixing the first i base points move the
        # i-th through its whole orbit under that stabilizer
        order, size = bfs_order(G), 1
        for i, u in enumerate(order):
            fixing = [g for g in generators if all(g[v] == v for v in order[:i])]
            size *= len(closure(u, lambda x, fixing=fixing: [g[x] for g in fixing]))
        assert size == len(group)

    @given(small_graphs(max_n=7))
    @example(complete_graph(7))
    @settings(max_examples=50, deadline=None)
    def test_budget_cuts_the_generators_short(self, G):
        # the search runs the same way under any budget until it is spent,
        # so a budget returns a prefix of the unbounded generators
        full = _automorphism_generators(G, math.inf)
        budget = 0
        while (found := _automorphism_generators(G, budget)) != full:
            assert found == full[: len(found)]
            budget += 1

    @pytest.mark.parametrize(
        "G, steps, count",
        [
            (cycle_graph(3), 5, 2),
            (cycle_graph(5), 9, 2),
            (cycle_graph(7), 13, 2),
            (complete_graph(4), 9, 3),
            (complete_bipartite(3, 4), 24, 5),
            (petersen_graph(), 36, 4),
            (path_graph(40), 40, 1),
        ],
    )
    def test_steps_to_the_whole_group(self, G, steps, count):
        # every candidate tried costs one step, whether or not it fits, at
        # the level's own position as at the later ones; steps is the least
        # budget that returns every generator
        full = _automorphism_generators(G, math.inf)
        assert len(full) == count
        assert _automorphism_generators(G, steps) == full
        assert _automorphism_generators(G, steps - 1) != full

    def test_budget_stops_a_failing_search(self):
        # unbounded, level 1 tries to swap the root's two children and walks
        # about 2**30 partial isomorphisms of the halves before it fails
        T = lopsided_tree(5)
        assert T.n == 128
        with finishes_within(10):
            generators = _automorphism_generators(T, 4 * T.n)
        assert generators
        assert all(is_automorphism(T, g) for g in generators)

    def test_census_budgets_the_search(self, monkeypatch):
        # Hom(T, K2) has two one-map components and no automorphism of T
        # swaps them; the census's search of T must be bounded to finish at
        # once, and so must its search of K2
        budgets = []

        def bounded(G, budget):
            budgets.append(budget)
            assert budget is not None and budget <= 4 * G.n
            return _automorphism_generators(G, budget)

        monkeypatch.setattr(hom_poset, "_automorphism_generators", bounded)
        T = lopsided_tree(5)
        with finishes_within(10):
            summaries = component_census(T, complete_graph(2))
        assert summaries == component_census_reference(T, complete_graph(2))
        assert len(summaries) == 2 and len(budgets) == 2

    def test_census_budgets_the_target_search(self, monkeypatch):
        # Hom(K2, T) has two components, one per side of an edge, and the
        # swap of K2 relabels one onto the other; the search of T must be
        # bounded like that of K2, a failing branch being as costly there
        G, T = complete_graph(2), lopsided_tree(5)
        expected = component_census_reference(G, T)
        assert len(expected) == 2
        left = len(expected[1].members)  # what the first walk leaves
        budgets = []

        def bounded(H, budget):
            budgets.append(budget)
            assert budget is not None and budget <= 4 * G.n * left
            return _automorphism_generators(H, budget)

        monkeypatch.setattr(hom_poset, "_automorphism_generators", bounded)
        with finishes_within(10):
            summaries = component_census(G, T)
        assert summaries == expected
        assert len(budgets) == 2

    def test_long_path_needs_no_recursion(self):
        # a 1,500-vertex path is searched to depth 1,500, beyond the
        # interpreter's recursion limit, and its reversal relabels one of the
        # two components of Hom(P1500, K2) onto the other
        P = path_graph(1500)
        assert _automorphism_generators(P, math.inf) == [tuple(range(1499, -1, -1))]
        summaries = component_census(P, complete_graph(2))
        assert [s.members for s in summaries] == [
            ((0, 1) * 750,),
            ((1, 0) * 750,),
        ]
        assert [s.size for s in summaries] == [1, 1]
