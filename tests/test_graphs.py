"""Graphs, standard families, the square-free gate, and the tensor double.

The square-free test is cross-checked against a brute-force search for a
4-cycle over ordered vertex quadruples, which shares no code with the
common-neighbor formulation under test.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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

from oracles import find_isomorphism


def brute_square(G):
    """A 4-cycle subgraph found the slow way: try every ordered quadruple."""
    for a, b, c, d in itertools.permutations(range(G.n), 4):
        if G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d) and G.has_edge(d, a):
            return True
    return False


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
        f = identity_hom(C5)
        assert f.mapping == tuple(range(5))
        with pytest.raises(NotHomomorphism):
            GraphHom(C5, C5, (0, 0, 1, 2, 3))  # edge (0,1) -> (0,0), a loop

    def test_factors_through_edge(self):
        C6, C3 = cycle_graph(6), cycle_graph(3)
        assert GraphHom(C6, C3, (0, 1, 0, 1, 0, 1)).factors_through_edge()
        assert not GraphHom(C6, C3, (0, 1, 2, 0, 1, 2)).factors_through_edge()


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
                    assert f.factors_through_edge()


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
