"""The reduced-walk graph: adjacency shapes, homotopies, finite windows.

Two independent routes to adjacency exist, and the tests hold them against
each other everywhere: the conjugation equation (pi_adjacent, a reference
kept in tests/oracles.py) versus the five explicit shapes
(classify_adjacency). A window's edges, which materialize_pi builds from
pi_neighbor, are checked against a scan of every pair of its walks. The
validity test for spanning homotopies is checked against brute force over
every closed walk, not just the chord loops it inspects.
"""

import itertools

import pytest

from homcx import (
    AdjacencyType,
    EndpointMismatch,
    Graph,
    GraphHom,
    Homotopy,
    NotNeighbor,
    NotValid,
    ReducedWalk,
    TransportMismatch,
    Walk,
    all_reduced_walks,
    classify_adjacency,
    adjacency_type,
    compose_homotopies,
    cycle_graph,
    edge_walk,
    homotopy_from_valid_walk,
    id_homotopy,
    inverse_homotopy,
    is_topologically_valid,
    materialize_pi,
    path_graph,
    petersen_graph,
    pi_neighbor,
    pushed_walk,
    transport,
    trivial_walk,
    walk_inverse,
    walk_product,
)

from oracles import pi_adjacent, window_edges

C5 = cycle_graph(5)
C3 = cycle_graph(3)
C6 = cycle_graph(6)
P4 = path_graph(4)


class TestAdjacency:
    def test_conjugation_equation_matches_the_shape_table(self):
        # both directions of the equivalence, over a full window
        for H, L in [(C5, 4), (P4, 3), (C3, 4)]:
            walks = all_reduced_walks(H, L)
            for xi, eta in itertools.product(walks, repeat=2):
                assert pi_adjacent(xi, eta) == bool(classify_adjacency(xi, eta))

    def test_only_length_one_pairs_are_ambiguous(self):
        for H, L in [(C5, 4), (P4, 3)]:
            for xi, eta in itertools.product(all_reduced_walks(H, L), repeat=2):
                tags = classify_adjacency(xi, eta)
                if len(tags) > 1:
                    assert tags == frozenset({AdjacencyType.A2, AdjacencyType.A4})
                    assert xi.length == eta.length == 1

    def test_shapes_flip_when_the_pair_swaps(self):
        flips = {
            AdjacencyType.A1: AdjacencyType.A3,
            AdjacencyType.A3: AdjacencyType.A1,
            AdjacencyType.A2: AdjacencyType.A4,
            AdjacencyType.A4: AdjacencyType.A2,
            AdjacencyType.A5: AdjacencyType.A5,
        }
        for xi, eta in itertools.product(all_reduced_walks(C5, 4), repeat=2):
            tags = classify_adjacency(xi, eta)
            assert classify_adjacency(eta, xi) == frozenset(flips[t] for t in tags)

    def test_adjacent_walks_share_length_parity(self):
        for xi, eta in itertools.product(all_reduced_walks(C5, 5), repeat=2):
            if classify_adjacency(xi, eta):
                assert (xi.length - eta.length) % 2 == 0

    def test_shape_examples(self):
        xi = ReducedWalk(C5, (1, 2, 3))
        assert adjacency_type(xi, ReducedWalk(C5, (0, 1, 2, 3, 4))) == AdjacencyType.A1
        assert adjacency_type(xi, ReducedWalk(C5, (2, 3, 4))) == AdjacencyType.A2
        assert adjacency_type(xi, ReducedWalk(C5, (2,))) == AdjacencyType.A3
        assert adjacency_type(xi, ReducedWalk(C5, (0, 1, 2))) == AdjacencyType.A4
        assert adjacency_type(trivial_walk(C5, 0), trivial_walk(C5, 1)) == AdjacencyType.A5
        with pytest.raises(NotNeighbor):
            adjacency_type(xi, ReducedWalk(C5, (4, 3, 2)))
        with pytest.raises(ValueError):
            adjacency_type(ReducedWalk(C5, (0, 1)), ReducedWalk(C5, (1, 0)))

    def test_neighbor_family_is_complete_and_injective(self):
        # within a window, the neighbors of an interior walk are exactly the
        # conjugates by edge pairs at its endpoints, one per pair
        W = materialize_pi(C5, 4)
        for i in W.interior:
            xi = W.walks[i]
            family = {}
            for x in C5.neighbors(xi.source):
                for y in C5.neighbors(xi.target):
                    family[(x, y)] = pi_neighbor(xi, x, y)
            assert len(set(family.values())) == len(family)
            got = {W.walks[j] for j in W.neighbors(i)}
            assert got == set(family.values())

    def test_pi_neighbor_rejects_non_neighbors(self):
        with pytest.raises(NotNeighbor):
            pi_neighbor(ReducedWalk(C5, (0, 1)), 3, 2)


class TestWindows:
    def test_window_counts(self):
        assert len(materialize_pi(C5, 1).walks) == 15
        assert len(materialize_pi(P4, 3).walks) == 16

    def test_endpoint_map_is_a_bijection_for_trees(self):
        # over a tree the reduced-walk graph is a copy of the tensor square
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        for H, L in [(path_graph(2), 1), (path_graph(3), 2), (P4, 3), (path_graph(5), 4), (star, 2)]:
            W = materialize_pi(H, L)
            st_pairs = sorted((w.source, w.target) for w in W.walks)
            assert st_pairs == sorted(itertools.product(range(H.n), repeat=2))
            from homcx import product as tensor
            sq = tensor(H, H)
            assert len(W.edges) == sq.edge_count
            # endpoint map sends window edges to tensor square edges
            for i, j in W.edges:
                a, b = W.walks[i], W.walks[j]
                assert sq.has_edge(a.source * H.n + a.target, b.source * H.n + b.target)

    def test_edges_match_the_all_pairs_scan(self):
        # boundary walks included: their neighbors beyond the window must be
        # left out, and every neighbor inside it kept
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        for H, L in [(C5, 4), (P4, 3), (C3, 4), (petersen_graph(), 3), (star, 2)]:
            W = materialize_pi(H, L)
            assert list(W.edges) == window_edges(W.walks)

    def test_interior_walks_keep_their_full_neighborhood(self):
        W = materialize_pi(C5, 3)
        for i in W.interior:
            xi = W.walks[i]
            assert len(W.neighbors(i)) == len(C5.neighbors(xi.source)) * len(C5.neighbors(xi.target))

    def test_length_zero_walks_embed_the_base(self):
        W = materialize_pi(C5, 2)
        zero = [i for i, w in enumerate(W.walks) if w.length == 0]
        for i, j in itertools.combinations(zero, 2):
            a, b = W.walks[i], W.walks[j]
            assert ((i, j) in W.edges or (j, i) in W.edges) == C5.has_edge(a.source, b.source)


class TestHomotopy:
    def test_validation(self):
        K2 = Graph(2, [(0, 1)])
        f = GraphHom(K2, C5, (0, 1))
        g = GraphHom(K2, C5, (2, 1))
        h = Homotopy(f, g, (ReducedWalk(C5, (0, 1, 2)), ReducedWalk(C5, (1,))))
        assert h.norm() == 2
        with pytest.raises(EndpointMismatch):
            Homotopy(f, g, (ReducedWalk(C5, (0, 4, 3)), ReducedWalk(C5, (1,))))
        with pytest.raises(NotNeighbor):
            # endpoints fine, parity wrong, so the pair cannot be adjacent
            Homotopy(f, g, (ReducedWalk(C5, (0, 4, 3, 2)), ReducedWalk(C5, (1,))))

    def test_compose_inverse_identity(self):
        K2 = Graph(2, [(0, 1)])
        f = GraphHom(K2, C5, (0, 1))
        g = GraphHom(K2, C5, (2, 1))
        h = Homotopy(f, g, (ReducedWalk(C5, (0, 1, 2)), ReducedWalk(C5, (1,))))
        assert compose_homotopies(h, inverse_homotopy(h)) == id_homotopy(f)
        assert compose_homotopies(id_homotopy(f), h) == h
        assert compose_homotopies(h, id_homotopy(g)) == h

    def test_transport_detects_corruption(self):
        wind = GraphHom(C6, C3, (0, 1, 2, 0, 1, 2))
        loop = ReducedWalk(C3, (0, 1, 2, 0))
        h = homotopy_from_valid_walk(loop, wind, wind, 0)
        for u, v in C6.edges:
            transport(h, edge_walk(C6, u, v))
        # splicing per-vertex walks from two different spanning homotopies must
        # break either adjacency or the transport equation somewhere
        other = homotopy_from_valid_walk(ReducedWalk(C3, (0, 1, 2, 0, 1, 2, 0)), wind, wind, 0)
        mixed = list(h.walks[:3]) + list(other.walks[3:])
        with pytest.raises((NotNeighbor, TransportMismatch)):
            m = Homotopy(wind, wind, mixed)
            transport(m, ReducedWalk(C6, (0, 1, 2, 3)))


def brute_valid(xi, f, g, u, L):
    """Conjugation-fixing checked against every closed walk at u up to length L."""
    G = f.domain
    frontier = [(u,)]
    for _ in range(L):
        frontier = [w + (y,) for w in frontier for y in G.neighbors(w[-1])]
        for w in frontier:
            if w[-1] == u:
                loop = Walk(G, w)
                conj = walk_product(
                    walk_product(walk_inverse(pushed_walk(f, loop)), xi),
                    pushed_walk(g, loop),
                )
                if conj != xi:
                    return False
    return True


class TestValidity:
    def test_matches_brute_force_for_the_winding_map(self):
        wind = GraphHom(C6, C3, (0, 1, 2, 0, 1, 2))
        pool = [w for w in all_reduced_walks(C3, 6) if w.source == 0 and w.target == 0]
        fast = [w for w in pool if is_topologically_valid(w, wind, wind, 0)]
        slow = [w for w in pool if brute_valid(w, wind, wind, 0, 8)]
        assert fast == slow
        assert [w.vertices for w in fast] == [
            (0,), (0, 1, 2, 0), (0, 2, 1, 0), (0, 1, 2, 0, 1, 2, 0), (0, 2, 1, 0, 2, 1, 0)]

    def test_matches_brute_force_onto_a_bowtie(self):
        # two triangles joined at 0: the fundamental group is free of rank 2,
        # so walks around the wrong triangle must be rejected
        bow = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        f = GraphHom(C3, bow, (0, 1, 2))
        pool = [w for w in all_reduced_walks(bow, 6) if w.source == 0 and w.target == 0]
        fast = [w for w in pool if is_topologically_valid(w, f, f, 0)]
        slow = [w for w in pool if brute_valid(w, f, f, 0, 6)]
        assert fast == slow
        assert [w.vertices for w in fast] == [
            (0,), (0, 1, 2, 0), (0, 2, 1, 0), (0, 1, 2, 0, 1, 2, 0), (0, 2, 1, 0, 2, 1, 0)]
        assert ReducedWalk(bow, (0, 3, 4, 0)) not in fast

    def test_spanning_round_trip(self):
        wind = GraphHom(C6, C3, (0, 1, 2, 0, 1, 2))
        for verts in [(0,), (0, 1, 2, 0), (0, 2, 1, 0)]:
            xi = ReducedWalk(C3, verts)
            h = homotopy_from_valid_walk(xi, wind, wind, 0)
            assert h.walks[0] == xi
            assert h.source_hom == h.target_hom == wind
            for u, v in C6.edges:
                transport(h, edge_walk(C6, u, v))

    def test_invalid_walk_rejected_when_spanning(self):
        bow = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
        f = GraphHom(C3, bow, (0, 1, 2))
        with pytest.raises(NotValid):
            homotopy_from_valid_walk(ReducedWalk(bow, (0, 3, 4, 0)), f, f, 0)
