"""Bounded universal covers of graphs and the maps between them.

The covers and walk lifting are the package's; the maps that a
homomorphism, or a fiber element over it, induces between two covers are
kept in tests/oracles.py and checked here.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from homcx import (
    Graph,
    GraphHom,
    GraphInputError,
    NotConnected,
    OutOfWindow,
    ReducedWalk,
    Walk,
    complete_graph,
    cycle_graph,
    enumerate_Ef_bounded,
    is_bipartite,
    is_connected,
    lift_walk,
    petersen_graph,
    tree_cover,
    trivial_walk,
    walk_inverse,
    walk_product,
)

from oracles import (
    identity_element,
    induced_cover_map,
    lift_walk_by_products,
    psi_apply,
    target_hom,
)

C5 = cycle_graph(5)
C10 = cycle_graph(10)
K2 = Graph(2, [(0, 1)])


def raw_walks_from(G, source, max_len):
    out = []
    frontier = [(source,)]
    for _ in range(max_len + 1):
        out.extend(Walk(G, w) for w in frontier)
        frontier = [w + (y,) for w in frontier for y in G.neighbors(w[-1])]
    return out


class TestCoverWindow:
    def test_five_cycle_window_is_a_tree(self):
        cover = tree_cover(C5, 0, 5)
        assert len(cover.walks) == 11
        assert cover.graph.edge_count == 10
        assert is_connected(cover.graph)
        assert is_bipartite(cover.graph) is not None

    def test_local_bijectivity_away_from_the_rim(self):
        cover = tree_cover(C5, 0, 5)
        for i, w in enumerate(cover.walks):
            if w.length <= cover.radius - 1:
                upstairs = sorted(cover.project(j) for j in cover.graph.neighbors(i))
                assert upstairs == sorted(C5.neighbors(cover.project(i)))

    def test_projection_names(self):
        cover = tree_cover(C5, 0, 3)
        for i, w in enumerate(cover.walks):
            assert cover.project(i) == w.target
            assert cover.vertex_of(w) == i

    def test_vertex_of_gates(self):
        cover = tree_cover(C5, 0, 3)
        with pytest.raises(GraphInputError):
            cover.vertex_of(ReducedWalk(C5, (1, 2)))
        with pytest.raises(OutOfWindow):
            cover.vertex_of(ReducedWalk(C5, (0, 1, 2, 3, 4)))

    def test_disconnected_base_rejected(self):
        with pytest.raises(NotConnected):
            tree_cover(Graph(4, [(0, 1), (2, 3)]), 0, 2)

    def test_report_shape(self):
        cover = tree_cover(K2, 0, 2)
        report = cover.to_json()
        assert sorted(report) == [
            "base", "basepoint", "edges", "projection", "radius", "vertices"]
        assert report["projection"] == [0, 1]
        assert report["vertices"] == [{"walk": [0]}, {"walk": [0, 1]}]


@st.composite
def lift_cases(draw):
    """A cover window, a start vertex in it, and a walk from over that
    start that may backtrack and may leave the window."""
    theta = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)])
    G = draw(st.sampled_from([K2, C5, complete_graph(4), petersen_graph(), theta]))
    cover = tree_cover(G, draw(st.integers(0, G.n - 1)), draw(st.integers(0, 5)))
    start = draw(st.sampled_from(cover.walks))
    vertices = [start.target]
    for k in draw(st.lists(st.integers(0, 3), max_size=12)):
        nbrs = G.neighbors(vertices[-1])
        vertices.append(nbrs[k % len(nbrs)])
    return cover, start, Walk(G, vertices)


class TestLifting:
    @settings(max_examples=200, deadline=None)
    @given(lift_cases())
    def test_matches_lift_by_products(self, case):
        # the same lift, or the same OutOfWindow step
        cover, start, xi = case

        def outcome(lift):
            try:
                return lift(cover, start, xi)
            except OutOfWindow as exc:
                return str(exc)

        assert outcome(lift_walk) == outcome(lift_walk_by_products)

    def test_lift_then_project_round_trips(self):
        cover = tree_cover(C5, 0, 5)
        checked = 0
        for start in cover.walks:
            if start.length > 2:
                continue
            for xi in raw_walks_from(C5, start.target, 3):
                lifted = lift_walk(cover, start, xi)
                assert cover.project_walk(lifted) == xi
                assert lifted.vertices[0] == cover.vertex_of(start)
                checked += 1
        assert checked == 5 * (1 + 2 + 4 + 8)

    def test_lifts_are_unique_given_the_start(self):
        cover = tree_cover(C5, 0, 5)
        seen = {}
        start = trivial_walk(C5, 0)
        for xi in raw_walks_from(C5, 0, 4):
            end = lift_walk(cover, start, xi).vertices[-1]
            seen.setdefault(end, []).append(xi)
        # two walks land on the same cover vertex iff they reduce to the
        # same reduced walk; every reduced walk of length <= 4 is hit
        assert len(seen) == 9

    def test_lift_gates(self):
        cover = tree_cover(C5, 0, 2)
        start = trivial_walk(C5, 0)
        with pytest.raises(OutOfWindow):
            lift_walk(cover, start, Walk(C5, (0, 1, 2, 3)))
        with pytest.raises(GraphInputError):
            lift_walk(cover, start, Walk(C5, (1, 2)))

    def test_lifts_follow_tree_paths(self):
        # the base walk read off the tree path from cover vertex i to j
        cover = tree_cover(C5, 0, 4)
        for i, j in itertools.combinations(range(len(cover.walks)), 2):
            omega = walk_product(walk_inverse(cover.walks[i]), cover.walks[j])
            assert omega.source == cover.project(i)
            assert omega.target == cover.project(j)
            if omega.length <= cover.radius - cover.walks[i].length:
                lifted = lift_walk(cover, cover.walks[i], omega)
                assert lifted.vertices[-1] == j


class TestInducedMaps:
    def test_induced_map_commutes_with_projection(self):
        f = GraphHom(C10, C5, tuple(z % 5 for z in range(10)))
        cover_G = tree_cover(C10, 0, 4)
        cover_H = tree_cover(C5, 0, 4)
        mapping = induced_cover_map(f, cover_G, cover_H)
        lifted = GraphHom(cover_G.graph, cover_H.graph, mapping)  # validates edges
        for i in range(len(cover_G.walks)):
            assert cover_H.project(lifted(i)) == f(cover_G.project(i))

    def test_basepoint_mismatch_rejected(self):
        f = GraphHom(C10, C5, tuple(z % 5 for z in range(10)))
        with pytest.raises(GraphInputError):
            induced_cover_map(f, tree_cover(C10, 1, 2), tree_cover(C5, 0, 3))

    def test_radius_too_small_for_the_image(self):
        f = GraphHom(C10, C5, tuple(z % 5 for z in range(10)))
        with pytest.raises(OutOfWindow):
            induced_cover_map(f, tree_cover(C10, 0, 4), tree_cover(C5, 0, 3))

    def test_identity_fiber_element_transports_to_the_induced_map(self):
        f = GraphHom(K2, C5, (0, 1))
        cover_G = tree_cover(K2, 0, 4)
        cover_H = tree_cover(C5, 0, 4)
        mapping = induced_cover_map(f, cover_G, cover_H)
        transported = psi_apply(identity_element(f), cover_G, cover_H)
        assert transported.sets == tuple(frozenset({m}) for m in mapping)

    def test_transport_projects_back_to_walk_targets(self):
        f = GraphHom(K2, C5, (0, 1))
        cover_G = tree_cover(K2, 0, 4)
        cover_H = tree_cover(C5, 0, 8)
        for phi in enumerate_Ef_bounded(f, 4):
            transported = psi_apply(phi, cover_G, cover_H)
            targets = target_hom(phi)
            for i in range(len(cover_G.walks)):
                downstairs = {cover_H.project(x) for x in transported.sets[i]}
                assert downstairs == set(targets.sets[cover_G.project(i)])

    def test_transport_needs_room(self):
        f = GraphHom(K2, C5, (0, 1))
        phi = max(enumerate_Ef_bounded(f, 8), key=lambda e: e.norm())
        with pytest.raises(OutOfWindow):
            psi_apply(phi, tree_cover(K2, 0, 4), tree_cover(C5, 0, 4))
