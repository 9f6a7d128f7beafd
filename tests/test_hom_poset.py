"""The hom poset: enumeration, components, census.

Component discovery by single moves is cross-checked against a zigzag
oracle that materializes every set-valued homomorphism by brute force and
joins them with union-find over comparability. The oracle knows nothing of
the move rule, so it also checks that rule on targets with four-cycles.
"""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from homcx import (
    ExplosionGuard,
    Graph,
    GraphHom,
    NotHomomorphism,
    SetValuedHom,
    complete_graph,
    component_census,
    census_report,
    cycle_graph,
    enumerate_component,
    enumerate_graph_homs,
    has_hom,
    path_graph,
    post_compose,
)

from oracles import hom_adjacent

K2 = Graph(2, [(0, 1)])
C3 = cycle_graph(3)
C5 = cycle_graph(5)
C6 = cycle_graph(6)
P3 = path_graph(3)
P4 = path_graph(4)


def brute_homs(G, H):
    out = []
    for mapping in itertools.product(range(H.n), repeat=G.n):
        if all(H.has_edge(mapping[u], mapping[v]) for u, v in G.edges):
            out.append(GraphHom(G, H, mapping))
    return out


def all_set_valued(G, H):
    vsets = [
        frozenset(s)
        for k in range(1, H.n + 1)
        for s in itertools.combinations(range(H.n), k)
    ]
    out = []
    for combo in itertools.product(vsets, repeat=G.n):
        try:
            out.append(SetValuedHom(G, H, combo))
        except NotHomomorphism:
            pass
    return out


@st.composite
def graphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def zigzag_components(elements):
    """Union-find closure over strict and non-strict comparability."""
    parent = list(range(len(elements)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(len(elements)), 2):
        if elements[i].leq(elements[j]) or elements[j].leq(elements[i]):
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(elements)):
        groups.setdefault(find(i), []).append(elements[i])
    return sorted(groups.values(), key=len)


class TestSetValuedHom:
    def test_validation(self):
        SetValuedHom(K2, C5, ({0, 2}, {1,}))
        with pytest.raises(NotHomomorphism):
            SetValuedHom(K2, C5, ({0}, set()))
        with pytest.raises(NotHomomorphism):
            SetValuedHom(K2, C5, ({0}, {5}))
        with pytest.raises(NotHomomorphism):
            SetValuedHom(K2, C5, ({0}, {2}))
        with pytest.raises(NotHomomorphism):
            SetValuedHom(K2, C5, ({0},))

    def test_order_and_norm(self):
        small = SetValuedHom(K2, C5, ({0}, {1}))
        big = SetValuedHom(K2, C5, ({0}, {1, 4}))
        assert small.leq(big) and not big.leq(small)
        assert small.leq(small)
        assert small.norm() == 2 and big.norm() == 3
        assert small.is_singleton() and not big.is_singleton()
        assert big.to_json() == {"sets": [[0], [1, 4]]}

    def test_graph_hom_round_trip(self):
        f = GraphHom(K2, C5, (3, 2))
        assert SetValuedHom.from_graph_hom(f).as_graph_hom() == f
        with pytest.raises(NotHomomorphism):
            SetValuedHom(K2, C5, ({0, 2}, {1})).as_graph_hom()

    def test_post_compose(self):
        wind = GraphHom(C6, C3, (0, 1, 2, 0, 1, 2))
        phi = SetValuedHom(K2, C6, ({0, 2}, {1}))
        assert post_compose(wind, phi).sets == (frozenset({0, 2}), frozenset({1}))
        with pytest.raises(NotHomomorphism):
            post_compose(GraphHom(C5, C5, (0, 1, 2, 3, 4)), phi)

    def test_hom_adjacent(self):
        f = GraphHom(K2, C5, (0, 1))
        assert hom_adjacent(f, GraphHom(K2, C5, (2, 1)))
        assert not hom_adjacent(f, f)
        assert not hom_adjacent(f, GraphHom(K2, C5, (2, 3)))


class TestEnumeration:
    def test_matches_brute_force(self):
        cases = [(K2, C5), (C3, C3), (K2, K2), (P3, P4), (C6, C3), (C6, P4)]
        for G, H in cases:
            fast = enumerate_graph_homs(G, H)
            assert sorted(f.mapping for f in fast) == sorted(
                f.mapping for f in brute_homs(G, H)
            )
            assert [f.mapping for f in fast] == sorted(f.mapping for f in fast)

    def test_frozen_counts(self):
        assert len(enumerate_graph_homs(K2, C5)) == 10
        assert len(enumerate_graph_homs(C3, C3)) == 6
        assert len(enumerate_graph_homs(K2, K2)) == 2
        assert len(enumerate_graph_homs(P3, P4)) == 10
        assert len(enumerate_graph_homs(C6, C3)) == 66
        assert len(enumerate_graph_homs(C6, P4)) == 36

    def test_first_only_and_has_hom(self):
        assert enumerate_graph_homs(C6, C3, first_only=True) == [
            GraphHom(C6, C3, (0, 1, 0, 1, 0, 1))
        ]
        assert has_hom(P4, C3)
        assert not has_hom(C3, P4)
        assert not has_hom(C5, C6)

    def test_cap(self):
        with pytest.raises(ExplosionGuard):
            enumerate_graph_homs(C6, C3, cap=10)


class TestComponents:
    def test_single_moves_reach_the_zigzag_closure(self):
        # the oracle enumerates everything and never prunes
        for G, H in [(K2, C5), (P3, P4), (C3, C3), (K2, complete_graph(3)), (K2, cycle_graph(4))]:
            elements = all_set_valued(G, H)
            groups = zigzag_components(elements)
            seen = []
            for group in groups:
                f = next(e for e in group if e.is_singleton())
                P = enumerate_component(G, H, f.as_graph_hom())
                assert sorted(e.key() for e in P.elements) == sorted(
                    e.key() for e in group
                )
                seen.extend(P.elements)
            assert len(seen) == len(elements)

    def test_frozen_component_sizes(self):
        assert len(enumerate_component(K2, C5, GraphHom(K2, C5, (0, 1)))) == 20
        assert len(enumerate_component(P3, P4, GraphHom(P3, P4, (0, 1, 0)))) == 11
        assert len(enumerate_component(C3, C3, GraphHom(C3, C3, (0, 1, 2)))) == 1
        # four-cycle codomain: not square-free, moves stay unpruned
        C4 = cycle_graph(4)
        assert len(all_set_valued(K2, C4)) == 18
        assert len(enumerate_component(K2, C4, GraphHom(K2, C4, (0, 1)))) == 9

    def test_poset_axioms(self):
        P = enumerate_component(K2, C5, GraphHom(K2, C5, (0, 1)))
        n = len(P)
        for i in range(n):
            assert P.leq(i, i)
        for i, j in itertools.combinations(range(n), 2):
            assert not (P.leq(i, j) and P.leq(j, i))  # distinct elements
        for i, j, k in itertools.permutations(range(n), 3):
            if P.leq(i, j) and P.leq(j, k):
                assert P.leq(i, k)

    def test_cap(self):
        with pytest.raises(ExplosionGuard):
            enumerate_component(K2, C5, GraphHom(K2, C5, (0, 1)), cap=5)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        graphs(1, 3),
        st.one_of(
            st.sampled_from([complete_graph(3), cycle_graph(4), complete_graph(4)]),
            graphs(1, 4),
        ),
        st.data(),
    )
    def test_mask_walk_matches_zigzag_oracle(self, G, H, data):
        # targets with four-cycles included; start from a homomorphism and
        # from a larger element of the same component
        elements = all_set_valued(G, H)
        assume(elements and len(elements) <= 400)
        group = data.draw(st.sampled_from(zigzag_components(elements)))
        expected = sorted(e.key() for e in group)
        f = data.draw(st.sampled_from([e for e in group if e.is_singleton()]))
        wide = [e for e in group if not e.is_singleton()]
        start = data.draw(st.sampled_from(wide or group))
        for seed in (f.as_graph_hom(), start):
            P = enumerate_component(G, H, seed)
            assert [e.key() for e in P.elements] == expected
            sets = [s for e in P.elements for s in e.sets]
            assert len({id(s) for s in sets}) == len(set(sets))  # one frozenset per mask


class TestCensus:
    def test_edge_into_five_cycle(self):
        (s,) = component_census(K2, C5)
        assert s.to_json() == {
            "betti": [1, 1, 0],
            "homs": 10,
            "k2_factoring": True,
            "representative": {"mapping": [0, 1]},
            "size": 20,
        }

    def test_triangle_self_maps_are_rigid(self):
        summaries = component_census(C3, C3)
        assert [s.representative.mapping for s in summaries] == [
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        for s in summaries:
            assert s.betti == (1, 0, 0)
            assert len(s.poset) == 1
            assert not s.k2_factoring

    def test_hexagon_onto_triangle(self):
        summaries = component_census(C6, C3)
        assert len(summaries) == 7
        flat = [s for s in summaries if s.betti == (1, 0, 0)]
        (wound,) = [s for s in summaries if s.betti == (1, 1, 0)]
        assert len(flat) == 6
        assert all(len(s.poset) == 1 for s in flat)
        assert len(wound.poset) == 228
        assert wound.representative.mapping == (0, 1, 0, 1, 0, 1)
        assert wound.k2_factoring

    def test_paths_give_trees(self):
        summaries = component_census(P3, P4)
        assert [s.representative.mapping for s in summaries] == [(0, 1, 0), (1, 0, 1)]
        for s in summaries:
            assert s.betti == (1, 0, 0)
            assert len(s.poset) == 11
            assert s.k2_factoring

    def test_report_shape(self):
        report = census_report(K2, K2)
        assert sorted(report) == ["components", "graph_meta"]
        assert [c["betti"] for c in report["components"]] == [[1, 0, 0], [1, 0, 0]]
        assert report["graph_meta"]["domain"]["n"] == 2
