"""The trichotomy: point, circle, or a wedge of circles.

Every frozen value here was computed from exact homology of the full
component and cross-checked against the rank formula for the target. The
two Circle instances wind a seven-cycle into an odd target, which is the
smallest shape that is neither rigid nor edge-factoring. The closed-form
rule, read off one homomorphism, is held to the report at every member of
every component, and to the pushed chord loops of tests/oracles.py at every
homomorphism.
"""

import itertools
import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from homcx import (
    EmptyHomSet,
    Graph,
    GraphHom,
    GraphInputError,
    InvariantViolation,
    NotConnected,
    NotSquareFree,
    classify_component,
    closed_form_type,
    complete_bipartite,
    component_census,
    cycle_graph,
    disjoint_union,
    enumerate_graph_homs,
    expected_rank,
    full_case_report,
    has_hom,
    induced_component,
    is_connected,
    is_square_free,
    path_graph,
    permute_graph,
    petersen_graph,
    validate_instance,
)
from homcx import classifier, graphs as graphs_module
from homcx.classifier import _homotopy_type

from oracles import closed_form_reference
from test_engine import graphs
from test_hom_cover import connected_graphs
from test_pi_graph import BOWTIE

K1 = Graph(1, [])
K2 = Graph(2, [(0, 1)])
C3 = cycle_graph(3)
C5 = cycle_graph(5)
C6 = cycle_graph(6)
C7 = cycle_graph(7)
P3 = path_graph(3)
# vertex 0 isolated, the edge 1-2 free to land in either target component
ISOLATED_VERTEX_INTO_K2_C5 = (Graph(3, [(1, 2)]), disjoint_union(K2, C5))


@st.composite
def connected_instances(draw):
    """A small connected domain and a square-free target it maps into."""
    G = draw(graphs(1, 4))
    assume(is_connected(G))
    H = draw(st.one_of(st.sampled_from([K2, C3, C5, C6, path_graph(4)]), graphs(1, 6)))
    assume(is_square_free(H) and has_hom(G, H))
    return G, H


class TestExpectedRank:
    def test_frozen_values(self):
        assert expected_rank(C5) == 1
        assert expected_rank(C6) == 1
        assert expected_rank(path_graph(4)) == 0
        assert expected_rank(C3) == 1
        assert expected_rank(petersen_graph()) == 11
        assert expected_rank(K2) == 0

    def test_needs_connected_target(self):
        with pytest.raises(NotConnected):
            expected_rank(disjoint_union(C5, C6))

    def test_empty_target_has_no_rank(self):
        # the tensor double of the empty graph has no cycle, and no
        # component whose rank could be predicted
        with pytest.raises(NotConnected):
            expected_rank(Graph(0))

    def test_induced_component(self):
        H = disjoint_union(C5, C6)
        left = induced_component(H, tuple(range(5)))
        right = induced_component(H, tuple(range(5, 11)))
        assert left == C5
        assert right == C6


class TestValidateInstance:
    def test_facts(self):
        facts = validate_instance(K2, C5)
        assert facts == {
            "codomain_bipartite": False,
            "codomain_component_ranks": [1],
            "codomain_connected": True,
            "domain_bipartite": True,
            "domain_components": 1,
            "domain_connected": True,
            "single_vertex_domain": False,
            "square_free": True,
        }

    def test_disconnected_target_ranks(self):
        facts = validate_instance(K2, disjoint_union(C5, C6))
        assert facts["codomain_component_ranks"] == [1, 1]
        assert not facts["codomain_connected"]

    def test_gates(self):
        with pytest.raises(NotSquareFree):
            validate_instance(K2, cycle_graph(4))
        with pytest.raises(NotSquareFree):
            validate_instance(K2, complete_bipartite(3, 3))
        with pytest.raises(EmptyHomSet):
            validate_instance(C3, path_graph(4))
        with pytest.raises(EmptyHomSet):
            validate_instance(C5, C6)


class TestClassifyComponent:
    def test_rigid_points(self):
        t = classify_component(C3, C3, GraphHom(C3, C3, (0, 1, 2)))
        assert (t["case"], t["circles"], t["expected_rank"]) == ("Point", 0, 1)

    def test_edge_factoring_wedges(self):
        t = classify_component(K2, C5, GraphHom(K2, C5, (0, 1)))
        assert (t["case"], t["circles"], t["expected_rank"]) == ("HxK2Component", 1, 1)
        P = petersen_graph()
        t = classify_component(K2, P, GraphHom(K2, P, (0, 1)))
        assert (t["case"], t["circles"], t["expected_rank"]) == ("HxK2Component", 11, 11)

    def test_true_circles(self):
        t = classify_component(C7, C5, GraphHom(C7, C5, (0, 1, 0, 1, 2, 3, 4)))
        assert (t["case"], t["circles"]) == ("Circle", 1)
        t = classify_component(C7, C3, GraphHom(C7, C3, (0, 1, 0, 1, 0, 1, 2)))
        assert (t["case"], t["circles"]) == ("Circle", 1)

    def test_returns_the_classify_entry(self):
        t = classify_component(K2, C5, GraphHom(K2, C5, (1, 2)))
        assert t == {
            "betti": [1, 1, 0],
            "homs": 10,
            "k2_factoring": True,
            "representative": {"mapping": [0, 1]},
            "size": 20,
            "case": "HxK2Component",
            "circles": 1,
            "expected_rank": 1,
        }

    def test_single_vertex_domain_is_a_simplex(self):
        # the whole poset is one simplex on all five image sets: a point,
        # even though a vertex map vacuously factors through any edge
        t = classify_component(K1, C5, GraphHom(K1, C5, (0,)))
        assert (t["case"], t["circles"]) == ("Point", 0)

    def test_isolated_vertex_reads_the_rank_at_an_edge(self):
        # vertex 0 is isolated, so its image says nothing about where the
        # edge lands: the rank comes from the target component of the edge
        G, H = ISOLATED_VERTEX_INTO_K2_C5
        t = classify_component(G, H, GraphHom(G, H, (0, 2, 3)))
        assert (t["case"], t["circles"], t["expected_rank"]) == ("HxK2Component", 1, 1)
        t = classify_component(G, H, GraphHom(G, H, (2, 0, 1)))
        assert (t["case"], t["circles"], t["expected_rank"]) == ("HxK2Component", 0, 0)

    def test_domain_without_vertices_is_bad_input(self):
        K0 = Graph(0)
        with pytest.raises(GraphInputError, match="at least one vertex"):
            classify_component(K0, C5, GraphHom(K0, C5, ()))


class TestOneComponentRoutine:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(connected_instances())
    @example((K2, C5))
    @example((P3, C5))
    @example((C6, C3))
    @example((P3, petersen_graph()))
    @example((Graph(4, [(0, 2), (0, 3), (1, 2), (2, 3)]), C3))
    @example(ISOLATED_VERTEX_INTO_K2_C5)
    @example((K1, C5))
    def test_classify_component_matches_the_full_report(self, instance):
        # seeded at any member, a component gets the entry full_case_report
        # lists for it, key for key and in the same key order. The
        # Graph(4, ...) example's search order is not 0..3, so its
        # homomorphisms are found out of mapping order; the isolated-vertex
        # domain and K1 are the disconnected and single-vertex cases.
        G, H = instance
        report = full_case_report(G, H)
        reps = [c["representative"]["mapping"] for c in report["components"]]
        assert reps == sorted(reps)
        summaries = component_census(G, H)
        assert reps == [list(s.representative) for s in summaries]
        for c, s in zip(report["components"], summaries):
            for seed in s.members:
                entry = classify_component(G, H, GraphHom(G, H, seed))
                assert entry == c and list(entry) == list(c)


class TestGates:
    def test_every_degree_is_gated(self):
        # a degree above the reported b_0 .. b_2 still fails the gate
        with pytest.raises(InvariantViolation, match="above degree one"):
            _homotopy_type((1, 1, 0, 1), True, 1)
        t = _homotopy_type((1,), False, 1)
        assert t == {"case": "Point", "circles": 0, "expected_rank": 1}

    @pytest.mark.parametrize(
        "betti, k2_factoring, message",
        [
            ((2, 0, 0), False, "component has 2 pieces, expected one"),
            ((1, 3, 0), True, "edge-factoring component has rank 3, the target predicts 1"),
            ((1, 2, 0), False, "component of rank 2 is neither a point nor a circle"),
        ],
    )
    def test_each_gate_raises(self, betti, k2_factoring, message):
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            _homotopy_type(betti, k2_factoring, 1)


class TestFullReport:
    def test_components_found_once_per_graph(self, monkeypatch):
        # one search of the domain and one of the target, whatever the
        # facts and the rank per target vertex read from them
        calls = []
        real = graphs_module.connected_components

        def counted(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(graphs_module, "connected_components", counted)
        monkeypatch.setattr(classifier, "connected_components", counted)
        target = disjoint_union(C5, C6)
        report = full_case_report(C7, target)
        assert sorted(calls, key=lambda G: G.n) == [C7, target]
        assert report["facts"]["codomain_component_ranks"] == [1, 1]
        assert not report["facts"]["codomain_connected"]

    def test_edge_into_five_cycle(self):
        report = full_case_report(K2, C5)
        assert report["edge_factoring_components"] == 1
        (c,) = report["components"]
        assert c["case"] == "HxK2Component"
        assert c["circles"] == 1
        assert c["size"] == 20
        assert c["homs"] == 10

    def test_both_bipartite_gives_two_wedges(self):
        report = full_case_report(K2, C6)
        assert report["edge_factoring_components"] == 2
        assert [c["case"] for c in report["components"]] == ["HxK2Component"] * 2
        assert [c["size"] for c in report["components"]] == [12, 12]
        assert [c["circles"] for c in report["components"]] == [1, 1]

    def test_rigid_self_maps(self):
        report = full_case_report(C3, C3)
        assert report["edge_factoring_components"] == 0
        assert [c["case"] for c in report["components"]] == ["Point"] * 6
        report = full_case_report(C5, C5)
        assert [c["case"] for c in report["components"]] == ["Point"] * 10

    def test_seven_cycle_circles(self):
        report = full_case_report(C7, C5)
        assert report["edge_factoring_components"] == 0
        assert sorted((c["case"], c["circles"], c["size"]) for c in report["components"]) == [
            ("Circle", 1, 70), ("Circle", 1, 70)]
        reps = sorted(tuple(c["representative"]["mapping"]) for c in report["components"])
        assert reps[0] == (0, 1, 0, 1, 2, 3, 4)

    def test_single_vertex_domain(self):
        report = full_case_report(K1, C5)
        assert report["facts"]["single_vertex_domain"]
        assert report["edge_factoring_components"] == 0
        (c,) = report["components"]
        assert (c["case"], c["size"]) == ("Point", 31)

    def test_relabeling_invariance(self):
        base = full_case_report(K2, C5)
        shape = sorted((c["case"], c["circles"], c["size"]) for c in base["components"])
        for perm in itertools.permutations(range(5)):
            H = permute_graph(C5, perm)
            report = full_case_report(K2, H)
            assert sorted(
                (c["case"], c["circles"], c["size"]) for c in report["components"]
            ) == shape

    def test_gates(self):
        with pytest.raises(EmptyHomSet):
            full_case_report(C3, path_graph(4))
        with pytest.raises(NotSquareFree):
            full_case_report(K2, cycle_graph(4))


class TestClosedForm:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(connected_instances())
    @example((K2, C5))
    @example((C3, C3))
    @example((C6, C3))
    @example((C7, C5))
    @example((C7, C3))
    @example((P3, petersen_graph()))
    def test_matches_the_report_at_every_member(self, instance):
        G, H = instance
        assume(G.n >= 2 and is_connected(H))
        report = full_case_report(G, H)
        for c, s in zip(report["components"], component_census(G, H)):
            for m in s.members:
                assert closed_form_type(GraphHom(G, H, m)) == c["case"]

    def test_frozen_cases(self):
        assert closed_form_type(GraphHom(C3, C3, (0, 1, 2))) == "Point"
        assert closed_form_type(GraphHom(C7, C5, (0, 1, 0, 1, 2, 3, 4))) == "Circle"
        assert closed_form_type(GraphHom(C6, C3, (0, 1, 0, 1, 0, 1))) == "HxK2Component"
        assert closed_form_type(GraphHom(P3, C5, (0, 1, 2))) == "HxK2Component"
        # winds once, with a backtrack through 3, 4, 3, 4: tree paths of equal
        # length meet at the chord (4, 5) without agreeing
        f = GraphHom(cycle_graph(8), C6, (0, 1, 2, 3, 4, 3, 4, 5))
        assert closed_form_type(f) == "Circle"
        report = full_case_report(f.domain, C6)
        cases = [
            c["case"]
            for c, s in zip(report["components"], component_census(f.domain, C6))
            if f.mapping in s.members
        ]
        assert cases == ["Circle"]

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(2, 6), st.sampled_from([C3, C5, C6, C7, petersen_graph(), BOWTIE]))
    @example(cycle_graph(8), C6)
    def test_matches_the_chord_loops_at_every_homomorphism(self, G, H):
        for f in enumerate_graph_homs(G, H):
            assert closed_form_type(f) == closed_form_reference(f)

    def test_refuses_inputs_outside_its_hypotheses(self):
        with pytest.raises(NotSquareFree):
            closed_form_type(GraphHom(K2, cycle_graph(4), (0, 1)))
        with pytest.raises(NotConnected):
            closed_form_type(GraphHom(K1, C5, (0,)))
        # the edge lies in vertex 0's component
        with pytest.raises(NotConnected):
            closed_form_type(GraphHom(disjoint_union(K2, K1), C5, (0, 1, 0)))
        with pytest.raises(NotConnected):
            closed_form_type(GraphHom(K2, disjoint_union(C5, C6), (0, 1)))

    def test_report_gates_each_component(self, monkeypatch):
        monkeypatch.setattr(classifier, "_closed_form", lambda f: "Circle")
        with pytest.raises(InvariantViolation, match="closed form says Circle"):
            full_case_report(C3, C3)
        with pytest.raises(InvariantViolation, match="closed form says Circle"):
            classify_component(K2, C5, GraphHom(K2, C5, (0, 1)))

    def test_gate_needs_connected_graphs_and_two_vertices(self, monkeypatch):
        def refuse(f):
            raise AssertionError("the closed form was consulted")

        monkeypatch.setattr(classifier, "_closed_form", refuse)
        full_case_report(K1, C5)
        full_case_report(C7, disjoint_union(C5, C6))
        full_case_report(disjoint_union(K1, K2), C5)
        for G, H, f in [
            (K1, C5, (0,)),
            (C7, disjoint_union(C5, C6), (0, 1, 0, 1, 2, 3, 4)),
            (disjoint_union(K1, K2), C5, (0, 0, 1)),
        ]:
            classify_component(G, H, GraphHom(G, H, f))
