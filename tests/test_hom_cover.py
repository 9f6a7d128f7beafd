"""The identity component of the fiber over a fixed homomorphism.

Membership, the interaction digraph, the deformation to the identity, the
local covering property, the filtration operators, and the deck group. The
bounded BFS enumeration is held against an independent structural search
(all candidate elements, filtered by the closed-form membership test), and
tight vertices against brute force over every closed walk long enough to
see a cycle of the pair digraph.
"""

import itertools

import pytest

from homcx import (
    EfElement,
    Graph,
    GraphHom,
    InvariantViolation,
    NoSink,
    NotConnected,
    NotInDomain,
    NotInFiber,
    NotNeighbor,
    NotSquareFree,
    ReducedWalk,
    Walk,
    aux_digraph,
    check_poset_covering_local,
    cycle_graph,
    down_lift,
    enumerate_Ef_bounded,
    gamma_act,
    gamma_elements_bounded,
    gamma_identity,
    gamma_inverse,
    gamma_product,
    identity_element,
    in_stage,
    is_f_tight,
    is_in_Ef,
    path_graph,
    reduce_to_identity,
    retraction_D,
    retraction_U,
    simple_path_ordering,
    tight_vertices,
    trivial_walk,
)

from oracles import fiber_candidates_bounded

K2 = Graph(2, [(0, 1)])
C3 = cycle_graph(3)
C5 = cycle_graph(5)
C6 = cycle_graph(6)

EDGE_IN_C5 = GraphHom(K2, C5, (0, 1))
WIND = GraphHom(C6, C3, (0, 1, 2, 0, 1, 2))
FLAT = GraphHom(C6, C3, (0, 1, 0, 1, 0, 1))


def brute_tight(f):
    """Vertices on a closed walk with cyclically reduced image, by brute force.

    A tight closed walk corresponds to a directed cycle on the ordered-pair
    digraph, so length 2|E(G)| is enough to find one through any vertex.
    """
    G = f.domain
    bound = 2 * G.edge_count
    out = set()
    for u in G.vertices():
        frontier = [(u,)]
        for _ in range(bound):
            frontier = [w + (y,) for w in frontier for y in G.neighbors(w[-1])]
            for seq in frontier:
                if seq[-1] == u and is_f_tight(f, Walk(G, seq)):
                    out.add(u)
                    frontier = []
                    break
            if not frontier:
                break
    return frozenset(out)


class TestTightVertices:
    def test_matches_brute_force(self):
        spiked = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        cases = [
            WIND,
            FLAT,
            EDGE_IN_C5,
            GraphHom(C3, C3, (0, 1, 2)),
            GraphHom(spiked, C3, (0, 1, 2, 0)),
        ]
        for f in cases:
            assert tight_vertices(f) == brute_tight(f)

    def test_frozen(self):
        assert tight_vertices(WIND) == frozenset(range(6))
        assert tight_vertices(FLAT) == frozenset()
        assert tight_vertices(EDGE_IN_C5) == frozenset()
        assert tight_vertices(GraphHom(C3, C3, (0, 1, 2))) == frozenset({0, 1, 2})
        spiked = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert tight_vertices(GraphHom(spiked, C3, (0, 1, 2, 0))) == frozenset({0, 1, 2})


class TestFiberElements:
    def test_validation(self):
        f = EDGE_IN_C5
        with pytest.raises(NotInFiber):
            EfElement(f, (frozenset({trivial_walk(C5, 0)}),))
        with pytest.raises(NotInFiber):
            EfElement(f, (frozenset({trivial_walk(C5, 0)}), frozenset()))
        with pytest.raises(NotInFiber):
            # starts at 2, the fiber over f needs 1
            EfElement(f, (frozenset({trivial_walk(C5, 0)}), frozenset({trivial_walk(C5, 2)})))
        with pytest.raises(NotNeighbor):
            EfElement(
                f,
                (
                    frozenset({ReducedWalk(C5, (0, 4, 3, 2))}),
                    frozenset({trivial_walk(C5, 1)}),
                ),
            )

    def test_identity_element(self):
        e = identity_element(EDGE_IN_C5)
        assert e.norm() == 0
        assert e.is_singleton()
        assert e.target_hom().key() == ((0,), (1,))
        assert is_in_Ef(e)
        assert is_in_Ef(identity_element(WIND))

    def test_odd_lengths_are_rejected(self):
        # structurally fine but one step long: outside the identity component
        phi = EfElement(
            EDGE_IN_C5,
            (
                frozenset({ReducedWalk(C5, (0, 1))}),
                frozenset({ReducedWalk(C5, (1, 0))}),
            ),
        )
        assert not is_in_Ef(phi)

    def test_tight_vertices_pin_their_walks(self):
        # every vertex is tight under the winding map, so nothing can move
        assert enumerate_Ef_bounded(WIND, 8) == [identity_element(WIND)]

    def test_projection_and_order(self):
        phi = EfElement(
            EDGE_IN_C5,
            (
                frozenset({trivial_walk(C5, 0), ReducedWalk(C5, (0, 1, 2))}),
                frozenset({ReducedWalk(C5, (1,))}),
            ),
        )
        assert phi.len_at(0) == 2 and phi.len_at(1) == 0
        assert phi.norm() == 2
        assert not phi.is_singleton()
        assert phi.target_hom().key() == ((0, 2), (1,))
        assert identity_element(EDGE_IN_C5).leq(phi)
        with pytest.raises(NotInFiber):
            phi.as_homotopy()

    def test_requires_square_free_target(self):
        f = GraphHom(K2, cycle_graph(4), (0, 1))
        with pytest.raises(NotSquareFree):
            is_in_Ef(identity_element(f))
        with pytest.raises(NotConnected):
            is_in_Ef(identity_element(GraphHom(Graph(1, []), C5, (0,))))


class TestBoundedEnumeration:
    def test_two_routes_agree(self):
        for bound, size in [(4, 9), (6, 13), (8, 17)]:
            bfs = enumerate_Ef_bounded(EDGE_IN_C5, bound)
            structural = [
                e for e in fiber_candidates_bounded(EDGE_IN_C5, bound) if is_in_Ef(e)
            ]
            assert bfs == structural
            assert len(bfs) == size

    def test_two_routes_agree_on_a_path_domain(self):
        P3 = path_graph(3)
        f = GraphHom(P3, C5, (0, 1, 2))
        bfs = enumerate_Ef_bounded(f, 6)
        structural = [e for e in fiber_candidates_bounded(f, 6) if is_in_Ef(e)]
        assert bfs == structural

    def test_enumeration_is_norm_monotone(self):
        small = set(enumerate_Ef_bounded(EDGE_IN_C5, 4))
        big = set(enumerate_Ef_bounded(EDGE_IN_C5, 8))
        assert small < big
        assert all(e.norm() <= 4 for e in small)


class TestInteractionDigraph:
    def test_arcs_point_toward_longer_walks(self):
        for e in enumerate_Ef_bounded(EDGE_IN_C5, 8):
            D = aux_digraph(e)
            for a, b in D.arcs:
                assert e.len_at(a) <= e.len_at(b)

    def test_positive_norm_forces_a_sink(self):
        P3 = path_graph(3)
        cases = [
            (EDGE_IN_C5, 8),
            (GraphHom(P3, C5, (0, 1, 2)), 6),
        ]
        for f, bound in cases:
            checked = 0
            for e in enumerate_Ef_bounded(f, bound):
                if e.norm() > 0:
                    assert aux_digraph(e).sinks()
                    checked += 1
            assert checked > 0

    def test_contains_directed_walk(self):
        e = next(
            x for x in enumerate_Ef_bounded(EDGE_IN_C5, 4) if x.norm() == 4 and x.is_singleton()
        )
        D = aux_digraph(e)
        assert D.vertices == frozenset({0, 1})
        assert not D.contains_directed_walk((0, 7))


class TestReduceToIdentity:
    def test_every_bounded_singleton_deforms_to_the_identity(self):
        singletons = [e for e in enumerate_Ef_bounded(EDGE_IN_C5, 8) if e.is_singleton()]
        assert len(singletons) == 9
        for h in singletons:
            chain = reduce_to_identity(h)
            assert len(chain) == h.norm() // 2 + 1
            assert chain[0] == h
            assert chain[-1] == identity_element(EDGE_IN_C5)
            for a, b in zip(chain, chain[1:]):
                assert a.norm() - b.norm() == 2
                assert is_in_Ef(b)

    def test_gates(self):
        phi = EfElement(
            EDGE_IN_C5,
            (
                frozenset({trivial_walk(C5, 0), ReducedWalk(C5, (0, 1, 2))}),
                frozenset({ReducedWalk(C5, (1,))}),
            ),
        )
        with pytest.raises(NotInDomain):
            reduce_to_identity(phi)  # not singleton-valued
        odd = EfElement(
            EDGE_IN_C5,
            (
                frozenset({ReducedWalk(C5, (0, 1))}),
                frozenset({ReducedWalk(C5, (1, 0))}),
            ),
        )
        with pytest.raises(NotInDomain):
            reduce_to_identity(odd)


class TestCoveringChecks:
    def test_no_violations_over_a_square_free_target(self):
        report = check_poset_covering_local(EDGE_IN_C5, 6)
        assert report["violations"] == []
        assert report["down_checks"] == 17
        assert report["up_checks"] == 11
        assert report["elements"] == 13
        assert report["square_free"] is True

    def test_four_cycle_target_breaks_unique_lifting(self):
        # the covering property genuinely fails without square-freeness:
        # over C4 a vertex map can extend upward in no way at all
        f = GraphHom(path_graph(3), cycle_graph(4), (0, 1, 2))
        report = check_poset_covering_local(f, 6)
        assert report["square_free"] is False
        assert report["elements"] == 21
        assert (report["down_checks"], report["up_checks"]) == (33, 8)
        assert len(report["violations"]) == 4
        assert all(v["direction"] == "up" for v in report["violations"])
        assert all(v["lift_count"] == 0 for v in report["violations"])
        assert all(v["target"]["sets"][1] == [1, 3] for v in report["violations"])

    def test_down_lift_formula(self):
        for phi in enumerate_Ef_bounded(EDGE_IN_C5, 6):
            tphi = phi.target_hom()
            pools = [
                [frozenset(c) for r in range(1, len(s) + 1) for c in itertools.combinations(sorted(s), r)]
                for s in tphi.sets
            ]
            from homcx import SetValuedHom

            for pick in itertools.product(*pools):
                psi = SetValuedHom(K2, C5, pick)
                lifted = down_lift(phi, psi)
                assert lifted.leq(phi)
                assert lifted.target_hom() == psi

    def test_down_lift_rejects_non_comparable_targets(self):
        from homcx import SetValuedHom

        phi = identity_element(EDGE_IN_C5)
        with pytest.raises(NotInFiber):
            down_lift(phi, SetValuedHom(K2, C5, ({2}, {3})))


class TestFiltration:
    def test_simple_path_ordering(self):
        assert simple_path_ordering(K2) == ((0,), (1,), (0, 1), (1, 0))
        assert simple_path_ordering(path_graph(3)) == (
            (0,), (1,), (2,),
            (0, 1), (1, 0), (1, 2), (2, 1),
            (0, 1, 2), (2, 1, 0),
        )

    def test_stage_sizes_grow_one_truncation_at_a_time(self):
        elements = enumerate_Ef_bounded(EDGE_IN_C5, 4)
        paths = simple_path_ordering(K2)
        sizes = [
            sum(in_stage(e, 1, i, paths) for e in elements)
            for i in range(len(paths) + 1)
        ]
        assert sizes == [1, 3, 5, 7, 9]
        # stage (n, 0) is stage (n-1, last): levels at most 2(n-1)
        for e in elements:
            assert in_stage(e, 1, 0, paths) == in_stage(e, 0, len(paths), paths)

    def test_closure_and_interior_operators(self):
        elements = enumerate_Ef_bounded(EDGE_IN_C5, 4)
        paths = simple_path_ordering(K2)
        for i in range(1, len(paths) + 1):
            stage = [e for e in elements if in_stage(e, 1, i, paths)]
            for phi in stage:
                up = retraction_U(phi, 1, i, paths)
                assert phi.leq(up)
                assert retraction_U(up, 1, i, paths) == up
                down = retraction_D(up, 1, i, paths)
                assert down.leq(up)
                assert in_stage(down, 1, i - 1, paths)
                if in_stage(phi, 1, i - 1, paths):
                    assert up == phi and down == phi

    def test_stage_gates(self):
        phi = identity_element(EDGE_IN_C5)
        paths = simple_path_ordering(K2)
        with pytest.raises(NotInDomain):
            retraction_U(phi, 1, 0, paths)
        with pytest.raises(NotInDomain):
            retraction_U(phi, 1, 5, paths)
        deep = next(
            e for e in enumerate_Ef_bounded(EDGE_IN_C5, 8) if e.norm() == 8
        )
        with pytest.raises(NotInDomain):
            retraction_U(deep, 1, 4, paths)  # levels exceed 2


class TestDeckGroup:
    def test_bounded_elements(self):
        gs = gamma_elements_bounded(EDGE_IN_C5, 0, 20)
        assert [g.norm() for g in gs] == [0, 20, 20]
        gs = gamma_elements_bounded(EDGE_IN_C5, 0, 40)
        assert [g.norm() for g in gs] == [0, 20, 20, 40, 40]
        assert gs[0] == gamma_identity(EDGE_IN_C5)

    def test_group_table_is_infinite_cyclic(self):
        # indices: 0 identity, 1 and 2 the two generators (inverse to each
        # other), 3 and 4 their squares
        gs = gamma_elements_bounded(EDGE_IN_C5, 0, 40)
        assert gamma_inverse(gs[1]) == gs[2]
        assert gamma_inverse(gs[3]) == gs[4]
        assert gamma_product(gs[1], gs[1]) == gs[3]
        assert gamma_product(gs[1], gs[2]) == gs[0]
        assert gamma_product(gs[2], gs[2]) == gs[4]
        assert gamma_product(gs[1], gs[4]) == gs[2]
        assert gamma_product(gs[2], gs[3]) == gs[1]
        assert gamma_product(gs[3], gs[4]) == gs[0]
        assert gamma_product(gs[3], gs[2]) == gs[1]
        assert gamma_product(gs[4], gs[1]) == gs[2]
        assert gamma_product(gs[4], gs[3]) == gs[0]
        inside = {g.key() for g in gs}
        exponent = {1: 1, 2: -1, 3: 2, 4: -2}
        for i, j in [(1, 3), (2, 4), (3, 1), (3, 3), (4, 2), (4, 4)]:
            product = gamma_product(gs[i], gs[j])
            assert product.norm() == 20 * abs(exponent[i] + exponent[j])
            assert product.key() not in inside

    def test_action_commutes_with_projection(self):
        gs = gamma_elements_bounded(EDGE_IN_C5, 0, 20)
        elements = enumerate_Ef_bounded(EDGE_IN_C5, 6)
        for g in gs:
            for phi in elements:
                moved = gamma_act(g, phi)
                assert moved.target_hom() == phi.target_hom()
                assert is_in_Ef(moved)

    def test_action_is_a_free_group_action(self):
        gs = gamma_elements_bounded(EDGE_IN_C5, 0, 40)
        phi = identity_element(EDGE_IN_C5)
        for a in gs:
            for b in gs:
                left = gamma_act(a, gamma_act(b, phi))
                right = gamma_act(gamma_product(a, b), phi)
                assert left == right
        for g in gs[1:]:
            assert gamma_act(g, phi) != phi

    def test_mismatched_base_rejected(self):
        g = gamma_identity(EDGE_IN_C5)
        other = identity_element(GraphHom(K2, C5, (1, 2)))
        with pytest.raises(NotInFiber):
            gamma_act(g, other)
