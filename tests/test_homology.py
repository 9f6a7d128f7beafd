"""Exact homology of order complexes and of the cells of Hom(G, H).

The sparse fraction-free rank is cross-checked against a dense elimination
over Fraction on a batch of seeded random matrices before any Betti number
is trusted; Smith form outputs are checked against hand-reduced matrices.
The cellular Betti numbers of each component are checked against the order
complex of its face poset, which subdivides the same space.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from homcx import (
    ExplosionGuard,
    Graph,
    GraphHom,
    InvariantViolation,
    OrderComplex,
    chain_complex,
    complete_graph,
    complex_from_chains,
    component_betti,
    cycle_graph,
    elementary_divisors,
    enumerate_component,
    enumerate_graph_homs,
    exact_rank,
    petersen_graph,
)
from homcx.hom_poset import cellular_betti, cellular_chain_complex

from oracles import betti_numbers, order_complex
from test_engine import graphs


def dense_rank(rows, n_cols):
    """Textbook Gaussian elimination over the rationals."""
    m = [[Fraction(r.get(c, 0)) for c in range(n_cols)] for r in rows]
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestExactRank:
    def test_agrees_with_dense_elimination_on_random_matrices(self):
        rng = random.Random(11)
        for _ in range(200):
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            rows = []
            for _ in range(n_rows):
                row = {
                    c: rng.randint(-4, 4)
                    for c in range(n_cols)
                    if rng.random() < 0.6
                }
                rows.append({c: v for c, v in row.items() if v})
            assert exact_rank(rows) == dense_rank(rows, n_cols)

    def test_known_ranks(self):
        assert exact_rank([]) == 0
        assert exact_rank([{}, {}]) == 0
        assert exact_rank([{0: 2}, {0: 3}]) == 1
        assert exact_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
        assert exact_rank([{0: 1, 1: 2}, {0: 2, 1: 3}]) == 2
        # rank must be computed exactly, not float-ishly
        big = 10**30
        assert exact_rank([{0: big, 1: 1}, {0: big, 1: 0}]) == 2


def simplex_complex(*top):
    """Closure of the given top simplices, as an OrderComplex."""
    levels = {}
    for s in top:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            for face in itertools.combinations(s, k):
                levels.setdefault(k - 1, set()).add(face)
    return OrderComplex(
        tuple(tuple(sorted(levels[d])) for d in range(len(levels)))
    )


class TestComplexes:
    def test_validation_rejects_bad_input(self):
        with pytest.raises(InvariantViolation):
            OrderComplex((((0,), (1,)), ((1, 0),)))  # not increasing
        with pytest.raises(InvariantViolation):
            OrderComplex((((0,),), ((0, 1),)))  # face (1,) missing
        with pytest.raises(InvariantViolation):
            OrderComplex((((1,), (0,)),))  # level not sorted

    def test_chain_growth_respects_poset_order_not_labels(self):
        # element 1 sits strictly below element 0; the 1-chain must come out
        # as the sorted pair, and exactly once
        K = complex_from_chains(2, [[], [0]])
        assert K.simplices == (((0,), (1,)), ((0, 1),))

    def test_chains_of_a_three_element_fence(self):
        # 0 < 2 and 1 < 2: two maximal chains, no 2-chains
        K = complex_from_chains(3, [[2], [2], []])
        assert K.counts() == (3, 2)
        assert betti_numbers(K, 1) == (1, 0)

    def test_explosion_guard(self):
        # a chain on 40 totally ordered elements has 2^40 - 1 nonempty chains
        greater = [list(range(i + 1, 40)) for i in range(40)]
        with pytest.raises(ExplosionGuard):
            complex_from_chains(40, greater, cap=10_000)

    def test_boundary_of_boundary_vanishes(self):
        K = simplex_complex((0, 1, 2, 3))
        assert chain_complex(K).check_boundary_squared()


class TestBetti:
    def test_frozen_shapes(self):
        hollow = simplex_complex((0, 1), (1, 2), (0, 2))
        solid = simplex_complex((0, 1, 2))
        points = OrderComplex((((0,), (1,)),))
        sphere = simplex_complex(*itertools.combinations(range(4), 3))
        assert betti_numbers(hollow, 2) == (1, 1, 0)
        assert betti_numbers(solid, 2) == (1, 0, 0)
        assert betti_numbers(points, 2) == (2, 0, 0)
        assert betti_numbers(sphere, 2) == (1, 0, 1)

    def test_euler_characteristic_matches_betti_sum(self):
        for K in [
            simplex_complex((0, 1), (1, 2), (0, 2)),
            simplex_complex((0, 1, 2)),
            simplex_complex(*itertools.combinations(range(4), 3)),
            simplex_complex((0, 1, 2), (2, 3), (3, 4), (2, 4)),
        ]:
            betti = betti_numbers(K, K.dim)
            assert K.euler_characteristic() == sum(
                (-1) ** d * b for d, b in enumerate(betti)
            )


class TestSmithForm:
    def test_frozen_matrices(self):
        assert elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
        assert elementary_divisors([[2, 4], [4, 8]]) == [2]
        assert elementary_divisors([[0, 0], [0, 0]]) == []
        assert elementary_divisors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
        assert elementary_divisors([[6]]) == [6]
        assert elementary_divisors([[2, 1], [0, 2]]) == [1, 4]

    def test_divisor_chain_divides(self):
        rng = random.Random(23)
        for _ in range(60):
            m = [[rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]]
            width = len(m[0])
            for _ in range(rng.randint(0, 4)):
                m.append([rng.randint(-5, 5) for _ in range(width)])
            divs = elementary_divisors(m)
            assert all(a > 0 for a in divs)
            assert all(b % a == 0 for a, b in zip(divs, divs[1:]))
            # the count of divisors is the rank
            rows = [
                {c: v for c, v in enumerate(row) if v} for row in m
            ]
            assert len(divs) == exact_rank(rows)


class TestHomComponentHomology:
    def test_circle_component_is_torsion_free(self):
        K2, C5 = Graph(2, [(0, 1)]), cycle_graph(5)
        comp = enumerate_component(K2, C5, GraphHom(K2, C5, (0, 1)))
        K = order_complex(comp)
        assert K.counts() == (20, 20)
        assert K.euler_characteristic() == 0
        C = chain_complex(K)
        assert C.check_boundary_squared()
        rows = C.boundary_rows(1)
        dense = [
            [rows[i].get(c, 0) for c in range(K.counts()[1])]
            for i in range(K.counts()[0])
        ]
        divs = elementary_divisors(dense)
        assert divs == [1] * 19
        assert betti_numbers(K, 2) == (1, 1, 0)


@st.composite
def small_instances(draw):
    """A small domain, a target (random, or one with squares or triangles)
    and one homomorphism between them."""
    G = draw(graphs(1, 3))
    H = draw(
        st.one_of(
            st.sampled_from([complete_graph(3), complete_graph(4), cycle_graph(4)]),
            graphs(1, 5),
        )
    )
    homs = enumerate_graph_homs(G, H)
    assume(homs)
    return G, H, homs[draw(st.integers(0, len(homs) - 1))]


class TestCellularHomology:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(small_instances())
    def test_matches_order_complex(self, instance):
        G, H, f = instance
        try:
            P = enumerate_component(G, H, f, cap=120)
            K = order_complex(P, cap=20_000)
        except ExplosionGuard:
            assume(False)
        cells = cellular_betti(P)
        assert len(cells) == K.dim + 1
        assert cells == betti_numbers(K, K.dim)
        assert component_betti(P, max_dim=K.dim + 2) == cells + (0, 0)

    @pytest.mark.parametrize(
        "G, H, f",
        [
            (complete_graph(2), complete_graph(5), (0, 1)),
            (complete_graph(2), complete_graph(4), (0, 1)),
            (cycle_graph(6), cycle_graph(3), (0, 1, 0, 1, 0, 1)),
            (Graph(3, [(0, 1), (1, 2)]), petersen_graph(), (0, 1, 0)),
        ],
    )
    def test_boundary_squared_vanishes(self, G, H, f):
        C = cellular_chain_complex(enumerate_component(G, H, GraphHom(G, H, f)))
        assert len(C.counts) >= 3
        assert C.check_boundary_squared()

    @pytest.mark.parametrize(
        "n, betti", [(3, (1, 1, 0)), (4, (1, 0, 1, 0)), (5, (1, 0, 0, 1, 0))]
    )
    def test_edge_into_complete_graph_is_a_sphere(self, n, betti):
        # Hom(K2, K_n) is the sphere of dimension n - 2, so the top degree
        # checks the signs of the boundary in degree n - 2
        K2, Kn = complete_graph(2), complete_graph(n)
        P = enumerate_component(K2, Kn, GraphHom(K2, Kn, (0, 1)))
        assert component_betti(P, max_dim=n - 1) == betti
