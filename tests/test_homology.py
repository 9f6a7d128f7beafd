"""Exact homology of order complexes and of the cells of Hom(G, H).

The sparse fraction-free rank is cross-checked against a dense elimination
over Fraction on a batch of seeded random matrices before any Betti number
is trusted; Smith form outputs are checked against hand-reduced matrices.
The cellular Betti numbers of each component are checked against the order
complex of its face poset, which subdivides the same space, and the Betti
numbers read off the acyclic matching against the ranks of the cellular
chain complex.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from homcx import (
    ExplosionGuard,
    Graph,
    GraphHom,
    InvariantViolation,
    OrderComplex,
    chain_complex,
    complete_bipartite,
    complete_graph,
    complex_from_chains,
    cycle_graph,
    enumerate_component,
    enumerate_graph_homs,
    exact_rank,
    path_graph,
    petersen_graph,
)
from homcx import hom_poset
from homcx.classifier import full_case_report
from homcx.cli import load_graph
from homcx.hom_poset import (
    _critical_counts,
    _fold_start,
    _hom_mappings,
    _walk,
    cellular_chain_complex,
    component_summary,
)
from homcx.homology import ChainComplex

from oracles import (
    betti_numbers,
    cellular_betti,
    critical_cells,
    elementary_divisors,
    keyed_chain_complex,
    morse_pairs,
    order_complex,
)
from test_engine import graphs
from test_hom_poset import connected_graphs, square_free_graphs
from test_report_digests import LADDER


def boundary_squared_vanishes(C):
    """Do the consecutive boundary maps of the chain complex C compose to zero?"""
    for d in range(2, len(C.boundaries)):
        lower = C.boundaries[d - 1]
        for entries in C.boundaries[d]:
            acc = {}
            for mid, sign in entries:
                for row, sign2 in lower[mid]:
                    acc[row] = acc.get(row, 0) + sign * sign2
            if any(acc.values()):
                return False
    return True


def euler_characteristic(K):
    """The alternating sum of the simplex counts of K."""
    return sum((-1) ** d * n for d, n in enumerate(K.counts()))


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


def hom_instance(G, H, mapping):
    return G, H, GraphHom(G, H, mapping)


@st.composite
def integer_matrices(draw):
    """Up to 12 x 12, entries up to +-10**6, with some rows repeated or
    integer combinations of two others; returns (rows, n_cols)."""
    n_cols = draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
    rows = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 12 - len(rows)))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    rows = draw(st.permutations(rows))
    return [{c: v for c, v in enumerate(row) if v} for row in rows], n_cols


def transpose(rows, n_cols):
    cols = [{} for _ in range(n_cols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


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

    @settings(max_examples=100, deadline=None)
    @given(integer_matrices())
    def test_agrees_with_dense_elimination_on_dependent_rows(self, matrix):
        rows, n_cols = matrix
        rank = dense_rank(rows, n_cols)
        assert exact_rank(rows) == rank
        assert exact_rank(transpose(rows, n_cols)) == rank

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(small_instances())
    @example(hom_instance(complete_graph(2), complete_graph(4), (0, 1)))
    def test_agrees_with_dense_elimination_on_boundary_matrices(self, instance):
        # as rows (the benchmark's traced pass) and as the stored columns
        # (ChainComplex.betti)
        G, H, f = instance
        try:
            P = enumerate_component(G, H, f, cap=80)
        except ExplosionGuard:
            assume(False)
        C = cellular_chain_complex(P)
        for d in range(1, len(C.counts)):
            rank = dense_rank(C.boundary_rows(d), C.counts[d])
            assert exact_rank(C.boundary_rows(d)) == rank
            assert exact_rank(dict(col) for col in C.boundaries[d]) == rank

    @pytest.mark.parametrize("rows", [[{0: 0, 1: 0}], [{0: 1, 1: 0}, {0: 1}]])
    def test_explicit_zero_entries_are_not_counted(self, rows):
        dense = [[row.get(c, 0) for c in range(2)] for row in rows]
        copies = [dict(row) for row in rows]
        assert exact_rank(rows) == len(elementary_divisors(dense))
        assert rows == copies

    def test_leaves_its_input_unmodified(self):
        # rows two to four are reduced against stored pivot rows; the fourth
        # repeats the first and reduces to zero
        rows = [{0: 2, 3: 5}, {1: 1, 3: -5}, {0: 4, 1: 3, 3: 7}, {0: 2, 3: 5}, {2: 6}]
        copies = [dict(row) for row in rows]
        assert exact_rank(rows) == 4
        assert rows == copies


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


@st.composite
def incidence_matrices(draw):
    """The oriented incidence matrix of a random multigraph on up to 10
    vertices, as (n_rows, columns). Each column is an edge, two entries of
    opposite sign in either order; vertices may be isolated, the graph
    disconnected, edges repeated, and there may be no edges at all."""
    n = draw(st.integers(0, 10))
    if n < 2:
        return n, []
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    cols = []
    for a, b in draw(st.lists(ends, max_size=15)):
        s = draw(st.sampled_from([1, -1]))
        cols.append(((a, s), (b, -s)))
    return n, cols


class TestIncidenceRank:
    @settings(max_examples=200, deadline=None)
    @given(incidence_matrices())
    def test_betti_matches_dense_elimination(self, matrix):
        n, cols = matrix
        rank = dense_rank([dict(col) for col in cols], n)
        C = ChainComplex((n, len(cols)), (tuple(() for _ in range(n)), tuple(cols)))
        assert C.betti() == (n - rank, len(cols) - rank)

    @pytest.mark.parametrize(
        "col",
        [
            (),
            ((0, 1),),
            ((0, 1), (1, 1)),
            ((0, -1), (1, -1)),
            ((0, 2), (1, -1)),
            ((0, 0), (1, 0)),
            ((0, 1), (1, -1), (2, 1)),
        ],
    )
    def test_any_integer_column_is_ranked(self, col):
        rank = len(elementary_divisors([[dict(col).get(r, 0)] for r in range(3)]))
        C = ChainComplex((3, 1), (((), (), ()), (col,)))
        assert C.betti() == (3 - rank, 1 - rank)


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
        with pytest.raises(ExplosionGuard, match="order complex chains: reached 10700, over"):
            complex_from_chains(40, greater, cap=10_000)

    def test_boundary_of_boundary_vanishes(self):
        K = simplex_complex((0, 1, 2, 3))
        assert boundary_squared_vanishes(chain_complex(K))


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
            assert euler_characteristic(K) == sum(
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
        assert euler_characteristic(K) == 0
        C = chain_complex(K)
        assert boundary_squared_vanishes(C)
        rows = C.boundary_rows(1)
        dense = [
            [rows[i].get(c, 0) for c in range(K.counts()[1])]
            for i in range(K.counts()[0])
        ]
        divs = elementary_divisors(dense)
        assert divs == [1] * 19
        assert betti_numbers(K, 2) == (1, 1, 0)


class TestCellularHomology:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(small_instances())
    def test_matches_order_complex(self, instance):
        G, H, f = instance
        try:
            P = enumerate_component(G, H, f, cap=120)
            # the order complex of a component of 93 or more cells can reach
            # 15,000 simplices, which take 0.4 to 0.8 s per example to build
            # and rank
            assume(len(P) <= 90)
            K = order_complex(P, cap=20_000)
        except ExplosionGuard:
            assume(False)
        cells = cellular_betti(P)
        assert len(cells) == K.dim + 1
        assert cells == betti_numbers(K, K.dim)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(small_instances())
    @example(hom_instance(cycle_graph(6), cycle_graph(3), (0, 1, 0, 1, 0, 1)))
    @example(hom_instance(path_graph(3), petersen_graph(), (0, 1, 0)))
    def test_masks_match_keyed_builder(self, instance):
        # equal, not just isomorphic: same grades, same columns in the same
        # order, same signs
        G, H, f = instance
        try:
            P = enumerate_component(G, H, f, cap=2_000)
        except ExplosionGuard:
            assume(False)
        C, ref = cellular_chain_complex(P), keyed_chain_complex(P)
        assert C.counts == ref.counts
        assert C.boundaries == ref.boundaries

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
        assert boundary_squared_vanishes(C)

    @pytest.mark.parametrize(
        "n, betti", [(3, (1, 1, 0)), (4, (1, 0, 1, 0)), (5, (1, 0, 0, 1, 0))]
    )
    def test_edge_into_complete_graph_is_a_sphere(self, n, betti):
        # Hom(K2, K_n) is the sphere of dimension n - 2, so the top degree
        # checks the signs of the boundary in degree n - 2
        K2, Kn = complete_graph(2), complete_graph(n)
        P = enumerate_component(K2, Kn, GraphHom(K2, Kn, (0, 1)))
        assert cellular_betti(P) + (0,) == betti


# P5 numbered out of order (3-2-1-0-4): its matching into C5 leaves critical
# 2-cells, so cellular_betti must fall back to ranks
P5_OUT_OF_ORDER = Graph(5, {(0, 1), (0, 4), (1, 2), (2, 3)})


def check_acyclic_matching(P, pairs):
    """Each pair is a cell of P and a face one bit below it, no cell is
    matched twice, and the Hasse diagram, edges pointing down except the
    matched ones, which point up, has a topological order."""
    m, n = P.domain.n, P.codomain.n
    everything = (1 << n) - 1
    cells = set(P.cells)
    up = {}
    for face, coface in pairs:
        assert face in cells and coface in cells
        assert face & coface == face and (coface ^ face).bit_count() == 1
        up[face] = coface
    assert len(set(up) | set(up.values())) == 2 * len(pairs)
    arcs = {cell: [] for cell in P.cells}
    indegree = dict.fromkeys(P.cells, 0)
    for cell in P.cells:
        for shift in range(0, m * n, n):
            s = cell >> shift & everything
            if s & (s - 1):
                for x in range(n):
                    if s >> x & 1:
                        face = cell ^ 1 << (shift + x)
                        tail, head = (face, cell) if up.get(face) == cell else (cell, face)
                        arcs[tail].append(head)
                        indegree[head] += 1
    ready = [cell for cell, k in indegree.items() if not k]
    ordered = 0
    while ready:
        cell = ready.pop()
        ordered += 1
        for head in arcs[cell]:
            indegree[head] -= 1
            if not indegree[head]:
                ready.append(head)
    assert ordered == len(P.cells), "the matching has a cycle"


def first_component(G, H):
    return enumerate_component(G, H, enumerate_graph_homs(G, H)[0])


class TestMorseMatching:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(small_instances())
    @example(hom_instance(complete_graph(2), complete_graph(4), (0, 1)))
    @example(hom_instance(cycle_graph(4), cycle_graph(4), (0, 1, 2, 3)))
    @example(hom_instance(P5_OUT_OF_ORDER, cycle_graph(5), (0, 1, 0, 1, 1)))
    def test_matches_the_chain_complex(self, instance):
        G, H, f = instance
        try:
            P = enumerate_component(G, H, f, cap=2_000)
        except ExplosionGuard:
            assume(False)
        C = cellular_chain_complex(P)
        critical = critical_cells(P)
        assert len(critical) == len(C.counts)
        assert sum((-1) ** d * c for d, c in enumerate(critical)) == sum(
            (-1) ** d * c for d, c in enumerate(C.counts)
        )
        assert all(0 <= c <= k for c, k in zip(critical, C.counts))
        assert critical[0] >= 1
        assert cellular_betti(P) == C.betti()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(small_instances())
    @example(hom_instance(complete_graph(2), complete_graph(4), (0, 1)))
    def test_is_acyclic(self, instance):
        G, H, f = instance
        try:
            P = enumerate_component(G, H, f, cap=2_000)
        except ExplosionGuard:
            assume(False)
        check_acyclic_matching(P, morse_pairs(P))
        assert critical_cells(P) == reference_critical(P)

    @pytest.mark.parametrize(
        "G, H",
        [
            (cycle_graph(7), petersen_graph()),
            (path_graph(5), petersen_graph()),
            (cycle_graph(9), cycle_graph(3)),
            (cycle_graph(8), cycle_graph(5)),
            (complete_bipartite(1, 3), cycle_graph(5)),
            (P5_OUT_OF_ORDER, cycle_graph(5)),
        ],
    )
    def test_is_acyclic_on_ladder_shapes(self, G, H):
        P = first_component(G, H)
        check_acyclic_matching(P, morse_pairs(P))
        assert critical_cells(P) == reference_critical(P)

    @pytest.mark.parametrize(
        "G, top", [(path_graph(4), 4), (complete_bipartite(1, 3), 6)]
    )
    def test_trees_into_petersen_leave_a_wedge_of_eleven(self, G, top, monkeypatch):
        # the matching is perfect but for one vertex and eleven edges, and
        # no boundary matrix is built
        monkeypatch.setattr(hom_poset, "cellular_chain_complex", None)
        P = first_component(G, petersen_graph())
        assert critical_cells(P) == (1, 11) + (0,) * (top - 1)
        assert cellular_betti(P) == (1, 11) + (0,) * (top - 1)

    def test_critical_two_cells_fall_back_to_ranks(self, monkeypatch):
        built = []

        def counted(P):
            built.append(P)
            return cellular_chain_complex(P)

        monkeypatch.setattr(hom_poset, "cellular_chain_complex", counted)
        C5 = cycle_graph(5)
        P = enumerate_component(P5_OUT_OF_ORDER, C5, GraphHom(P5_OUT_OF_ORDER, C5, (0, 1, 0, 1, 1)))
        critical = critical_cells(P)
        assert critical[2] > 0
        assert cellular_betti(P) == (1, 1, 0, 0)
        assert built == [P]

    def test_a_wrong_critical_count_is_caught(self, monkeypatch):
        # one critical 2-cell too many forces the ranks, and the Euler
        # characteristic of the full component must disagree, on the full
        # walk and on the folded one
        def one_more(*args):
            critical = list(_critical_counts(*args)) + [0, 0]
            critical[2] += 1
            return tuple(critical)

        monkeypatch.setattr(hom_poset, "_critical_counts", one_more)
        C5 = cycle_graph(5)
        f = GraphHom(complete_graph(2), C5, (0, 1))
        with pytest.raises(InvariantViolation, match="Euler characteristic"):
            cellular_betti(enumerate_component(f.domain, C5, f))
        with pytest.raises(InvariantViolation, match="Euler characteristic"):
            component_summary(f.domain, C5, f)

    def test_single_homomorphism_is_a_point(self):
        C3 = cycle_graph(3)
        P = enumerate_component(C3, C3, GraphHom(C3, C3, (0, 1, 2)))
        assert critical_cells(P) == (1,)
        assert cellular_betti(P) == (1,)


def reference_critical(P):
    """The cells of each dimension that the oracle's matching on every cell
    of P leaves unmatched."""
    m = P.domain.n
    critical = [0] * (max(cell.bit_count() for cell in P.cells) - m + 1)
    for cell in P.cells:
        critical[cell.bit_count() - m] += 1
    for face, coface in morse_pairs(P):
        critical[face.bit_count() - m] -= 1
        critical[coface.bit_count() - m] -= 1
    return tuple(critical)


def full_or_guard(G, H, f, cap):
    """The full walk's size and homomorphisms and the oracle's critical
    counts, or the message of the cap the walk trips."""
    try:
        P = enumerate_component(G, H, f, cap=cap)
    except ExplosionGuard as exc:
        return str(exc)
    return len(P), P.hom_mappings, reference_critical(P)


def folded_or_guard(G, H, f, cap):
    """The same from the folded walk and the matching on its kept cells."""
    try:
        homs, kept, size, top = _walk(G, H, f, cap, _fold_start(G))
    except ExplosionGuard as exc:
        return str(exc)
    return size, homs, _critical_counts(kept, G.n, H.n, top)


SQUARE_FREE = [cycle_graph(3), cycle_graph(5), cycle_graph(7), petersen_graph()]
WITH_SQUARES = [cycle_graph(4), complete_graph(4), complete_graph(5), complete_bipartite(2, 3)]


class TestFoldedWalk:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        st.one_of(graphs(1, 6), connected_graphs(6)),
        st.one_of(st.sampled_from(SQUARE_FREE + WITH_SQUARES), square_free_graphs(8)),
        st.data(),
    )
    def test_matches_the_full_walk(self, G, H, data):
        # size, homomorphisms, top dimension and critical counts, or the
        # same tripped cap; and the summary built from them
        homs = list(itertools.islice(_hom_mappings(G, H), 50))
        assume(homs)
        f = GraphHom(G, H, data.draw(st.sampled_from(homs)))
        expected = full_or_guard(G, H, f, 3_000)
        assert folded_or_guard(G, H, f, 3_000) == expected
        if not isinstance(expected, str):
            s = component_summary(G, H, f, cap=3_000)
            assert (s.size, s.members) == expected[:2]
            assert s.cell_betti == cellular_betti(enumerate_component(G, H, f, cap=3_000))

    @pytest.mark.parametrize(
        "G, H, start, kept",
        [
            (complete_bipartite(1, 4), petersen_graph(), 1, 50),
            (path_graph(3), petersen_graph(), 2, 110),
            (cycle_graph(7), petersen_graph(), 6, 180),
            (Graph(3), cycle_graph(5), 0, 1),
            (Graph(3, {(0, 1)}), cycle_graph(5), 1, 10),
        ],
    )
    def test_examples(self, G, H, start, kept):
        assert _fold_start(G) == start
        f = GraphHom(G, H, min(_hom_mappings(G, H)))
        assert len(_walk(G, H, f, math.inf, start)[1]) == kept
        assert folded_or_guard(G, H, f, math.inf) == full_or_guard(G, H, f, math.inf)

    def test_critical_two_cells_take_one_full_walk(self, monkeypatch):
        built = []

        def counted(P):
            built.append(P)
            return cellular_chain_complex(P)

        monkeypatch.setattr(hom_poset, "cellular_chain_complex", counted)
        C5 = cycle_graph(5)
        f = GraphHom(P5_OUT_OF_ORDER, C5, (0, 1, 0, 1, 1))
        assert component_summary(P5_OUT_OF_ORDER, C5, f).cell_betti == (1, 1, 0, 0)
        assert built == [enumerate_component(P5_OUT_OF_ORDER, C5, f)]

    @pytest.mark.parametrize("g, h", LADDER)
    def test_no_ladder_instance_builds_a_chain_complex(self, g, h, monkeypatch):
        monkeypatch.setattr(hom_poset, "cellular_chain_complex", None)
        assert full_case_report(load_graph(g), load_graph(h))
