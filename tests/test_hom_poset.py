"""The hom poset: enumeration, components, census.

Component discovery is cross-checked against a zigzag oracle that
materializes every set-valued homomorphism by brute force and joins them
with union-find over comparability. The oracle knows nothing of the move
rule, so it also checks that rule on targets with four-cycles. Components
too large for it are held against the cell-by-cell walk of
oracles.walked_component.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from homcx import (
    ExplosionGuard,
    Graph,
    GraphHom,
    InvariantViolation,
    NotHomomorphism,
    SetValuedHom,
    classify_component,
    complete_graph,
    component_census,
    component_summary,
    census_report,
    cycle_graph,
    enumerate_component,
    enumerate_graph_homs,
    full_case_report,
    has_hom,
    is_square_free,
    path_graph,
    petersen_graph,
)
from homcx import hom_poset
from homcx.graphs import mask_bits
from homcx.hom_poset import _hom_mappings, larger_cells

from oracles import (
    cell_keys,
    cell_masks,
    component_census_reference,
    hom_adjacent,
    set_leq,
    set_norm,
    smaller_cells,
    walked_component,
)

K2 = Graph(2, [(0, 1)])
C3 = cycle_graph(3)
C5 = cycle_graph(5)
C6 = cycle_graph(6)
P3 = path_graph(3)
P4 = path_graph(4)


def post_compose(k, phi):
    """Apply a homomorphism k: H -> K to every image set of phi."""
    if k.domain != phi.codomain:
        raise NotHomomorphism("composition mismatch: k must start where phi lands")
    return SetValuedHom(
        phi.domain, k.codomain, (frozenset(k(x) for x in s) for s in phi.sets)
    )


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


@st.composite
def connected_graphs(draw, max_n):
    """A random spanning tree plus a few random edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return Graph(n, edges)


@st.composite
def square_free_graphs(draw, max_n):
    """Edges offered in a random order, each kept unless it closes a 4-cycle."""
    n = draw(st.integers(2, max_n))
    pairs = draw(st.permutations(list(itertools.combinations(range(n), 2))))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    nbrs = [set() for _ in range(n)]
    for (a, b), k in zip(pairs, keep):
        # a 4-cycle through the new edge: a - x - y - b - a
        if k and not any(y in nbrs[x] for x in nbrs[a] - {b} for y in nbrs[b] - {a}):
            nbrs[a].add(b)
            nbrs[b].add(a)
    return Graph(n, [(a, b) for a in range(n) for b in nbrs[a] if a < b])


def cells_or_guard(walk, G, H, f, cap):
    """The walk's cells and homomorphisms, or the message of the cap it trips."""
    try:
        P = walk(G, H, f, cap=cap)
    except ExplosionGuard as exc:
        return str(exc)
    return P.cells, P.hom_mappings


def zigzag_components(elements):
    """Union-find closure over strict and non-strict comparability."""
    parent = list(range(len(elements)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(len(elements)), 2):
        if set_leq(elements[i], elements[j]) or set_leq(elements[j], elements[i]):
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

    @pytest.mark.parametrize("x", [True, 1.0])
    def test_image_vertices_are_ints(self, x):
        # True and 1.0 equal the vertex 1 of C5, but are no vertex labels
        with pytest.raises(NotHomomorphism, match=f"image vertex {x!r} out of range"):
            SetValuedHom(K2, C5, ({x}, {0}))

    def test_order_and_norm(self):
        small = SetValuedHom(K2, C5, ({0}, {1}))
        big = SetValuedHom(K2, C5, ({0}, {1, 4}))
        assert set_leq(small, big) and not set_leq(big, small)
        assert set_leq(small, small)
        assert set_norm(small) == 2 and set_norm(big) == 3
        assert small.is_singleton() and not big.is_singleton()
        assert big.to_json() == {"sets": [[0], [1, 4]]}

    def test_graph_hom_round_trip(self):
        f = GraphHom(K2, C5, (3, 2))
        assert SetValuedHom(K2, C5, ({3}, {2})).as_graph_hom() == f
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

    def test_has_hom(self):
        assert has_hom(P4, C3)
        assert not has_hom(C3, P4)
        assert not has_hom(C5, C6)

    def test_cap(self):
        with pytest.raises(ExplosionGuard):
            enumerate_graph_homs(C6, C3, cap=10)


class TestComponents:
    @pytest.mark.parametrize(
        "seed",
        [
            GraphHom(K2, complete_graph(4), (0, 2)),  # (0, 2) is no edge of C5
            GraphHom(K2, C6, (0, 5)),  # 5 is no vertex of C5
            SetValuedHom(K2, C6, [{0}, {1, 5}]),
            SetValuedHom(K2, C5, [{0}, {1, 4}]),  # not a GraphHom
            GraphHom(P3, C5, (0, 1, 0)),  # the domain is not K2
        ],
    )
    def test_seed_must_map_the_domain_to_the_target(self, seed):
        for run in (enumerate_component, component_summary, classify_component):
            with pytest.raises(NotHomomorphism):
                run(K2, C5, seed)

    def test_single_moves_reach_the_zigzag_closure(self):
        # the oracle enumerates everything and never prunes
        for G, H in [(K2, C5), (P3, P4), (C3, C3), (K2, complete_graph(3)), (K2, cycle_graph(4))]:
            elements = all_set_valued(G, H)
            groups = zigzag_components(elements)
            seen = []
            for group in groups:
                f = next(e for e in group if e.is_singleton())
                P = enumerate_component(G, H, f.as_graph_hom())
                assert sorted(cell_keys(P)) == sorted(e.key() for e in group)
                seen.extend(P.cells)
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
        # 10 homomorphisms trip a cap of 5 before any cell grows
        with pytest.raises(ExplosionGuard) as info:
            enumerate_component(K2, C5, GraphHom(K2, C5, (0, 1)), cap=5)
        assert str(info.value) == "component elements: reached 6, over the cap of 5"

    def test_cap_on_cells(self):
        # 10 homomorphisms fit under 15, their 20 cells do not
        with pytest.raises(ExplosionGuard) as info:
            enumerate_component(K2, C5, GraphHom(K2, C5, (0, 1)), cap=15)
        assert str(info.value) == "component elements: reached 16, over the cap of 15"
        assert len(enumerate_component(K2, C5, GraphHom(K2, C5, (0, 1)), cap=20)) == 20

    def test_no_cap(self):
        P = enumerate_component(C6, C3, GraphHom(C6, C3, (0, 1, 0, 1, 0, 1)), cap=math.inf)
        assert len(P) == 228
        # one vertex, no edges: every nonempty subset of the target is a cell
        K1 = Graph(1, [])
        assert len(enumerate_component(K1, C6, GraphHom(K1, C6, (3,)), cap=math.inf)) == 63

    def test_move_halves_are_the_covering_relations(self):
        # each half lists exactly the cells one image vertex away, each once
        def covers(lo, hi):
            return all(a & ~b == 0 for a, b in zip(lo, hi)) and (
                sum(s.bit_count() for s in hi) == sum(s.bit_count() for s in lo) + 1
            )

        for G, H in [(K2, C5), (P3, P4), (K2, complete_graph(3)), (K2, cycle_graph(4))]:
            masks = [tuple(sum(1 << x for x in s) for s in e.sets) for e in all_set_valued(G, H)]
            for cell in masks:
                assert sorted(larger_cells(G, H, cell)) == sorted(c for c in masks if covers(cell, c))
                assert sorted(smaller_cells(cell)) == sorted(c for c in masks if covers(c, cell))

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
        # from the least homomorphism of a larger element of the component
        elements = all_set_valued(G, H)
        assume(elements and len(elements) <= 400)
        group = data.draw(st.sampled_from(zigzag_components(elements)))
        expected = sorted(e.key() for e in group)
        f = data.draw(st.sampled_from([e for e in group if e.is_singleton()]))
        wide = [e for e in group if not e.is_singleton()]
        start = data.draw(st.sampled_from(wide or group))
        least = GraphHom(G, H, (min(s) for s in start.sets))
        for seed in (f.as_graph_hom(), least):
            P = enumerate_component(G, H, seed)
            assert list(P.cells) == sorted(set(P.cells))
            assert sorted(cell_keys(P)) == expected
            homs = [e for e in sorted(group, key=SetValuedHom.key) if e.is_singleton()]
            assert list(P.hom_mappings) == [e.as_graph_hom().mapping for e in homs]

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(6), square_free_graphs(10), st.data())
    def test_least_hom_walk_matches_cell_walk(self, G, H, data):
        # components beyond all_set_valued's reach, against the walk that
        # moves one image vertex at a time; a tripped cap must match too
        assert is_square_free(H)
        homs = list(itertools.islice(_hom_mappings(G, H), 50))
        assume(homs)
        f = GraphHom(G, H, data.draw(st.sampled_from(homs)))
        cap = 3_000
        expected = cells_or_guard(walked_component, G, H, f, cap)
        assert cells_or_guard(enumerate_component, G, H, f, cap) == expected
        if isinstance(expected, str):
            return
        cells, _ = expected
        assert list(cells) == sorted(set(cells))
        top = cell_masks(G, H, max(cells, key=int.bit_count))
        least = GraphHom(G, H, (min(mask_bits(s)) for s in top))
        assert cells_or_guard(enumerate_component, G, H, least, cap) == expected


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
        assert [s.representative for s in summaries] == [
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        for s in summaries:
            assert s.betti == (1, 0, 0)
            assert s.size == 1
            assert not s.k2_factoring

    def test_hexagon_onto_triangle(self):
        summaries = component_census(C6, C3)
        assert len(summaries) == 7
        flat = [s for s in summaries if s.betti == (1, 0, 0)]
        (wound,) = [s for s in summaries if s.betti == (1, 1, 0)]
        assert len(flat) == 6
        assert all(s.size == 1 for s in flat)
        assert wound.size == 228
        assert wound.representative == (0, 1, 0, 1, 0, 1)
        assert wound.k2_factoring

    def test_paths_give_trees(self):
        summaries = component_census(P3, P4)
        assert [s.representative for s in summaries] == [(0, 1, 0), (1, 0, 1)]
        for s in summaries:
            assert s.betti == (1, 0, 0)
            assert s.size == 11
            assert s.k2_factoring

    @pytest.mark.parametrize(
        "change",
        [
            lambda ms: ms + ((3, 3, 3),),
            lambda ms: ms + ((2, 3, 2),),
            lambda ms: ms[1:] + ((3, 3, 3),),
        ],
        ids=["not-a-homomorphism", "claimed-earlier", "start-swapped-count-kept"],
    )
    def test_members_must_be_unclaimed_homomorphisms(self, monkeypatch, change):
        # Hom(P3, P5) has two components, told apart by the parity of the
        # ends, and the reversals of P3 and P5 keep each one, so both are
        # walked. The component of (1, 0, 1) gains (3, 3, 3), no
        # homomorphism P3 -> P5, or (2, 3, 2), which the component of
        # (0, 1, 0) claimed first; or it swaps its own start for (3, 3, 3),
        # which keeps the count of members over all components equal to the
        # count of homomorphisms
        real = hom_poset._walk

        def changed(G, H, f, cap, start):
            homs, *rest = real(G, H, f, cap, start)
            if f.mapping == (1, 0, 1):
                homs = tuple(sorted(change(homs)))
            return (homs, *rest)

        monkeypatch.setattr(hom_poset, "_walk", changed)
        with pytest.raises(InvariantViolation, match="do not partition"):
            component_census(P3, path_graph(5))

    def test_vertexless_domain_is_one_point(self):
        # one empty mapping, also into a vertexless target, whose cell
        # masks are 0 bits wide
        for H in (Graph(0), C5):
            (s,) = component_census(Graph(0), H)
            assert (s.size, s.members, s.cell_betti) == (1, ((),), (1,))

    def test_report_shape(self):
        report = census_report(K2, K2)
        assert sorted(report) == ["components", "graph_meta"]
        assert [c["betti"] for c in report["components"]] == [[1, 0, 0], [1, 0, 0]]
        assert report["graph_meta"]["domain"]["n"] == 2


def census_or_guard(census, G, H, cap):
    """The census, or the message of the cap it trips."""
    try:
        return census(G, H, cap=cap)
    except ExplosionGuard as exc:
        return str(exc)


PETERSEN = petersen_graph()


class TestCensusByOrbits:
    """component_census walks one component per orbit of Aut(G) and relabels
    the rest; walking every component (tests/oracles.py) must give the same
    summaries in the same order, and trip a cap at the same count."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            graphs(0, 7),
            st.integers(0, 7).map(Graph),
            st.integers(1, 7).map(complete_graph),
        ),
        st.one_of(
            st.sampled_from([cycle_graph(4), complete_graph(4), C5, PETERSEN]),
            graphs(1, 6),
        ),
    )
    @example(cycle_graph(7), PETERSEN)
    @example(C3, C3)
    @example(C6, C3)
    @example(Graph(4, [(0, 1), (2, 3)]), C5)
    def test_matches_walking_every_component(self, G, H):
        cap = 2000
        assert census_or_guard(component_census, G, H, cap) == census_or_guard(
            component_census_reference, G, H, cap
        )

    def test_one_walk_per_orbit(self, monkeypatch):
        walks, searches = [], []
        summary, generators = hom_poset.component_summary, hom_poset._automorphism_generators

        def counted_summary(*args, **kwargs):
            walks.append(args[2])
            return summary(*args, **kwargs)

        def counted_generators(G, budget):
            searches.append(G)
            return generators(G, budget)

        monkeypatch.setattr(hom_poset, "component_summary", counted_summary)
        monkeypatch.setattr(hom_poset, "_automorphism_generators", counted_generators)
        # one component: the search is never run
        assert len(full_case_report(P3, PETERSEN)["components"]) == 1
        assert (len(walks), len(searches)) == (1, 0)
        for G, H, components, walked in [
            (cycle_graph(7), PETERSEN, 24, 1),
            (C3, C3, 6, 1),
        ]:
            walks.clear()
            searches.clear()
            assert len(component_census(G, H)) == components
            assert (len(walks), searches) == (walked, [G, H])

    @pytest.mark.parametrize(
        "domain, side, generator",
        [
            (P4, "domain", (2, 1, 0, 3)),
            (P4, "domain", (0, 3, 2, 1)),
            (P3, "domain", (1, 0, 2)),
            (P4, "target", (2, 1, 0, 3)),
            (P4, "target", (0, 3, 2, 1)),
            (P3, "target", (1, 0, 2, 3)),
        ],
    )
    def test_images_must_be_components(self, monkeypatch, domain, side, generator):
        # a permutation that is no automorphism, of the domain or of the
        # target P4, carries a component onto a set that is not one: it
        # meets a claimed component without being equal to it, or holds a
        # map that is no homomorphism
        found = {"domain": [[generator], []], "target": [[], [generator]]}[side]
        monkeypatch.setattr(hom_poset, "_automorphism_generators", lambda G, budget: found.pop(0))
        with pytest.raises(InvariantViolation, match="do not partition"):
            component_census(domain, P4)
        assert not found
