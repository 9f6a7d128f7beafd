"""The identity component of the fiber over a fixed homomorphism.

Membership, the interaction digraph, the deformation to the identity, the
local covering property, the filtration operators, and the deck group. The
bounded fiber walk is held against an independent structural search
(all candidate elements, filtered by the closed-form membership test) and
against a closure through every element that validates each one it reaches,
and tight vertices against an exhaustive search over closed walks. The
explicit down lift and the deck action on elements, which only these tests
use, are defined here, and the filtration operators in tests/oracles.py.
"""

import hashlib
import itertools
import json
from collections import Counter

import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from homcx import (
    EfElement,
    ExplosionGuard,
    Graph,
    GraphHom,
    GraphInputError,
    InvariantViolation,
    NotConnected,
    NotInDomain,
    NotInFiber,
    NotNeighbor,
    NotSquareFree,
    ReducedWalk,
    SetValuedHom,
    Walk,
    aux_digraph,
    check_poset_covering_local,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_Ef_bounded,
    enumerate_graph_homs,
    fiber_component_bounded,
    gamma_elements_bounded,
    gamma_identity,
    gamma_inverse,
    gamma_product,
    hom_cover,
    is_f_tight,
    is_connected,
    is_in_Ef,
    is_square_free,
    path_graph,
    petersen_graph,
    reduce_to_identity,
    tight_vertices,
    trivial_walk,
)

from homcx.graphs import mask_bits
from homcx.hom_cover import _projection, _targets_below, _upsets_in_base
from homcx.walks import walk_product
from oracles import (
    contains_directed_walk,
    covering_report_reference,
    edge_walk,
    fiber_candidates_bounded,
    fiber_component_reference,
    identity_element,
    in_stage,
    retraction_D,
    retraction_U,
    set_leq,
    simple_path_ordering,
    target_hom,
)
from test_hom_poset import graphs, square_free_graphs

K2 = Graph(2, [(0, 1)])
C3 = cycle_graph(3)
C5 = cycle_graph(5)
C6 = cycle_graph(6)

EDGE_IN_C5 = GraphHom(K2, C5, (0, 1))
WIND = GraphHom(C6, C3, (0, 1, 2, 0, 1, 2))
FLAT = GraphHom(C6, C3, (0, 1, 0, 1, 0, 1))


def down_lift(phi, psi):
    """The element below phi projecting onto psi, built by the explicit formula.

    Each walk of phi at a neighbor v is rerouted through u and retargeted at
    the requested endpoints: (f(u), f(v)) * eta * (t(eta), x) for x in psi(u).
    """
    f = phi.base_hom
    G, H = f.domain, f.codomain
    if psi.domain != G or psi.codomain != H:
        raise NotInFiber("target lives over the wrong graphs")
    if not set_leq(psi, target_hom(phi)):
        raise NotInFiber("psi must sit below the projection of phi")
    sets = phi.sets
    new_sets = []
    for u in G.vertices():
        v = G.neighbors(u)[0]
        eta = min(sets[v], key=lambda w: w.vertices)
        first_leg = walk_product(edge_walk(H, f(u), f(v)), eta)
        walks = {
            walk_product(first_leg, edge_walk(H, eta.target, x)) for x in psi.sets[u]
        }
        if not walks <= sets[u]:
            raise InvariantViolation("down lift left the original element")
        new_sets.append(walks)
    out = EfElement(f, new_sets)
    if target_hom(out) != psi:
        raise InvariantViolation("down lift misses the requested projection")
    return out


def gamma_act(h, phi):
    """The deck transformation h applied to a fiber element.

    Prepends h's walk pointwise: (h.phi)(u) = {h(u) * xi}. Endpoints are
    untouched, so the projection to the base poset commutes with the action.
    """
    if h.base_hom != phi.base_hom:
        raise NotInFiber("action and element sit over different homomorphisms")
    pairs = zip(h.walks, phi.sets)
    return EfElement(phi.base_hom, ({walk_product(w, xi) for xi in s} for w, s in pairs))


@st.composite
def connected_graphs(draw, min_n, max_n):
    """A random spanning tree on n vertices plus any further edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for e in itertools.combinations(range(n), 2):
        if e not in edges and draw(st.booleans()):
            edges.add(e)
    return Graph(n, edges)


def brute_tight(f):
    """Vertices on a closed walk with cyclically reduced image, by exhaustive
    search over walks.

    Walks from u grow one step at a time, and only those whose image stays
    reduced are kept. Two such walks with the same first step and the same
    last two vertices extend and close up alike, so only the first one found
    is grown further; each closed walk met is judged by is_f_tight.
    """
    G = f.domain
    out = set()
    for u in G.vertices():
        frontier = [(u, v) for v in G.neighbors(u)]
        seen = {(w[1], w[-2], w[-1]) for w in frontier}
        while frontier and u not in out:
            grown = []
            for w in frontier:
                for y in G.neighbors(w[-1]):
                    if f(y) == f(w[-2]):
                        continue
                    seq = w + (y,)
                    if y == u and is_f_tight(f, Walk(G, seq)):
                        out.add(u)
                    if (seq[1], seq[-2], y) not in seen:
                        seen.add((seq[1], seq[-2], y))
                        grown.append(seq)
            frontier = grown
    return frozenset(out)


@st.composite
def maps_into_square_free(draw):
    """A random homomorphism f: G -> H. H is C3, C5, petersen or a random
    square-free graph; G has up to 6 vertices, each placed at a random vertex
    of H, and any edges f sends to edges, so G may be disconnected."""
    H = draw(
        st.one_of(
            st.sampled_from([C3, C5, petersen_graph()]),
            graphs(2, 7).filter(is_square_free),
        )
    )
    n = draw(st.integers(1, 6))
    m = [draw(st.integers(0, H.n - 1)) for _ in range(n)]
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if H.has_edge(m[u], m[v])]
    G = Graph(n, [e for e in pairs if draw(st.booleans())])
    return GraphHom(G, H, m)


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

    @settings(max_examples=200, deadline=None)
    @given(maps_into_square_free())
    def test_random_maps_match_brute_force(self, f):
        assert tight_vertices(f) == brute_tight(f)

    def test_frozen(self):
        assert tight_vertices(WIND) == frozenset(range(6))
        assert tight_vertices(FLAT) == frozenset()
        assert tight_vertices(EDGE_IN_C5) == frozenset()
        assert tight_vertices(GraphHom(C3, C3, (0, 1, 2))) == frozenset({0, 1, 2})
        spiked = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert tight_vertices(GraphHom(spiked, C3, (0, 1, 2, 0))) == frozenset({0, 1, 2})

    def test_deep_domains(self):
        # both passes keep explicit stacks, so a long domain cannot run
        # into Python's recursion limit
        P800 = path_graph(800)
        assert tight_vertices(GraphHom(P800, K2, (u % 2 for u in range(800)))) == frozenset()
        C300 = cycle_graph(300)
        wrap = GraphHom(C300, C3, (u % 3 for u in range(300)))
        assert tight_vertices(wrap) == frozenset(range(300))

    def test_computed_once_per_enumeration(self, monkeypatch):
        calls = []
        real = hom_cover.tight_vertices
        monkeypatch.setattr(hom_cover, "tight_vertices", lambda f: calls.append(f) or real(f))
        elements = enumerate_Ef_bounded(EDGE_IN_C5, 6)
        assert len(elements) == 13
        assert calls == [EDGE_IN_C5]


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

    @pytest.mark.parametrize(
        "a, b",
        [
            ((0, 4), (1, 2)),  # equal lengths, neither walk shifted
            ((0,), (1, 2, 3)),  # b is two longer, but a is not its middle
            ((0,), (1, 2, 3, 4, 0)),  # lengths differ by four
        ],
    )
    def test_non_adjacent_walks_are_rejected(self, a, b):
        sets = (frozenset({ReducedWalk(C5, a)}), frozenset({ReducedWalk(C5, b)}))
        with pytest.raises(NotNeighbor):
            EfElement(EDGE_IN_C5, sets)

    def test_identity_element(self):
        e = identity_element(EDGE_IN_C5)
        assert e.norm() == 0
        assert e.is_singleton()
        assert target_hom(e).key() == ((0,), (1,))
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
        assert target_hom(phi).key() == ((0, 2), (1,))
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

    @pytest.mark.parametrize("max_norm", range(8))
    @pytest.mark.parametrize("H", [C5, petersen_graph()], ids=["C5", "petersen"])
    def test_every_bound_matches_the_element_walk_on_a_path(self, H, max_norm):
        # under an odd bound the slack left after one vertex grows is odd,
        # and only an exact norm prune keeps the next vertex within it
        f = GraphHom(path_graph(3), H, (0, 1, 2))
        assert fiber_component_bounded(f, max_norm) == fiber_component_reference(f, max_norm)

    @settings(max_examples=100, deadline=None)
    @given(
        connected_graphs(2, 4),
        st.one_of(
            st.sampled_from(
                [C5, petersen_graph(), complete_graph(4), cycle_graph(4), complete_bipartite(2, 3)]
            ),
            connected_graphs(3, 5),
        ),
        st.integers(0, 6),
        st.one_of(st.integers(1, 30), st.just(1000)),
        st.data(),
    )
    def test_tuple_walk_matches_the_element_walk(self, G, H, max_norm, cap, data):
        # targets with four-cycles included; caps small enough that some
        # fibers trip them, and then both walks must fail alike
        homs = enumerate_graph_homs(G, H)
        assume(homs)
        f = data.draw(st.sampled_from(homs))

        def outcome(walk):
            # the reference builds every element through EfElement.__init__,
            # so the norms the walk carries are held to ones read off the key
            try:
                elements = walk(f, max_norm, cap=cap)
            except ExplosionGuard as exc:
                return str(exc)
            return (
                elements,
                [e.norm() for e in elements],
                [e.is_singleton() for e in elements],
            )

        assert outcome(fiber_component_bounded) == outcome(fiber_component_reference)

    def test_both_walks_trip_the_cap_alike(self):
        messages = []
        for walk in (fiber_component_bounded, fiber_component_reference):
            with pytest.raises(ExplosionGuard) as info:
                walk(EDGE_IN_C5, 8, cap=5)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "fiber elements" in messages[0]

    @pytest.mark.parametrize(
        "f, max_norm",
        [
            (EDGE_IN_C5, 8),
            (GraphHom(path_graph(3), C5, (0, 1, 2)), 6),
            (GraphHom(K2, petersen_graph(), (0, 1)), 6),
            (GraphHom(path_graph(3), cycle_graph(4), (0, 1, 2)), 6),
        ],
    )
    def test_cap_trips_exactly_past_the_element_count(self, f, max_norm):
        # singletons and then elements count against the cap, which must
        # trip exactly where the element walk's does
        count = len(fiber_component_reference(f, max_norm))
        assert len(fiber_component_bounded(f, max_norm, cap=count)) == count
        messages = []
        for walk in (fiber_component_bounded, fiber_component_reference):
            with pytest.raises(ExplosionGuard) as info:
                walk(f, max_norm, cap=count - 1)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == f"fiber elements: reached {count}, over the cap of {count - 1}"

    @pytest.mark.parametrize("max_norm", [-1, float("nan")])
    @pytest.mark.parametrize(
        "call",
        [
            fiber_component_bounded,
            enumerate_Ef_bounded,
            lambda f, max_norm: gamma_elements_bounded(f, 0, max_norm),
            check_poset_covering_local,
        ],
        ids=["fiber", "enumerate", "gamma", "covering"],
    )
    def test_a_bound_below_zero_or_nan_is_rejected(self, call, max_norm):
        # NaN passes `max_norm < 0`, and walked as if the bound were 0
        with pytest.raises(ValueError, match="max_norm must be a nonnegative integer"):
            call(EDGE_IN_C5, max_norm)

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
        assert not contains_directed_walk(D, (0, 7))


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
        assert [v["target"]["sets"] for v in report["violations"]] == [
            [[0], [1, 3], [0, 2]],
            [[0], [1, 3], [2]],
            [[0, 2], [1, 3], [0, 2]],
            [[0, 2], [1, 3], [2]],
        ]
        # the whole report as the CLI's writer would emit it, pinned byte for byte
        data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
        assert hashlib.sha256(data).hexdigest() == (
            "d22210724f55c1031edb4e05d579d53816995fd65ca9293b027bf621c7224ebe"
        )

    @pytest.mark.parametrize(
        "f, max_norm",
        [
            (EDGE_IN_C5, 6),
            (GraphHom(K2, petersen_graph(), (0, 1)), 6),
            (GraphHom(path_graph(3), cycle_graph(4), (0, 1, 2)), 6),
        ],
    )
    def test_lift_targets_are_set_valued_homs(self, f, max_norm):
        # the covering check groups the walked elements by bitmask tuples
        # and builds no target; each projection, read off the key, must be
        # the validated target_hom, each target a set-valued homomorphism on
        # the right side of it, and the upsets must come in key order
        G, H = f.domain, f.codomain
        for phi in fiber_component_bounded(f, max_norm):
            base = _projection(phi)
            tphi = SetValuedHom(G, H, map(mask_bits, base))
            assert tphi == target_hom(phi)
            for cell in _targets_below(base):
                assert set_leq(SetValuedHom(G, H, map(mask_bits, cell)), tphi)
            upsets = [
                SetValuedHom(G, H, map(mask_bits, c)) for c in _upsets_in_base(G, H, base, 10_000)
            ]
            assert all(set_leq(tphi, psi) for psi in upsets)
            assert upsets == sorted(upsets, key=SetValuedHom.key)

    @pytest.mark.parametrize(
        "f, max_norm",
        [
            (GraphHom(K2, C3, (0, 1)), 8),
            (GraphHom(K2, C5, (0, 1)), 12),
            (GraphHom(K2, petersen_graph(), (0, 1)), 8),
            (GraphHom(path_graph(3), cycle_graph(4), (0, 1, 2)), 8),
        ],
    )
    def test_lifts_are_counted_among_the_walked_elements(self, f, max_norm):
        # at these norms some projections have several fiber elements, so a
        # count that skips the order test, on either side, changes the report
        G, H = f.domain, f.codomain
        elements = fiber_component_bounded(f, max_norm)
        assert max(Counter(map(_projection, elements)).values()) >= 2
        assert check_poset_covering_local(f, max_norm) == covering_report_reference(f, max_norm)
        # and the one element below phi over each target is down_lift's
        for phi in elements:
            if phi.norm() > max_norm - 2:
                continue
            below = [e for e in elements if e.leq(phi)]
            for cell in _targets_below(_projection(phi)):
                psi = SetValuedHom(G, H, map(mask_bits, cell))
                assert [e for e in below if _projection(e) == cell] == [down_lift(phi, psi)]

    def test_down_lift_formula(self):
        for phi in enumerate_Ef_bounded(EDGE_IN_C5, 6):
            tphi = target_hom(phi)
            pools = [
                [frozenset(c) for r in range(1, len(s) + 1) for c in itertools.combinations(sorted(s), r)]
                for s in tphi.sets
            ]
            for pick in itertools.product(*pools):
                psi = SetValuedHom(K2, C5, pick)
                lifted = down_lift(phi, psi)
                assert lifted.leq(phi)
                assert target_hom(lifted) == psi

    def test_down_lift_rejects_non_comparable_targets(self):
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

    def test_deck_transformations_are_fiber_elements(self):
        gs = gamma_elements_bounded(EDGE_IN_C5, 0, 40)
        assert all(isinstance(g, EfElement) for g in gs)
        fiber = enumerate_Ef_bounded(EDGE_IN_C5, 40)
        assert all(g in fiber for g in gs)
        assert gs[0] == identity_element(EDGE_IN_C5)

    def test_base_vertex_outside_the_domain_rejected(self):
        fiber = enumerate_Ef_bounded(EDGE_IN_C5, 6)
        for u in (5, 2, -1):
            with pytest.raises(GraphInputError):
                gamma_elements_bounded(EDGE_IN_C5, u, 6)
            with pytest.raises(GraphInputError):
                hom_cover.deck_transformations(EDGE_IN_C5, u, fiber)

    def test_deck_checks_inverses_and_base_walks(self):
        deck_transformations = hom_cover.deck_transformations
        fiber = enumerate_Ef_bounded(EDGE_IN_C5, 20)
        gs = gamma_elements_bounded(EDGE_IN_C5, 0, 20)
        assert deck_transformations(EDGE_IN_C5, 1, fiber) == gs
        without = [e for e in fiber if e != gs[2]]
        with pytest.raises(InvariantViolation, match="inverse left the bounded set"):
            deck_transformations(EDGE_IN_C5, 0, without)
        with pytest.raises(InvariantViolation, match="share a base walk"):
            deck_transformations(EDGE_IN_C5, 0, fiber + [gs[1]])

    def test_deck_transformations_skip_the_cross_pair_checks(self, monkeypatch):
        # read off fiber elements already checked, they test no walk pair;
        # the public constructor runs the three deck checks: singleton,
        # returns to f, and membership
        fiber = enumerate_Ef_bounded(EDGE_IN_C5, 20)
        calls = []
        real = hom_cover.walks_adjacent
        monkeypatch.setattr(
            hom_cover, "walks_adjacent", lambda *args: calls.append(args) or real(*args)
        )
        gs = hom_cover.deck_transformations(EDGE_IN_C5, 0, fiber)
        assert len(gs) == 3 and calls == []
        GammaElement = hom_cover.GammaElement
        with pytest.raises(NotInDomain, match="singleton"):
            GammaElement(EDGE_IN_C5, next(e for e in fiber if not e.is_singleton()).sets)
        with pytest.raises(NotInDomain, match="return to f"):
            GammaElement(
                EDGE_IN_C5, next(e for e in fiber if e.is_singleton() and e.norm() == 2).sets
            )
        # five steps around C5: a singleton that returns to f, but odd
        loop = EfElement(
            EDGE_IN_C5,
            ({ReducedWalk(C5, (0, 1, 2, 3, 4, 0))}, {ReducedWalk(C5, (1, 2, 3, 4, 0, 1))}),
        )
        with pytest.raises(NotInDomain, match="outside the identity component"):
            GammaElement(EDGE_IN_C5, loop.sets)

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
                assert target_hom(moved) == target_hom(phi)
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

    @settings(max_examples=60, deadline=None)
    @given(
        connected_graphs(2, 4),
        st.one_of(
            st.sampled_from([C3, C5, petersen_graph()]),
            square_free_graphs(7).filter(is_connected),
        ),
        st.integers(0, 8),
        st.integers(0, 1000),
    )
    @example(K2, C5, 20, 0)
    @example(K2, C3, 12, 0)
    @example(path_graph(3), C5, 20, 0)
    @example(  # a fiber of more than 200,000 elements
        complete_bipartite(1, 3),
        Graph(7, [(0, 3), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6)]),
        8,
        0,
    )
    def test_elements_rebuilt_from_their_walk_sets(self, G, H, max_norm, pick):
        # an element holds only its key; the walk sets it builds on demand
        # must give back an equal element with the same hash, and the deck
        # transformations read off them must be exactly the elements the
        # checking constructor accepts
        homs = enumerate_graph_homs(G, H)
        assume(homs)
        f = homs[pick % len(homs)]
        try:
            elements = fiber_component_bounded(f, max_norm, cap=20_000)
        except ExplosionGuard:
            reject()
        GammaElement = hom_cover.GammaElement

        def outcome(g):
            return g, hash(g), g.walks, repr(g)

        accepted = {}
        for e in elements:
            again = EfElement(e.base_hom, e.sets)
            assert again == e and hash(again) == hash(e)
            try:
                g = GammaElement(e.base_hom, e.sets)
            except NotInDomain:
                continue
            accepted[g.key()] = outcome(g)
        deck = hom_cover.deck_transformations(f, 0, elements)
        assert deck[0] == gamma_identity(f)
        assert {g.key(): outcome(g) for g in deck} == accepted

    def test_mismatched_base_rejected(self):
        g = gamma_identity(EDGE_IN_C5)
        other = identity_element(GraphHom(K2, C5, (1, 2)))
        with pytest.raises(NotInFiber):
            gamma_act(g, other)
