"""Walks and homotopies the package builds without re-validating them.

Each path that skips the checks of the public constructors is held against
them: every walk it returns must equal, and hash like, its own vertex tuple
passed back through `Walk` or `ReducedWalk`, and every homotopy the same
walks passed back through `Homotopy`. A counting test pins down that the
reduced-walk window, the tree cover and its lifts, the fiber walk and the
deck transformations read off it run no walk check at all, while the public
constructors still reject bad input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from homcx import (
    EfElement,
    GraphHom,
    Homotopy,
    NotInFiber,
    NotNeighbor,
    ReducedWalk,
    Walk,
    all_reduced_walks,
    complete_graph,
    concat_walks,
    cycle_graph,
    edge_walk,
    enumerate_Ef_bounded,
    fiber_component_bounded,
    gamma_elements_bounded,
    homotopy_from_valid_walk,
    is_topologically_valid,
    lift_walk,
    map_walk,
    materialize_pi,
    path_graph,
    petersen_graph,
    pushed_walk,
    reduce_walk,
    reduced_walks_from,
    transport,
    tree_cover,
    walk_inverse,
    walk_product,
)

from test_hom_cover import connected_graphs
from test_pi_graph import spanning_instances

PET = petersen_graph()


def rechecked(w):
    """Pass w back through its public constructor; it must come back equal,
    with the same hash and type, as a tuple of vertices."""
    again = type(w)(w.graph, w.vertices)
    assert type(w.vertices) is tuple
    assert again == w and hash(again) == hash(w) and type(again) is type(w)
    return w


@st.composite
def walks_in(draw, G, source=None, max_len=6):
    """A walk in G, which may backtrack; from a drawn vertex unless given."""
    w = [draw(st.integers(0, G.n - 1)) if source is None else source]
    for _ in range(draw(st.integers(0, max_len))):
        w.append(draw(st.sampled_from(G.neighbors(w[-1]))))
    return Walk(G, w)


class TestTrustedAgainstChecked:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(2, 6), st.integers(0, 4))
    def test_enumerated_walks(self, G, max_len):
        for w in all_reduced_walks(G, max_len):
            rechecked(w)
        for s in G.vertices():
            for w in reduced_walks_from(G, s, max_len):
                rechecked(w)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(2, 6), st.integers(0, 4), st.data())
    def test_tree_cover_lifts_and_projections(self, G, radius, data):
        cover = tree_cover(G, 0, radius)
        for i, w in enumerate(rechecked(w) for w in cover.walks):
            # away from the rim the star at w projects onto the base star
            if w.length < radius:
                stars = sorted(cover.project(j) for j in cover.graph.neighbors(i))
                assert stars == sorted(G.neighbors(w.target))
        start = data.draw(st.sampled_from(cover.walks))
        xi = data.draw(walks_in(G, start.target, radius - start.length))
        lifted = rechecked(lift_walk(cover, start, xi))
        assert lifted.vertices[0] == cover.vertex_of(start)
        assert rechecked(cover.project_walk(lifted)) == xi

    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(2, 6), st.data())
    def test_groupoid_operations(self, G, data):
        w = data.draw(walks_in(G))
        w2 = data.draw(walks_in(G, w.target))
        r, r2 = rechecked(reduce_walk(w)), rechecked(reduce_walk(w2))
        rechecked(walk_inverse(w))
        rechecked(walk_inverse(r))
        rechecked(concat_walks(w, w2))
        rechecked(walk_product(r, r2))
        # a homomorphism from a path, read off a walk of G of length >= 1
        p = data.draw(walks_in(G, max_len=5).filter(lambda p: p.length >= 1))
        f = GraphHom(path_graph(len(p.vertices)), G, p.vertices)
        q = data.draw(walks_in(f.domain))
        rechecked(map_walk(f, q))
        rechecked(pushed_walk(f, q))

    @settings(max_examples=150, deadline=None)
    @given(spanning_instances())
    def test_spanned_homotopy_and_transport(self, instance):
        xi, f, g, u = instance
        if not is_topologically_valid(xi, f, g, u):
            return
        h = homotopy_from_valid_walk(xi, f, g, u)
        H = f.codomain
        again = Homotopy(f, g, [ReducedWalk(H, rechecked(w).vertices) for w in h.walks])
        assert again == h and hash(again) == hash(h)
        G = f.domain
        for a, b in G.edges:
            assert rechecked(transport(h, edge_walk(G, a, b))) == h.walks[b]
            assert rechecked(transport(h, edge_walk(G, b, a))) == h.walks[a]

    @pytest.mark.parametrize(
        "f, max_norm",
        [
            (GraphHom(complete_graph(2), cycle_graph(5), (0, 1)), 10),
            (GraphHom(path_graph(3), PET, (0, 1, 2)), 6),
            (GraphHom(cycle_graph(6), cycle_graph(3), (0, 1, 2, 0, 1, 2)), 6),
        ],
    )
    def test_walks_read_off_fiber_elements(self, f, max_norm):
        H = f.codomain
        for e in enumerate_Ef_bounded(f, max_norm):
            sets = e.sets
            assert EfElement(f, sets) == e
            for s in sets:
                for w in s:
                    rechecked(w)
            if e.is_singleton():
                h = e.as_homotopy()
                again = Homotopy(f, h.target_hom, [ReducedWalk(H, w.vertices) for w in h.walks])
                assert again == h and hash(again) == hash(h)
        for g in gamma_elements_bounded(f, 0, max_norm):
            for w in g.walks:
                rechecked(w)


def test_window_cover_and_lifts_run_no_walk_check(monkeypatch):
    start = ReducedWalk(PET, (0,))
    xi = Walk(PET, (0, 1, 2, 1, 6, 9))
    calls = []
    real = Walk.__init__
    monkeypatch.setattr(Walk, "__init__", lambda self, *args: calls.append(args) or real(self, *args))
    window = materialize_pi(PET, 5)
    cover = tree_cover(PET, 0, 7)
    lifted = lift_walk(cover, start, xi)
    assert cover.project_walk(lifted) == xi
    f = GraphHom(complete_graph(2), PET, (0, 1))
    fiber = fiber_component_bounded(f, 6)
    deck = gamma_elements_bounded(f, 0, 6)
    sizes = (len(window.walks), len(cover.walks), len(fiber), len(deck))
    assert (sizes, calls) == ((940, 382, 85, 1), [])
    # the public constructors still run every check
    for cls, vertices in [
        (Walk, (0, 10)),
        (Walk, (0, 2)),
        (ReducedWalk, (0, 1, 0)),
    ]:
        with pytest.raises(ValueError):
            cls(PET, vertices)
    assert len(calls) == 3
    with pytest.raises(NotNeighbor):
        Homotopy(f, f, (ReducedWalk(PET, (0,)), ReducedWalk(PET, (1, 2, 3, 4, 0, 1))))
    with pytest.raises(NotInFiber):
        EfElement(f, ({Walk(PET, (0,))}, {ReducedWalk(PET, (1,))}))
