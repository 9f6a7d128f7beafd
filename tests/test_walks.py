"""The reduced-walk groupoid.

Reduction is cross-checked against a naive rewriter that deletes backtrack
patterns in every possible order; agreement on all orders is exactly the
confluence claim the stack pass relies on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from homcx import (
    ExplosionGuard,
    GraphInputError,
    NotClosed,
    ReducedWalk,
    SourceTargetMismatch,
    Walk,
    all_reduced_walks,
    closed_reduced_walks_at,
    concat_walks,
    cycle_graph,
    is_cyclically_reduced,
    is_f_tight,
    map_walk,
    path_graph,
    petersen_graph,
    reduce_walk,
    reduced_walks_from,
    trivial_walk,
    walk_inverse,
    walk_product,
    GraphHom,
)

from oracles import pushed_walk

C5 = cycle_graph(5)
PET = petersen_graph()


def all_normal_forms(vertices):
    """Apply single backtrack deletions in every order; collect the dead ends."""
    out = set()
    stack = [tuple(vertices)]
    seen = set()
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        spots = [i for i in range(len(v) - 2) if v[i] == v[i + 2]]
        if not spots:
            out.add(v)
        for i in spots:
            stack.append(v[:i] + v[i + 2:])
    return out


def random_walk_strategy(G, max_len):
    def build(draw):
        x = draw(st.integers(0, G.n - 1))
        verts = [x]
        for _ in range(draw(st.integers(0, max_len))):
            verts.append(draw(st.sampled_from(G.neighbors(verts[-1]))))
        return Walk(G, verts)
    return st.composite(build)()


class TestReduction:
    def test_stack_pass_matches_every_deletion_order(self):
        # exhaustive over all walks of length <= 6 in C5 starting anywhere
        frontier = [(s,) for s in range(5)]
        for _ in range(6):
            frontier = [w + (y,) for w in frontier for y in C5.neighbors(w[-1])]
            for v in frontier:
                forms = all_normal_forms(v)
                assert len(forms) == 1
                assert reduce_walk(Walk(C5, v)).vertices == forms.pop()

    @given(random_walk_strategy(PET, 8))
    @settings(max_examples=80, deadline=None)
    def test_confluence_on_petersen(self, w):
        forms = all_normal_forms(w.vertices)
        assert forms == {reduce_walk(w).vertices}

    @pytest.mark.parametrize("vertices", [(1.5,), (True, 2), (2, True)])
    def test_constructors_reject_non_vertex_labels(self, vertices):
        # a float or a bool is no vertex label, as Graph rejects them
        for cls in (Walk, ReducedWalk):
            with pytest.raises(ValueError):
                cls(C5, vertices)

    def test_reduced_walk_constructor_rejects_backtracks(self):
        with pytest.raises(ValueError):
            ReducedWalk(C5, (0, 1, 0))
        assert ReducedWalk(C5, (0, 1, 2)).is_reduced()

    def test_endpoints_survive_reduction(self):
        w = Walk(C5, (0, 1, 2, 1, 0, 4))
        r = reduce_walk(w)
        assert (r.source, r.target) == (w.source, w.target)
        assert r.vertices == (0, 4)


class TestGroupoid:
    def test_identity_and_inverse(self):
        xi = ReducedWalk(C5, (0, 1, 2, 3))
        e0, e3 = trivial_walk(C5, 0), trivial_walk(C5, 3)
        assert walk_product(e0, xi) == xi
        assert walk_product(xi, e3) == xi
        assert walk_product(xi, walk_inverse(xi)) == e0
        assert walk_product(walk_inverse(xi), xi) == e3

    def test_mismatched_endpoints_rejected(self):
        with pytest.raises(SourceTargetMismatch):
            concat_walks(ReducedWalk(C5, (0, 1)), ReducedWalk(C5, (2, 3)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, data):
        a = data.draw(random_walk_strategy(PET, 6))
        b_verts = [a.target]
        for _ in range(data.draw(st.integers(0, 6))):
            b_verts.append(data.draw(st.sampled_from(PET.neighbors(b_verts[-1]))))
        b = Walk(PET, b_verts)
        c_verts = [b.target]
        for _ in range(data.draw(st.integers(0, 6))):
            c_verts.append(data.draw(st.sampled_from(PET.neighbors(c_verts[-1]))))
        c = Walk(PET, c_verts)
        ra, rb, rc = reduce_walk(a), reduce_walk(b), reduce_walk(c)
        assert walk_product(walk_product(ra, rb), rc) == walk_product(ra, walk_product(rb, rc))

    def test_inverse_reverses_products(self):
        a = ReducedWalk(C5, (0, 1, 2))
        b = ReducedWalk(C5, (2, 3, 4))
        assert walk_inverse(walk_product(a, b)) == walk_product(walk_inverse(b), walk_inverse(a))


class TestEnumeration:
    def test_counts_match_naive_filter(self):
        # every walk, filtered for the no-backtrack property
        for G, source, L in [(C5, 0, 5), (path_graph(4), 1, 4)]:
            naive = set()
            frontier = [(source,)]
            for _ in range(L + 1):
                naive.update(v for v in frontier if all(v[i] != v[i + 2] for i in range(len(v) - 2)))
                frontier = [w + (y,) for w in frontier for y in G.neighbors(w[-1])]
            got = reduced_walks_from(G, source, L)
            assert {w.vertices for w in got} == naive
            assert [w.vertices for w in got] == sorted(naive, key=lambda v: (len(v), v))

    @pytest.mark.parametrize("k", [5, 10])
    def test_closed_walks_in_a_cycle_come_in_multiples_of_its_length(self, k):
        lengths = [w.length for w in closed_reduced_walks_at(cycle_graph(k), 0, 2 * k)]
        assert lengths == [0, k, k, 2 * k, 2 * k]

    def test_closed_walks_are_capped_by_default(self):
        # 3 * 2**17 - 2 reduced walks from a vertex of the Petersen graph
        message = r"^reduced walks: reached 393214, over the cap of 200000$"
        with pytest.raises(ExplosionGuard, match=message):
            closed_reduced_walks_at(PET, 0, 17)

    @pytest.mark.parametrize("source", [5, 7, 9, -1, True, 1.0])
    def test_source_outside_the_graph_rejected(self, source):
        with pytest.raises(GraphInputError):
            reduced_walks_from(C5, source, 2)
        with pytest.raises(GraphInputError):
            closed_reduced_walks_at(C5, source, 5)

    def test_all_reduced_walks_window_count(self):
        assert len(all_reduced_walks(C5, 1)) == 15  # 5 trivial + 10 oriented edges


class TestMappings:
    def test_pushed_walk_reduces_the_image(self):
        C6, C3 = cycle_graph(6), cycle_graph(3)
        flat = GraphHom(C6, C3, (0, 1, 0, 1, 0, 1))
        w = ReducedWalk(C6, (0, 1, 2, 3))
        assert map_walk(flat, w).vertices == (0, 1, 0, 1)
        assert pushed_walk(flat, w).vertices == (0, 1)

    def test_double_cover_map_is_injective_on_loops(self):
        # pushed through the double cover C10 -> C5, distinct closed reduced
        # walks stay distinct: the induced map on fundamental groups
        C10 = cycle_graph(10)
        f = GraphHom(C10, C5, tuple(z % 5 for z in range(10)))
        loops = closed_reduced_walks_at(C10, 0, 20)
        images = [pushed_walk(f, w) for w in loops]
        assert len(set(images)) == len(loops)
        for im in images:
            assert im.is_closed() and im.is_reduced()
        assert sorted(im.length for im in images) == [0, 10, 10, 20, 20]

    def test_cyclic_reduction_and_tightness(self):
        tri = Walk(cycle_graph(3), (0, 1, 2, 0))
        assert is_cyclically_reduced(tri)
        seam = Walk(C5, (0, 1, 2, 1, 0))
        assert not is_cyclically_reduced(seam)
        with pytest.raises(NotClosed):
            is_cyclically_reduced(Walk(C5, (0, 1)))

        C6, C3 = cycle_graph(6), cycle_graph(3)
        wind = GraphHom(C6, C3, (0, 1, 2, 0, 1, 2))
        flat = GraphHom(C6, C3, (0, 1, 0, 1, 0, 1))
        hexagon = Walk(C6, (0, 1, 2, 3, 4, 5, 0))
        assert is_f_tight(wind, hexagon)
        assert not is_f_tight(flat, hexagon)
