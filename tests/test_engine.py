"""The shared search engine: backtrack and closure, and the callers built on it.

Each caller is compared with a brute-force oracle that shares no code with
the engine, and a tripped cap must say which stage tripped, how far the
count got, and what the cap was.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from homcx import (
    ExplosionGuard,
    Graph,
    GraphHom,
    SetValuedHom,
    complete_graph,
    cycle_graph,
    enumerate_component,
    enumerate_graph_homs,
    path_graph,
)
from homcx.graphs import bfs_order, closure, mask_bits
from homcx.hom_cover import _upsets_in_base, fiber_component_bounded
from homcx.hom_poset import _hom_mappings, component_census
from homcx.homology import complex_from_chains
from homcx.pi_graph import materialize_pi
from homcx.walks import all_reduced_walks

from oracles import backtrack, cell_keys, hom_mappings_reference, set_leq
from test_hom_poset import all_set_valued, brute_homs, graphs


def yielded(mappings):
    """What a capped generator yields before it stops, and the message of
    the cap it trips, or None."""
    out = []
    try:
        out.extend(mappings)
    except ExplosionGuard as exc:
        return out, str(exc)
    return out, None


class TestEngine:
    def test_bfs_order_covers_every_component(self):
        G = Graph(6, [(0, 3), (3, 1), (0, 2), (4, 5)])
        assert bfs_order(G) == [0, 2, 3, 1, 4, 5]

    def test_backtrack_first_found_order(self):
        found = backtrack("ab", lambda u, partial: [2, 1] if u == "a" else [partial["a"], 0])
        assert [dict(a) for a in found] == [
            {"a": 2, "b": 2}, {"a": 2, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 0}
        ]

    def test_backtrack_empty_order_has_one_assignment(self):
        assert list(backtrack([], None)) == [{}]
        assert enumerate_graph_homs(Graph(0), cycle_graph(3)) == [
            GraphHom(Graph(0), cycle_graph(3), ())
        ]

    def test_closure(self):
        assert closure(0, lambda x: [(x + 3) % 10]) == set(range(10))


class TestCallers:
    @settings(max_examples=60, deadline=None)
    @given(graphs(0, 5), graphs(1, 5))
    def test_graph_homs_match_brute_force(self, G, H):
        assert enumerate_graph_homs(G, H) == sorted(
            brute_homs(G, H), key=lambda f: f.mapping
        )

    @settings(max_examples=100, deadline=None)
    @given(graphs(0, 6), graphs(1, 6), st.integers(0, 40))
    def test_hom_mappings_match_backtracking(self, G, H, cap):
        # the same sequence, uncapped, under a drawn cap, and under a cap
        # one below the count, which must trip after every other mapping; a
        # cap below 1 is bad input
        every = list(hom_mappings_reference(G, H, math.inf))
        assert list(_hom_mappings(G, H, math.inf)) == every
        for c in (cap, len(every) - 1):
            if c < 1:
                with pytest.raises(ValueError):
                    next(_hom_mappings(G, H, c))
                continue
            expected = yielded(hom_mappings_reference(G, H, c))
            assert yielded(_hom_mappings(G, H, c)) == expected
        assert len(every) < 2 or yielded(_hom_mappings(G, H, len(every) - 1))[1] is not None

    def test_upsets_in_base_match_brute_force(self):
        for G, H, f in [
            (complete_graph(2), cycle_graph(5), (0, 1)),
            (path_graph(3), path_graph(4), (0, 1, 0)),
            (path_graph(3), cycle_graph(5), (0, 1, 2)),
            (complete_graph(2), cycle_graph(4), (0, 1)),
        ]:
            everything = all_set_valued(G, H)
            for key in cell_keys(enumerate_component(G, H, GraphHom(G, H, f))):
                e = SetValuedHom(G, H, key)
                expected = sorted(
                    (x for x in everything if set_leq(e, x)), key=lambda x: x.key()
                )
                masks = tuple(sum(1 << x for x in s) for s in key)
                upsets = _upsets_in_base(G, H, masks, 10_000)
                assert [SetValuedHom(G, H, map(mask_bits, c)) for c in upsets] == expected


class TestGuardMessages:
    def test_backtrack_names_stage_count_and_cap(self):
        with pytest.raises(ExplosionGuard) as info:
            enumerate_graph_homs(cycle_graph(6), cycle_graph(3), cap=10)
        assert str(info.value) == "graph homomorphisms: reached 11, over the cap of 10"

    def test_closure_names_stage_count_and_cap(self):
        f = GraphHom(complete_graph(2), cycle_graph(5), (0, 1))
        with pytest.raises(ExplosionGuard) as info:
            enumerate_component(complete_graph(2), cycle_graph(5), f, cap=5)
        assert str(info.value) == "component elements: reached 6, over the cap of 5"

    def test_upsets_name_stage_count_and_cap(self):
        K2, C5 = complete_graph(2), cycle_graph(5)
        assert len(_upsets_in_base(K2, C5, (0b1, 0b10), 3)) == 3
        with pytest.raises(ExplosionGuard) as info:
            _upsets_in_base(K2, C5, (0b1, 0b10), 2)
        assert str(info.value) == "elements above the base: reached 3, over the cap of 2"


class TestCapInput:
    @pytest.mark.parametrize("cap", [0, -1, True, False, None, float("nan")])
    def test_a_cap_below_one_is_bad_input(self, cap):
        # every enumeration rejects it before it counts anything, so it is
        # not mistaken for a tripped guard; no count exceeds a NaN cap, so it
        # would turn every guard off
        K2, C5 = complete_graph(2), cycle_graph(5)
        f = GraphHom(K2, C5, (0, 1))
        calls = [
            lambda: component_census(C5, C5, cap=cap),
            lambda: next(_hom_mappings(C5, C5, cap)),
            lambda: enumerate_component(K2, C5, f, cap=cap),
            lambda: closure(0, lambda x: [], cap),
            lambda: fiber_component_bounded(f, 4, cap=cap),
            lambda: all_reduced_walks(C5, 2, cap),
            lambda: materialize_pi(C5, 2, cap),
            lambda: complex_from_chains(2, [[1], []], cap=cap),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="positive integer or math.inf"):
                call()

    def test_no_cap_builds_the_order_complex(self):
        assert complex_from_chains(3, [[1, 2], [2], []], cap=math.inf).counts() == (3, 3, 1)

    def test_a_cap_of_one_counts(self):
        (s,) = component_census(Graph(0), cycle_graph(5), cap=1)
        assert s.members == ((),)
        assert closure(0, lambda x: [], 1) == {0}
        with pytest.raises(ExplosionGuard, match="reached 2, over the cap of 1"):
            component_census(complete_graph(2), complete_graph(2), cap=1)
