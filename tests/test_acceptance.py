"""Acceptance battery: one test per advertised guarantee, timed.

Each test prints a single PASS line with its elapsed time once its
assertions hold; run with -s (or read the captured output) for the
summary. Expected values are integers throughout, asserted exactly.

The small-graph gate is checked against two readings of its corpus: every
graph on at most five vertices, and the 112 connected graphs on six. Both
must agree with the brute-force four-cycle search.
"""

import itertools
import json
import time
from contextlib import contextmanager

import networkx as nx

from homcx import (
    Graph,
    GraphHom,
    check_poset_covering_local,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_Ef_bounded,
    expected_rank,
    full_case_report,
    gamma_elements_bounded,
    gamma_identity,
    gamma_inverse,
    gamma_product,
    is_in_Ef,
    is_square_free,
    lift_walk,
    materialize_pi,
    path_graph,
    petersen_graph,
    reduce_to_identity,
    times_k2,
    tree_cover,
    Walk,
)
from homcx.cli import main as cli_main

from oracles import (
    fiber_candidates_bounded,
    find_isomorphism,
    identity_element,
    in_stage,
    induced_cover_map,
    psi_apply,
    retraction_D,
    retraction_U,
    simple_path_ordering,
)

K2 = Graph(2, [(0, 1)])
C3 = cycle_graph(3)
C5 = cycle_graph(5)
C6 = cycle_graph(6)


@contextmanager
def budget(name, seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{name} took {elapsed:.2f}s, budget {seconds}s"
    print(f"{name}: PASS ({elapsed:.2f}s)")


def brute_square(G):
    for a, b, c, d in itertools.permutations(G.vertices(), 4):
        if G.has_edge(a, b) and G.has_edge(b, c) and G.has_edge(c, d) and G.has_edge(d, a):
            return True
    return False


def from_nx(g):
    nodes = sorted(g.nodes())
    relabel = {v: i for i, v in enumerate(nodes)}
    return Graph(len(nodes), [(relabel[u], relabel[v]) for u, v in g.edges()])


def test_criterion_01_square_free_gate():
    with budget("criterion 01 (square-free gate)", 1.0):
        assert not is_square_free(cycle_graph(4))
        assert not is_square_free(complete_graph(4))
        assert not is_square_free(complete_bipartite(2, 2))
        assert is_square_free(C5)
        assert is_square_free(C6)
        assert is_square_free(path_graph(5))
        assert is_square_free(petersen_graph())
        atlas = nx.graph_atlas_g()
        small = [from_nx(g) for g in atlas if g.number_of_nodes() <= 5]
        six = [
            from_nx(g)
            for g in atlas
            if g.number_of_nodes() == 6 and nx.is_connected(g)
        ]
        assert len(six) == 112
        for G in small + six:
            assert is_square_free(G) == (not brute_square(G))


def verify_iso_witness(A, B, mapping):
    """mapping: dict or tuple V(A) -> V(B); checked as a genuine isomorphism."""
    if not isinstance(mapping, dict):
        mapping = dict(enumerate(mapping))
    assert sorted(mapping) == list(A.vertices())
    assert sorted(mapping.values()) == list(B.vertices())
    assert A.edge_count == B.edge_count
    for u, v in A.edges:
        assert B.has_edge(mapping[u], mapping[v])


def test_criterion_02_tensor_double_structure():
    with budget("criterion 02 (tensor double)", 1.0):
        five = times_k2(C5)
        assert len(five.components) == 1 and five.double_cover
        witness = find_isomorphism(five.graph, cycle_graph(10))
        assert witness is not None
        verify_iso_witness(five.graph, cycle_graph(10), witness)
        six = times_k2(C6)
        assert len(six.components) == 2
        for comp, iso in zip(six.components, six.isomorphisms):
            assert len(comp) == 6 and iso is not None
            from homcx import induced_component

            piece = induced_component(six.graph, comp)
            relabel = {i: iso[v] for i, v in enumerate(comp)}
            verify_iso_witness(piece, C6, relabel)


def test_criterion_03_edge_into_five_cycle():
    with budget("criterion 03 (Hom(K2, C5))", 5.0):
        report = full_case_report(K2, C5)
        (c,) = report["components"]
        assert c["betti"] == [1, 1, 0]
        assert c["case"] == "HxK2Component"
        assert c["expected_rank"] == 2 * 5 - 2 * 5 + 1 == 1
        assert expected_rank(C5) == 1


def test_criterion_04_triangle_self_maps():
    with budget("criterion 04 (Hom(C3, C3))", 5.0):
        report = full_case_report(C3, C3)
        assert len(report["components"]) == 6
        for c in report["components"]:
            assert c["betti"] == [1, 0, 0]
            assert c["size"] == 1
            assert c["case"] == "Point"


def test_criterion_05_edge_into_edge():
    with budget("criterion 05 (Hom(K2, K2))", 1.0):
        report = full_case_report(K2, K2)
        assert len(report["components"]) == 2
        for c in report["components"]:
            assert c["betti"] == [1, 0, 0]
            assert c["case"] == "HxK2Component"
        assert report["edge_factoring_components"] == 2


def test_criterion_06_hexagon_onto_triangle():
    with budget("criterion 06 (Hom(C6, C3))", 30.0):
        report = full_case_report(C6, C3)
        factoring = [c for c in report["components"] if c["case"] == "HxK2Component"]
        assert len(factoring) == 1
        assert factoring[0]["betti"][1] == 1 == expected_rank(C3)
        for c in report["components"]:
            assert c["betti"][1] in (0, 1)
            assert c["betti"][2] == 0


def test_criterion_07_tree_targets_collapse():
    with budget("criterion 07 (tree targets)", 10.0):
        assert expected_rank(path_graph(4)) == 0
        for G in [path_graph(3), C6]:
            report = full_case_report(G, path_graph(4))
            for c in report["components"]:
                assert c["betti"] == [1, 0, 0]


def test_criterion_08_fiber_oracle_equivalence():
    with budget("criterion 08 (fiber enumeration, two routes)", 30.0):
        f = GraphHom(K2, C5, (0, 1))
        for bound in (4, 6, 8):
            bfs = enumerate_Ef_bounded(f, bound)
            structural = [
                e for e in fiber_candidates_bounded(f, bound) if is_in_Ef(e)
            ]
            assert bfs == structural


def test_criterion_09_poset_covering():
    with budget("criterion 09 (local covering checks)", 30.0):
        clean = check_poset_covering_local(GraphHom(K2, C5, (0, 1)), 6)
        assert clean["violations"] == []
        control = check_poset_covering_local(
            GraphHom(path_graph(3), cycle_graph(4), (0, 1, 2)), 6
        )
        assert len(control["violations"]) >= 1
        assert any(
            v["target"]["sets"][1] == [1, 3] for v in control["violations"]
        )


def test_criterion_10_sink_reduction():
    with budget("criterion 10 (deformation to the identity)", 10.0):
        f = GraphHom(K2, C5, (0, 1))
        e0 = identity_element(f)
        for h in enumerate_Ef_bounded(f, 8):
            if not h.is_singleton():
                continue
            chain = reduce_to_identity(h)
            assert len(chain) - 1 == h.norm() // 2
            assert chain[-1] == e0
            assert all(is_in_Ef(x) for x in chain)


def test_criterion_11_closure_interior_laws():
    with budget("criterion 11 (U/D operator laws)", 10.0):
        f = GraphHom(K2, C5, (0, 1))
        paths = simple_path_ordering(K2)
        elements = enumerate_Ef_bounded(f, 4)
        for i in range(1, len(paths) + 1):
            stage = [e for e in elements if in_stage(e, 1, i, paths)]
            U = {e: retraction_U(e, 1, i, paths) for e in stage}
            for e in stage:
                assert e.leq(U[e])  # extensive
                assert retraction_U(U[e], 1, i, paths) == U[e]  # idempotent
            image_D = set()
            for e in stage:
                d = retraction_D(U[e], 1, i, paths)
                assert d.leq(U[e])  # contractive
                assert retraction_D(d, 1, i, paths) == d  # idempotent
                image_D.add(d)
            previous = {e for e in elements if in_stage(e, 1, i - 1, paths)}
            assert image_D == previous  # image(D o U) is the earlier stage
            for a, b in itertools.permutations(stage, 2):
                if a.leq(b):
                    assert U[a].leq(U[b])  # monotone
                    da = retraction_D(U[a], 1, i, paths)
                    db = retraction_D(U[b], 1, i, paths)
                    assert da.leq(db)


def test_criterion_12_deck_group_is_infinite_cyclic():
    with budget("criterion 12 (deck transformations)", 60.0):
        f = GraphHom(K2, C5, (0, 1))
        gamma = gamma_elements_bounded(f, 0, 20)
        assert len(gamma) == 3
        e = gamma_identity(f)
        g, ginv = [x for x in gamma if x != e]
        assert gamma_inverse(g) == ginv
        assert gamma_product(g, ginv) == e
        assert gamma_product(ginv, g) == e
        for x in gamma:
            assert gamma_product(e, x) == x
            assert gamma_product(x, e) == x
        assert len(gamma_elements_bounded(f, 0, 40)) == 5


def test_criterion_13_window_primitives():
    with budget("criterion 13 (windows, lifts, transports)", 10.0):
        W = materialize_pi(path_graph(4), 3)
        assert len(W.walks) == 16
        assert sorted((w.source, w.target) for w in W.walks) == sorted(
            itertools.product(range(4), repeat=2)
        )
        cover = tree_cover(C5, 0, 5)
        for start in cover.walks:
            frontier = [(start.target,)]
            for _ in range(5):
                for seq in frontier:
                    xi = Walk(C5, seq)
                    try:
                        lifted = lift_walk(cover, start, xi)
                    except Exception:
                        continue  # left the window: not an in-window input
                    assert cover.project_walk(lifted) == xi
                frontier = [s + (y,) for s in frontier for y in C5.neighbors(s[-1])]
        f = GraphHom(K2, C5, (0, 1))
        cover_G = tree_cover(K2, 0, 4)
        cover_H = tree_cover(C5, 0, 4)
        induced = induced_cover_map(f, cover_G, cover_H)
        transported = psi_apply(identity_element(f), cover_G, cover_H)
        assert transported.sets == tuple(frozenset({m}) for m in induced)


def test_criterion_14_byte_determinism(tmp_path):
    with budget("criterion 14 (byte-identical reports)", 60.0):
        runs = [
            ["check", "--graph", "petersen"],
            ["product", "--graph", "C6"],
            ["census", "--domain", "K2", "--codomain", "C5"],
            ["classify", "--domain", "C6", "--codomain", "C3"],
            ["ef", "--domain", "K2", "--codomain", "C5", "--seed-hom", "0,1", "--max-norm", "8"],
            ["cover", "--graph", "C5", "--radius", "4"],
            ["verify", "--suite", "core", "--seed", "11"],
        ]
        for argv in runs:
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            assert cli_main(argv + ["--out", str(a)]) in (0, 3)
            assert cli_main(argv + ["--out", str(b)]) in (0, 3)
            assert a.read_bytes() == b.read_bytes()
            json.loads(a.read_text())
