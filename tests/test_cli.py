"""The command line surface: parsing, reports, exit codes, determinism.

Everything goes through main(argv) directly; no subprocesses. Exit code
conventions: 0 success, 1 unusable input, 2 violated invariant or cap,
3 rejected hypothesis (4-cycle in the target, empty hom set, disconnected
input where a connected one is needed).
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from homcx.cli import load_graph, main
from homcx import Graph, complete_bipartite, cycle_graph, path_graph, petersen_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestLoadGraph:
    def test_presets(self):
        assert load_graph("C5") == cycle_graph(5)
        assert load_graph("P4") == path_graph(4)
        assert load_graph("K3") == cycle_graph(3)
        assert load_graph("K3,3") == complete_bipartite(3, 3)
        assert load_graph("petersen") == petersen_graph()

    def test_json_file(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        assert load_graph(str(p)) == path_graph(3)


class TestCheck:
    def test_square_free_graph(self, capsys):
        code, rep = run(capsys, "check", "--graph", "C5")
        assert code == 0
        assert rep["square_free"] is True
        assert rep["witness"] is None
        assert rep["expected_rank"] == 1
        assert rep["bipartite"] is False

    def test_petersen(self, capsys):
        code, rep = run(capsys, "check", "--graph", "petersen")
        assert code == 0
        assert rep["expected_rank"] == 11

    def test_square_witness(self, capsys):
        code, rep = run(capsys, "check", "--graph", "C4")
        assert code == 3
        a, b, c, d = rep["witness"]
        G = cycle_graph(4)
        for x, y in [(a, b), (b, c), (c, d), (d, a)]:
            assert G.has_edge(x, y)
        assert "expected_rank" not in rep

    def test_complete_bipartite_preset(self, capsys):
        code, rep = run(capsys, "check", "--graph", "K3,3")
        assert code == 3
        assert rep["square_free"] is False

    def test_missing_file(self, capsys):
        assert main(["check", "--graph", "no-such-file.json"]) == 1

    def test_degenerate_preset(self, capsys):
        assert main(["check", "--graph", "C2"]) == 1


class TestReports:
    def test_product(self, capsys):
        code, rep = run(capsys, "product", "--graph", "C5")
        assert code == 0
        assert len(rep["components"]) == 1
        code, rep = run(capsys, "product", "--graph", "C6")
        assert code == 0
        assert len(rep["components"]) == 2

    def test_census(self, capsys):
        code, rep = run(capsys, "census", "--domain", "K2", "--codomain", "C5")
        assert code == 0
        (c,) = rep["components"]
        assert c["betti"] == [1, 1, 0]
        assert c["size"] == 20

    def test_census_handles_squares(self, capsys):
        # the census itself needs no square-free hypothesis
        code, rep = run(capsys, "census", "--domain", "K2", "--codomain", "C4")
        assert code == 0
        assert [c["size"] for c in rep["components"]] == [9, 9]

    def test_classify(self, capsys):
        code, rep = run(capsys, "classify", "--domain", "K2", "--codomain", "C5")
        assert code == 0
        assert rep["edge_factoring_components"] == 1
        assert rep["components"][0]["case"] == "HxK2Component"

    def test_classify_gates(self, capsys):
        assert main(["classify", "--domain", "K2", "--codomain", "C4"]) == 3
        assert main(["classify", "--domain", "C3", "--codomain", "P4"]) == 3

    def test_ef(self, capsys):
        code, rep = run(
            capsys,
            "ef", "--domain", "K2", "--codomain", "C5",
            "--seed-hom", "0,1", "--max-norm", "6",
        )
        assert code == 0
        assert rep["count"] == 13
        assert rep["deck_count"] == 1
        assert rep["norms"] == [0, 2, 4, 6]
        assert rep["tight_vertices"] == []
        assert len(rep["elements"]) == 13

    def test_ef_bad_seed(self, capsys):
        base = ["ef", "--domain", "K2", "--codomain", "C5", "--max-norm", "4"]
        assert main(base + ["--seed-hom", "a,b"]) == 1
        assert main(base + ["--seed-hom", "0,3"]) == 1  # not a homomorphism

    def test_cover(self, capsys):
        code, rep = run(capsys, "cover", "--graph", "C5", "--radius", "3")
        assert code == 0
        assert len(rep["vertices"]) == 7
        assert len(rep["edges"]) == 6
        assert rep["projection"][0] == 0

    def test_cover_disconnected(self, tmp_path, capsys):
        p = tmp_path / "two.json"
        p.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
        assert main(["cover", "--graph", str(p), "--radius", "2"]) == 3

    def test_verify(self, capsys):
        code, rep = run(capsys, "verify", "--suite", "core", "--seed", "7")
        assert code == 0
        assert rep["ok"] is True
        assert rep["seed"] == 7
        assert len(rep["checks"]) == 10
        assert all(c["ok"] for c in rep["checks"])


class TestOutputFiles:
    def test_out_writes_sorted_json_with_newline(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "--graph", "C5", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n")
        rep = json.loads(text)
        assert list(rep) == sorted(rep)
        assert capsys.readouterr().out == ""

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "report.json"
        main(["census", "--domain", "K2", "--codomain", "C5", "--out", str(out)])
        assert sorted(os.listdir(tmp_path)) == ["report.json"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for cmd in [
            ["census", "--domain", "K2", "--codomain", "C5"],
            ["ef", "--domain", "K2", "--codomain", "C5", "--seed-hom", "0,1", "--max-norm", "6"],
            ["verify", "--seed", "3"],
            ["classify", "--domain", "C3", "--codomain", "C3"],
        ]:
            assert main(cmd + ["--out", str(a)]) == 0
            assert main(cmd + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()


class TestCaps:
    def test_cap_flag(self, capsys):
        assert main(["census", "--domain", "K2", "--codomain", "C5", "--cap", "5"]) == 2

    def test_cap_env(self, monkeypatch, capsys):
        monkeypatch.setenv("HOMCX_CAP", "5")
        assert main(["census", "--domain", "K2", "--codomain", "C5"]) == 2

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("HOMCX_CAP", "5")
        code, rep = run(
            capsys, "census", "--domain", "K2", "--codomain", "C5", "--cap", "200000"
        )
        assert code == 0

    def test_nonpositive_cap_is_bad_input(self, monkeypatch, capsys):
        base = ["census", "--domain", "K2", "--codomain", "C5"]
        for cap in ("0", "-3"):
            assert main(base + ["--cap", cap]) == 1
            assert "--cap" in capsys.readouterr().err
        for env in ("0", "many"):
            monkeypatch.setenv("HOMCX_CAP", env)
            assert main(base) == 1
            assert "HOMCX_CAP" in capsys.readouterr().err

    def test_component_cap_is_the_only_cap(self, capsys):
        # the order complex of this component has more chains than the
        # default cap; its 3470 cells do not
        code, rep = run(capsys, "classify", "--domain", "K1,3", "--codomain", "petersen")
        assert code == 0
        assert [(c["case"], c["size"], c["betti"]) for c in rep["components"]] == [
            ("HxK2Component", 3470, [1, 11, 0])
        ]

    def test_deep_domain(self, capsys):
        # the search is iterative, so a long path does not hit the recursion limit
        code, rep = run(capsys, "census", "--domain", "P1200", "--codomain", "K2")
        assert code == 0
        assert [c["size"] for c in rep["components"]] == [1, 1]


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["census", "--domain", "K2"])


class TestBounds:
    def test_negative_max_norm_is_bad_input(self, capsys):
        argv = ["ef", "--domain", "K2", "--codomain", "C5", "--seed-hom", "0,1"]
        assert main(argv + ["--max-norm", "-1"]) == 1
        assert "max_norm" in capsys.readouterr().err

    def test_negative_radius_is_bad_input(self, capsys):
        assert main(["cover", "--graph", "C5", "--radius", "-1"]) == 1
        assert "radius" in capsys.readouterr().err

    def test_basepoint_out_of_range(self, capsys):
        assert main(["cover", "--graph", "C5", "--radius", "2", "--basepoint", "9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("edges", [[5], None, 7, [[0, 1, 2]], [[False, True]]])
    def test_malformed_edges(self, tmp_path, capsys, edges):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 3, "edges": edges}))
        assert main(["check", "--graph", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_boolean_vertex_count(self, tmp_path, capsys):
        # JSON true is an int to Python, but not a vertex count
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": True, "edges": []}))
        assert main(["check", "--graph", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
vertex_pairs = st.lists(st.integers(-1, 5), min_size=2, max_size=2)
graph_files = st.one_of(
    st.fixed_dictionaries(
        {"n": st.integers(0, 5), "edges": st.lists(vertex_pairs | json_values, max_size=6)}
    ),
    st.fixed_dictionaries({"n": json_values, "edges": json_values}),
    json_values,
).map(lambda data: ("json", data))
graph_specs = st.sampled_from(["K1", "K2", "K3", "C4", "C5", "P3", "K1,3", "petersen"]) | graph_files
seed_homs = st.text(max_size=5) | st.lists(st.integers(-1, 10), max_size=5).map(
    lambda xs: ",".join(map(str, xs))
)


@st.composite
def invocations(draw):
    """One CLI argv, with ("json", data) standing for a graph file holding data."""
    command = draw(st.sampled_from(["check", "product", "census", "classify", "ef", "cover"]))
    if command in ("check", "product"):
        return [command, "--graph", draw(graph_specs)]
    if command == "cover":
        return [
            command, "--graph", draw(graph_specs),
            f"--basepoint={draw(st.integers(-2, 11))}", f"--radius={draw(st.integers(-2, 4))}",
        ]
    argv = [command, "--domain", draw(graph_specs), "--codomain", draw(graph_specs)]
    argv.append(f"--cap={draw(st.integers(-2, 300))}")
    if command == "ef":
        argv += [f"--seed-hom={draw(seed_homs)}", f"--max-norm={draw(st.integers(-2, 6))}"]
    return argv


class TestFuzz:
    """Graphs, caps, radii and norms are drawn small, so each example takes
    milliseconds."""

    @settings(max_examples=100, deadline=None)
    @given(invocations())
    @example(["cover", "--graph", "C5", "--basepoint=9", "--radius=2"])
    @example(["check", "--graph", ("json", {"n": 3, "edges": [5]})])
    @example(["check", "--graph", ("json", {"n": 3, "edges": None})])
    @example(["classify", "--domain", ("json", {"n": 0, "edges": []}), "--codomain", "K1", "--cap=1"])
    def test_exit_codes_without_tracebacks(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            resolved = []
            for i, arg in enumerate(argv):
                if isinstance(arg, tuple):
                    path = os.path.join(tmp, f"graph{i}.json")
                    with open(path, "w") as fh:
                        json.dump(arg[1], fh)
                    arg = path
                resolved.append(arg)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(resolved)
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1
