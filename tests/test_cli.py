"""The command line surface: parsing, reports, exit codes, determinism.

Everything goes through main(argv) directly; no subprocesses. Exit code
conventions: 0 success, 1 unusable input, 2 violated invariant, cap or
command-line usage, 3 rejected hypothesis (4-cycle in the target, empty hom
set, disconnected input where a connected one is needed).
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from homcx import ExplosionGuard, GraphInputError, classifier, cli, hom_cover
from homcx.cli import emit_report, load_graph, main
from homcx.hom_poset import DEFAULT_CAP
from homcx import complete_bipartite, complete_graph, cycle_graph, path_graph, petersen_graph


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

    @pytest.mark.parametrize("spec", ["K\u0663,\u0663", "P\u0664", "C\uff15", "C5\n", "K3,3\n"])
    def test_presets_are_whole_ascii_names(self, tmp_path, monkeypatch, capsys, spec):
        # Arabic-Indic and fullwidth digits and a trailing newline name no
        # preset, so each spec is a path, and here no file has that name
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            load_graph(spec)
        assert main(["check", "--graph", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")


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

    def test_empty_graph_has_no_rank(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"n": 0, "edges": []}))
        code, rep = run(capsys, "check", "--graph", str(p))
        assert code == 0
        assert rep["vertices"] == 0 and rep["square_free"] is True
        assert "expected_rank" not in rep

    def test_empty_graph_is_not_connected(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"n": 0, "edges": []}))
        code, rep = run(capsys, "check", "--graph", str(p))
        assert code == 0
        assert rep["connected"] is False


class TestReports:
    def test_product(self, capsys):
        code, rep = run(capsys, "product", "--graph", "C5")
        assert code == 0
        assert len(rep["components"]) == 1
        code, rep = run(capsys, "product", "--graph", "C6")
        assert code == 0
        assert len(rep["components"]) == 2

    def test_product_of_the_empty_graph_needs_a_connected_graph(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"n": 0, "edges": []}))
        assert main(["product", "--graph", str(p)]) == 3
        assert capsys.readouterr().err == (
            "hypothesis rejected: H x K2 structure is only reported for connected H\n"
        )

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

    def test_classify_disconnected_domain_into_disconnected_target(self, tmp_path, capsys):
        domain = tmp_path / "g.json"
        domain.write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
        codomain = tmp_path / "h.json"  # K2 beside C5
        codomain.write_text(
            json.dumps({"n": 7, "edges": [[0, 1], [2, 3], [3, 4], [4, 5], [5, 6], [6, 2]]})
        )
        code, rep = run(capsys, "classify", "--domain", str(domain), "--codomain", str(codomain))
        assert code == 0
        assert [(c["case"], c["circles"], c["expected_rank"]) for c in rep["components"]] == [
            ("HxK2Component", 0, 0),
            ("HxK2Component", 0, 0),
            ("HxK2Component", 1, 1),
        ]

    def test_classify_disconnected_domain_with_a_torus(self, tmp_path, capsys):
        # K2 beside K2 into C5: the component is a product of two circles,
        # outside the theorem's connected-domain hypothesis
        domain = tmp_path / "g.json"
        domain.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
        assert main(["classify", "--domain", str(domain), "--codomain", "C5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("hypothesis rejected:")
        assert "homology above degree one: (1, 2, 1)" in err
        code, rep = run(capsys, "census", "--domain", str(domain), "--codomain", "C5")
        assert code == 0
        assert [c["betti"] for c in rep["components"]] == [[1, 2, 1]]

    def test_classify_invariant_failure_exits_two(self, capsys, monkeypatch):
        # K2 -> C5 has one edge-factoring component; a census that reports
        # it twice trips the count, which main reports as an invariant
        (summary,) = classifier.component_census(complete_graph(2), cycle_graph(5))
        monkeypatch.setattr(classifier, "component_census", lambda G, H, cap: [summary] * 2)
        assert main(["classify", "--domain", "K2", "--codomain", "C5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant failure: 2 edge-factoring components found, expected 1\n"

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

    def test_ef_finds_tight_vertices_at_most_twice(self, capsys, monkeypatch):
        # once for the fiber's membership test, once for the report; the
        # deck group adds none, however many deck transformations there are
        calls = []
        real = hom_cover.tight_vertices

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(hom_cover, "tight_vertices", counted)
        monkeypatch.setattr(cli, "tight_vertices", counted)
        code, rep = run(
            capsys,
            "ef", "--domain", "K2", "--codomain", "C5",
            "--seed-hom", "0,1", "--max-norm", "20",
        )
        assert code == 0
        assert rep["deck_count"] == 3
        assert 1 <= len(calls) <= 2

    def test_ef_bad_seed(self, capsys):
        base = ["ef", "--domain", "K2", "--codomain", "C5", "--max-norm", "4"]
        assert main(base + ["--seed-hom", "a,b"]) == 1
        assert main(base + ["--seed-hom", "0,3"]) == 1  # not a homomorphism

    @pytest.mark.parametrize("text", ["0,1_0", "0, 1", "0,+1", "0,-1", "0,\u0661"])
    def test_ef_seed_fields_are_ascii_digits(self, capsys, text):
        # int() reads 1_0 as 10, and takes spaces, signs and other digits
        argv = ["ef", "--domain", "K2", "--codomain", "petersen", "--max-norm", "4"]
        assert main(argv + ["--seed-hom", text]) == 1
        assert capsys.readouterr().err == f"error: cannot parse vertex images from {text!r}\n"

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
        code, rep = run(capsys, "verify", "--seed", "7")
        assert code == 0
        assert rep["ok"] is True
        assert rep["seed"] == 7
        assert len(rep["checks"]) == 10
        assert all(c["ok"] for c in rep["checks"])

    def test_verify_reports_a_failed_check(self, capsys, monkeypatch):
        def explode(G, radius):
            raise ExplosionGuard("reduced walks: reached 2, over the cap of 1")

        monkeypatch.setattr(cli, "materialize_pi", explode)
        code, rep = run(capsys, "verify", "--seed", "3")
        assert code == 2
        assert rep["ok"] is False
        assert [c["name"] for c in rep["checks"] if not c["ok"]] == ["window_counts"]


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

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # the report is written to a temporary file that cannot replace a
        # directory; the file is removed and the OSError is bad I/O
        out = tmp_path / "report"
        out.mkdir()
        assert main(["check", "--graph", "C5", "--out", str(out)]) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["report"]
        assert os.listdir(out) == []

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


class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


# A dict's keys share one type, since sort_keys cannot order str against
# int; numeric and string sort orders differ on 10 and 2.
dict_key_types = st.sampled_from([
    st.text(max_size=4),
    st.integers() | st.sampled_from([2, 10]),
    st.floats(allow_nan=False),
    st.booleans(),
])
report_strings = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", '\\"\n\t']
)
report_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64)),
    st.floats() | st.sampled_from([-0.0, 1e300]),
    report_strings,
    st.integers().map(_Int),
    report_strings.map(_Str),
)


def report_containers(inner):
    lists = st.lists(inner, max_size=4)
    dicts = dict_key_types.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4))
    return st.one_of(
        lists,
        lists.map(tuple),
        lists.map(_List),
        lists.map(_Tuple),
        st.lists(st.integers(), max_size=5),
        dicts,
        dicts.map(_Dict),
    )


reports = st.recursive(report_leaves, report_containers, max_leaves=30)


@st.composite
def reports_sharing_tuples(draw):
    """A random report that holds one tuple object at two depths, next to
    tuples equal to it that hold True or 1.0 where it holds 1: the writer
    renders each tuple object once, and must not take one of those for
    another. The tuples may hold lists and empty containers."""
    items = st.one_of(
        st.sampled_from([1, 0, -1, "1", None]),
        st.lists(st.integers(0, 2), max_size=2),
        st.sampled_from([[], (), {}]),
    )
    shared = draw(st.lists(items, min_size=1, max_size=4).map(tuple))
    twins = [
        tuple(swap if type(x) is int and x == 1 else x for x in shared)
        for swap in (True, 1.0)
    ]
    first = draw(st.sampled_from([shared, *twins]))
    rest = [shared, *twins]
    rest.remove(first)
    return {
        "a": [first, *rest, {"deeper": [shared, draw(reports)]}],
        "b": shared,
        "c": [[], {}, ()],
    }


class TestReportBytes:
    @settings(max_examples=300, deadline=None)
    @given(reports | reports_sharing_tuples())
    @example({10: 0, 2: [1, 2]})
    @example([True, False, 1])
    @example({"a": False, "b": [0, True]})
    @example({"a": [(1,), (True,), (1.0,)], "b": [(True,), (1,)]})
    def test_bytes_are_those_of_indented_json(self, obj):
        expected = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            emit_report(obj, path)
            with open(path, "rb") as fh:
                assert fh.read() == expected
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            emit_report(obj, None)
        assert out.getvalue().encode() == expected

    @pytest.mark.parametrize(
        "obj",
        [
            True,
            None,
            [False, None, [True, [None]]],
            {"a": None, "b": {"c": [True, {"d": False}], "e": (None, False)}, "f": True},
        ],
    )
    def test_bools_and_none_at_every_depth(self, obj, capsys):
        emit_report(obj, None)
        assert capsys.readouterr().out == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            {"a": [1, 2], "z": {1, 2}},  # a set, after a valid first entry
            {"a": list(range(50)), "b": [{"c": (1, object())}]},
            [1, 2, {1: "x", "y": 2}],  # keys that cannot be sorted
        ],
    )
    def test_an_encoding_error_writes_nothing(self, obj, tmp_path, capsys):
        path = tmp_path / "report.json"
        for out in (str(path), None):
            with pytest.raises(TypeError):
                emit_report(obj, out)
        assert os.listdir(tmp_path) == []
        assert capsys.readouterr().out == ""


class TestCaps:
    def test_cap_flag(self, capsys):
        assert main(["census", "--domain", "K2", "--codomain", "C5", "--cap", "5"]) == 2
        assert capsys.readouterr().err == (
            "cap reached: graph homomorphisms: reached 6, over the cap of 5\n"
        )

    def test_the_environment_sets_no_cap(self, monkeypatch, capsys):
        # --cap is the one setting: the 10 homomorphisms and 20 cells of
        # K2 -> C5 stay under the default, whatever HOMCX_CAP says
        monkeypatch.setenv("HOMCX_CAP", "5")
        code, rep = run(capsys, "census", "--domain", "K2", "--codomain", "C5")
        assert code == 0
        assert [c["size"] for c in rep["components"]] == [20]

    def test_nonpositive_cap_is_bad_input(self, capsys):
        base = ["census", "--domain", "K2", "--codomain", "C5"]
        for cap in ("0", "-3"):
            assert main(base + ["--cap", cap]) == 1
            assert "--cap" in capsys.readouterr().err

    def test_component_cap_is_the_only_cap(self, capsys):
        # the order complex of this component has more chains than the
        # default cap; its 3470 cells do not
        code, rep = run(capsys, "classify", "--domain", "K1,3", "--codomain", "petersen")
        assert code == 0
        assert [(c["case"], c["size"], c["betti"]) for c in rep["components"]] == [
            ("HxK2Component", 3470, [1, 11, 0])
        ]

    def test_cover_window_is_capped_as_it_grows(self, capsys):
        # about 1.6e9 walks at radius 30; the cap stops the walk at 393,214
        t = time.perf_counter()
        assert main(["cover", "--graph", "petersen", "--radius", "40"]) == 2
        assert time.perf_counter() - t < 1.0
        assert "reduced walks: reached 393214, over the cap of 200000" in capsys.readouterr().err

    def test_deep_domain(self, capsys):
        # the search is iterative, so a long path does not hit the recursion limit
        code, rep = run(capsys, "census", "--domain", "P1200", "--codomain", "K2")
        assert code == 0
        assert [c["size"] for c in rep["components"]] == [1, 1]


class TestParser:
    """argparse rejects a malformed command line itself, with exit 2 and
    the usage on stderr."""

    def usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, capsys):
        self.usage_error(capsys, ["frobnicate"])

    def test_missing_required_flag(self, capsys):
        self.usage_error(capsys, ["census", "--domain", "K2"])

    def test_non_integer_cap(self, capsys):
        # a cap of 0 is bad input (exit 1); a cap that is no integer never parses
        self.usage_error(capsys, ["census", "--domain", "K2", "--codomain", "C5", "--cap", "abc"])


# a small command line for each subcommand, every other option at its default
_SMALL = {
    "check": ["--graph", "C5"],
    "product": ["--graph", "C5"],
    "census": ["--domain", "K2", "--codomain", "C5"],
    "classify": ["--domain", "K2", "--codomain", "C5"],
    "ef": ["--domain", "K2", "--codomain", "C5", "--seed-hom", "0,1", "--max-norm", "2"],
    "cover": ["--graph", "C5", "--radius", "2"],
    "verify": [],
}


class TestOptions:
    @pytest.mark.parametrize("command", sorted(_SMALL))
    def test_every_option_is_read(self, command, monkeypatch, tmp_path):
        # an option that nothing reads is a setting that changes nothing:
        # main, resolve_cap or the subcommand's run_* reads each one
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(_SMALL)
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        argv = [command, *_SMALL[command], "--out", str(tmp_path / "report.json")]
        args = Recording(**vars(parser.parse_args(argv)))
        recording_parser = argparse.Namespace(parse_args=lambda _: args)
        monkeypatch.setattr(cli, "build_parser", lambda: recording_parser)
        assert main(argv) == 0
        options = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        assert options - read == set()


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

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.load recurses once per bracket
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        assert main(["check", "--graph", str(p)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read graph JSON from {p}: nested too deeply\n"

    @pytest.mark.parametrize(
        "spec", ["P99999999999", "C99999999999", "K99999999", "K99999,99999", "huge.json"]
    )
    def test_oversized_graphs_are_refused_before_they_are_built(self, tmp_path, capsys, spec):
        # building any of these would take hours or exhaust memory
        if spec.endswith(".json"):
            spec = str(tmp_path / spec)
            with open(spec, "w") as fh:
                json.dump({"n": 10**12, "edges": []}, fh)
        start = time.perf_counter()
        assert main(["check", "--graph", spec]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"at most {DEFAULT_CAP}" in err

    def test_the_size_limit_is_inclusive(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": DEFAULT_CAP, "edges": [[0, 1]]}))
        assert load_graph(str(p)).n == DEFAULT_CAP
        p.write_text(json.dumps({"n": DEFAULT_CAP + 1, "edges": [[0, 1]]}))
        with pytest.raises(GraphInputError):
            load_graph(str(p))

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
