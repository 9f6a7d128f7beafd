"""The README's examples run as documented.

Each `homcx` line of the first shell block under "## Command line" runs
through cli.main and exits 0, the documented `classify` result holds, and
the "## Library" snippet prints what its comment says, every function
the package exports has the docstring that section promises, and every
backticked dotted name that starts with a `homcx` module names something
in that module.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import pathlib
import pkgutil
import re
import shlex

import pytest

import homcx
from homcx.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def first_block(heading, language):
    """The body of the first fenced block of the language under heading."""
    section = README.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line.split("#", 1)[0])[1:]
    for line in first_block("## Command line", "sh").splitlines()
    if line.startswith("homcx ")
]


def test_every_subcommand_is_shown():
    assert [argv[0] for argv in COMMANDS] == [
        "check", "product", "census", "classify", "ef", "cover", "verify",
    ]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_line_example_exits_zero(argv, capsys):
    assert main(argv) == 0
    json.loads(capsys.readouterr().out)


def test_classify_example_reports_what_the_readme_says(capsys):
    assert main(["classify", "--domain", "K2", "--codomain", "C5"]) == 0
    (c,) = json.loads(capsys.readouterr().out)["components"]
    assert (c["size"], c["betti"], c["case"], c["circles"], c["expected_rank"]) == (
        20, [1, 1, 0], "HxK2Component", 1, 1,
    )


def test_library_snippet_prints_its_comment():
    code = first_block("## Library", "python")
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert expected == ["HxK2Component 20 [1, 1, 0]"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_every_exported_function_has_a_docstring():
    assert "every public function has one" in README
    missing = [
        name
        for name, obj in vars(homcx).items()
        if not name.startswith("_") and inspect.isfunction(obj) and not (obj.__doc__ or "").strip()
    ]
    assert missing == []


def test_dotted_module_names_resolve():
    # `hom_poset.larger_cells` and the like must still exist, so a deletion
    # that leaves the README naming it fails here
    modules = {m.name for m in pkgutil.iter_modules(homcx.__path__)}
    names = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
        if name.split(".")[0] in modules
    }
    assert "hom_poset.larger_cells" in names

    def resolves(name):
        head, *rest = name.split(".")
        try:
            functools.reduce(getattr, rest, importlib.import_module(f"homcx.{head}"))
        except AttributeError:
            return False
        return True

    assert sorted(name for name in names if not resolves(name)) == []
