"""The README's examples run as written: every command of "Quick start
(CLI)" exits 0 through `cli.main`, the "Quick start (API)" block runs and
its own assert holds, and the equation-file example is the preset point."""

import pathlib
import re
import shlex

import pytest

from qbipoly import cli
from qbipoly.bigqjacobi import TEST_PARAMS, preset_equation
from qbipoly.io import parse_equation_source

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def fenced(heading: str, lang: str) -> str:
    """The body of the first ```lang block after the heading."""
    after = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{lang}\n(.*?)^```$", after, re.M | re.S).group(1)


def cli_examples() -> list:
    """(the README line's words, the arguments main takes) of every
    command in "Quick start (CLI)"; a line that is neither blank, a comment
    nor a qbipoly command is kept with no arguments, so it fails."""
    out = []
    for line in fenced("### Quick start (CLI)", "sh").splitlines():
        if words := shlex.split(line, comments=True):
            prefix = 3 if words[:3] == ["python", "-m", "qbipoly"] else 1
            argv = words[prefix:] if words[prefix - 1] == "qbipoly" else None
            out.append(pytest.param(argv, id=" ".join(words)))
    return out


CLI_EXAMPLES = cli_examples()


def test_readme_has_cli_examples():
    assert CLI_EXAMPLES


@pytest.mark.parametrize("argv", CLI_EXAMPLES)
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    assert argv is not None, "not a qbipoly command"
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_readme_api_example_runs():
    exec(compile(fenced("### Quick start (API)", "python"), "README.md", "exec"), {})


def test_readme_equation_file_is_the_preset_point(tmp_path, capsys):
    text = fenced("### Equation files", "text")
    E, params = parse_equation_source(text)
    assert params is None and E == preset_equation(TEST_PARAMS)
    path = tmp_path / "preset.eq"
    path.write_text(text)
    assert cli.main(["check", "--equation", str(path)]) == 0, capsys.readouterr().err
