"""The README's examples run as written: every command of "Quick start
(CLI)" exits 0 through `cli.main`, the "Quick start (API)" block runs and
its own assert holds, the equation-file example is the preset point, and
each exit-code example stated in prose exits with the code stated, printing
one `error:` line.  The README, the CI workflow and pyproject.toml's `test`
extra pin one set of test dependencies, and CI's oldest Python is the one
pyproject.toml admits."""

import argparse
import json
import pathlib
import re
import shlex
from fractions import Fraction

import pytest

from qbipoly import cli
from qbipoly.bigqjacobi import TEST_PARAMS, preset_equation
from qbipoly.io import parse_equation_source
from qbipoly.pearson import HYPOTHESES, NEEDS
from strategies import INCOMPATIBLE_PEARSON_TEXT, equation_to_text, pearson_line

ROOT = pathlib.Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


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
    """The example runs, and its last line's comment opens with the value
    of the line's expression, a float of the exact integral."""
    code = fenced("### Quick start (API)", "python")
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    expression, comment = code.strip().splitlines()[-1].split("#")
    assert repr(eval(expression, names)) == comment.split()[0].rstrip(":")


def test_readme_equation_file_is_the_preset_point(tmp_path, capsys):
    text = fenced("### Equation files", "text")
    E, params = parse_equation_source(text)
    assert params is None and E == preset_equation(TEST_PARAMS)
    path = tmp_path / "preset.eq"
    path.write_text(text)
    assert cli.main(["check", "--equation", str(path)]) == 0, capsys.readouterr().err


PROSE = " ".join(README.split())
P = ["--preset", "big-q-jacobi"]
NOT_ADMISSIBLE = ["--param", "a=8/5", "--param", "b=8/5", "--param", "c=25/16"]


def exit_code_examples() -> list:
    """(a phrase of the README's prose, the exit code it states, a command
    it names, the equation files it reads by name and text) for every
    exit-code example stated there in prose."""
    f1_line = {"f1-line.eq": equation_to_text(pearson_line("f1", Fraction(1, 7)))}
    cases = [("(`generate --family weight --param c=1`)", 2,
              ["generate", *P, "--family", "weight", "--param", "c=1", "--degrees", "2 1"], {}),
             ("`k > n` exits 2 with one `error:` line", 2,
              ["generate", *P, "--family", "nonmonic", "--degrees", "1 2"], {}),
             ("`error: equation not potentially self-adjoint: ratio_left fails`", 1,
              ["generate", "--equation", "f1-line.eq", "--family", "rodrigues", "--degrees", "1 1"],
              f1_line),
             ("`error: incompatible Pearson system: G1 G2(qx,y) != G2 G1(x,qy)`", 1,
              ["generate", "--equation", "incompatible.eq", "--family", "weight",
               "--degrees", "2 2"],
              {"incompatible.eq": INCOMPATIBLE_PEARSON_TEXT})]
    for request in (["check"], ["generate", "--family", "monic", "--degrees", "2"],
                    ["generate", "--family", "rodrigues", "--degrees", "1 1"],
                    *(["verify", "--suite", suite]
                      for suite in ("orthogonality", "consistency", "recurrence"))):
        cases.append(("(`--param a=8/5 --param b=8/5 --param c=25/16`", 1,
                      [*request, *P, *NOT_ADMISSIBLE], {}))
    return [pytest.param(*case, id=" ".join(case[2])) for case in cases]


@pytest.mark.parametrize("phrase, code, argv, files", exit_code_examples())
def test_readme_exit_code_example(phrase, code, argv, files, tmp_path, monkeypatch, capsys):
    # a refusal is one error line, the one quoted where the prose quotes it;
    # check runs and prints its failed report
    assert phrase in PROSE
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if argv[0] == "check":
        assert "check` at that point" in PROSE
        assert captured.err == "" and json.loads(captured.out)["ok"] is False
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if phrase.startswith("`error: "):
            assert captured.err == phrase.strip("`") + "\n"


def hypothesis_table() -> list:
    """(hypothesis, the requests that need it) of each row of the README's
    refusal table, in its order: the backquoted names of its first and last
    cells."""
    header = "\n| hypothesis | what fails | `error:` line | needed by |\n|---|---|---|---|\n"
    body = README.split(header, 1)[1].split("\n\n", 1)[0]
    cells = [row.strip("|").split(" | ") for row in body.splitlines()]
    return [(row[0].strip("` "), set(re.findall(r"`(\w+)`", row[-1]))) for row in cells]


def test_readme_hypothesis_table_is_the_code_map():
    # one row per hypothesis in the order requests decide them, each naming
    # the requests whose NEEDS hold it
    assert hypothesis_table() == [(name, {r for r, needs in NEEDS.items() if name in needs})
                                  for name in HYPOTHESES]


def test_readme_names_exactly_the_cli_options():
    """The long options README.md names are those the three subcommands
    declare, less --help: a removed option still named, or an option never
    named, fails."""
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {option for parser in sub.choices.values() for action in parser._actions
                for option in action.option_strings if option.startswith("--")}
    assert len(sub.choices) == 3
    assert named == declared - {"--help"}


def pins(text: str) -> dict:
    """name -> version of each `name==version` in text."""
    return dict(re.findall(r"([A-Za-z][\w-]*)==([\w.]+)", text))


def test_ci_and_readme_pin_one_set_of_versions():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    ci = pins(re.search(r"pip install (.*)", workflow).group(1))
    assert set(ci) == {"mpmath", "pytest", "hypothesis"}
    assert pins(fenced("## Install and test", "sh")) == ci
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert pins(re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)) == ci
    matrix = re.search(r"python-version: \[(.*)\]", workflow).group(1)
    lowest = min(tuple(map(int, v.strip(' "').split("."))) for v in matrix.split(","))
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    assert lowest == tuple(map(int, floor.groups())) == (3, 10)
