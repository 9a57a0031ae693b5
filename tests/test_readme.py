"""The README's command-line examples print what the README says they print.

Each `$ improper ...` example of README.md listed in COMMANDS runs through
cli.main in a scratch directory holding the README's inputs: C from the
JSON block, P from the Python block of "Library", and H = I. Its printed
lines must equal the README's; a `...` line stands for any number of
lines. The capacity example's CSV row is compared as well.
"""

import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from improper import fileio
from improper.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, flags=re.S)
COMMANDS = ("validate", "entropy", "capacity", "verify")


def _examples():
    """command name -> (argv, the printed lines), from README's `$ improper` blocks."""
    out = {}
    for _, body in BLOCKS:
        lines = body.rstrip("\n").splitlines()
        if lines and lines[0].startswith("$ improper "):
            argv = shlex.split(lines[0])[2:]
            out[argv[0]] = (argv, lines[1:])
    return out


EXAMPLES = _examples()


def _inputs(directory: Path) -> None:
    (matrix,) = [json.loads(body) for lang, body in BLOCKS if lang == "json"]
    c = np.array(matrix["re"]) + 1j * np.array(matrix["im"])
    (python,) = [body for lang, body in BLOCKS if lang == "python"]
    p = np.array(ast.literal_eval(re.search(r"^p = np\.array\((.*)\)$", python, flags=re.M)[1]))
    for name, a in (("C", c), ("P", p), ("H", np.eye(2))):
        fileio.write_matrix(str(directory / f"{name}.json"), a)


def _matches(printed: list[str], shown: list[str]) -> bool:
    """Whether printed reads as shown, a `...` line standing for any lines."""
    if "..." not in shown:
        return printed == shown
    cut = shown.index("...")
    head, tail = shown[:cut], shown[cut + 1:]
    return (len(printed) >= len(head) + len(tail) and printed[:cut] == head
            and printed[len(printed) - len(tail):] == tail)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_example_prints_what_the_readme_shows(command, tmp_path, monkeypatch, capsys):
    argv, shown = EXAMPLES[command]
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert _matches(printed, shown), (printed, shown)
    if command == "capacity":
        (csv,) = [body for _, body in BLOCKS if body.startswith("n,S,")]
        assert (tmp_path / "out" / "capacity_runs.csv").read_text() == csv
