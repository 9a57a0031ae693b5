"""The README's command-line examples print what the README says they print,
and its "Public names" table maps every public name.

Each `$ improper ...` example of README.md listed in COMMANDS runs through
cli.main in a scratch directory holding the README's inputs: C from the
JSON block, P from the Python block of "Library", and H = I. Its printed
lines must equal the README's; a `...` line stands for any number of
lines. The capacity example's CSV row is compared as well.

The "Public names" table has one row per name of improper.__all__, each
naming the paper subjects, the commands and the registered verify checks
the name serves; the commands and checks it cites must exist.
"""

import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import improper
from improper import fileio, verify
from improper.cli import build_parser, main

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


SUBJECTS = {"second-order", "entropy", "analog", "capacity"}


def _public_names():
    """name -> (subjects, commands, checks), from the rows of README's "Public names" table."""
    assert "### Public names" in README
    section = README.split("### Public names", 1)[1]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        name, subjects, commands, checks = cells
        assert name.strip("`") not in rows, name
        rows[name.strip("`")] = ({s.strip() for s in subjects.split(",")},
                                 set(re.findall(r"`([^`]+)`", commands)),
                                 set(re.findall(r'"([^"]+)"', checks)))
    return rows


def test_the_public_names_table_maps_every_name_to_what_it_serves():
    rows = _public_names()
    assert set(rows) == set(improper.__all__)
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    for name, (subjects, commands, checks) in rows.items():
        assert subjects and subjects <= SUBJECTS, name
        assert commands <= set(sub.choices), name
        assert checks <= set(verify._CHECKS), name
