"""The README's examples run and print what the README says they print."""

import re
from pathlib import Path

from ucngas.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_the_digits_in_its_comments(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    # each print writes one value, and its comment opens with that value's
    # leading digits, e.g. "# 9.06e15 (cm^-3)"
    expected = [
        re.search(r"#\s*([-+\d.e]+)", line).group(1)
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) > 0
    for value, digits in zip(printed, expected):
        significant = len(digits.split("e")[0].replace(".", "").lstrip("-+0"))
        assert float(f"{float(value):.{significant}g}") == float(digits), (value, digits)


def test_readme_eigen_table_is_what_the_cli_prints(capsys):
    # no golden pins eigen's CSV, so this block pins its %d row format
    command = "eigen --n-max 3"
    block = re.search(
        rf"```console\n\$ python -m ucngas {command}\n(.*?)```", README.read_text(), re.S
    ).group(1)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == block


def test_readme_flag_table_lists_each_subcommands_flags():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = {}
    for name, cell in re.findall(r"^\| (.+?) \| (.+?) \|$", section, re.M)[2:]:
        # a cell lists backticked flags, some with a metavar: `--config FILE`
        table[name.strip("`")] = [flag.split()[0] for flag in re.findall(r"`([^`]+)`", cell)]
    shared = table.pop("all five")
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
    assert list(table) == list(commands)
    for name, command in commands.items():
        options = [o for a in command._actions if a.dest != "help" for o in a.option_strings]
        assert shared + table[name] == options, name
