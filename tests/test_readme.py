"""README's command-line examples parse with the CLI's own parsers, and it
lists the exit codes the ``cli`` module documents."""

import re
import shlex
from pathlib import Path

from sparse_consist import DistortionSpec, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list:
    """The arguments of each ``sparse-consist`` line in README's code
    blocks, with backslash continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("sparse-consist ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if hasattr(args, "distortion"):
            DistortionSpec.parse(args.distortion)
        if hasattr(args, "grid"):
            cli._parse_grid(args.kind, args.grid)
        if args.command == "timing":
            cli._parse_grid("clip", args.clip_grid)
            cli._parse_grid("quant", args.quant_grid)


def _exit_codes(text: str) -> list:
    """The codes of the ``Exit codes:`` sentence in text, in order: the
    number that starts each comma-separated entry, with parenthesized
    remarks dropped."""
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", text, re.S).group(1)
    sentence = re.sub(r"\([^)]*\)", "", sentence)
    return [int(entry.split()[0]) for entry in sentence.split(",")]


def test_readme_and_cli_list_the_same_exit_codes():
    codes = _exit_codes(README.read_text())
    assert codes == _exit_codes(cli.__doc__)
    assert codes == sorted(set(codes))
