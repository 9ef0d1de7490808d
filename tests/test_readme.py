"""README.md's examples stay in step with the code: its Python examples run
as printed, and its command lines parse, so the API and the flags they show
cannot drift."""

import re
import shlex
from pathlib import Path

from surveymc.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run_in_order():
    # every fenced python block, in order, in one namespace, as a reader
    # pasting them into one session would run them
    blocks = _blocks("python")
    assert len(blocks) >= 3
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_command_lines_parse():
    # parsed, not run: the tune and benchmark examples take about a minute;
    # a renamed or dropped flag fails the parse
    lines = [line for block in _blocks("sh") for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("surveymc ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
