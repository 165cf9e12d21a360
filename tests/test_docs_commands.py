"""Every ``python -m repro …`` command the docs show must parse with the real CLI.

Commands come from fenced code blocks (one per line, ``\\`` continuations
joined) and from inline code spans.  ``#`` comments and ``>`` / ``|``
shell tails are dropped before the arguments reach
:func:`repro.cli.build_parser`, so a renamed flag or a deleted subcommand
fails here instead of in a reader's terminal.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_INLINE = re.compile(r"`([^`]+)`")
_MARKER = "python -m repro"


def _commands(text: str) -> list[str]:
    """The argument strings after each ``python -m repro`` in ``text``."""
    found = []
    for block in _FENCE.findall(text):
        found += [line for line in block.replace("\\\n", " ").splitlines() if _MARKER in line]
    found += [span for span in _INLINE.findall(_FENCE.sub("", text)) if _MARKER in span]
    commands = []
    for line in found:
        args = line.split(_MARKER, 1)[1]
        args = re.split(r"\s#|[>|]", args, maxsplit=1)[0]
        commands.append(" ".join(args.split()))
    return commands


@pytest.mark.parametrize("doc", DOCS)
def test_documented_commands_parse(doc):
    commands = _commands((REPO_ROOT / doc).read_text())
    assert commands, f"{doc} shows no `{_MARKER}` command"
    parser = build_parser()
    rejected = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            rejected.append(command)
    assert not rejected, f"{doc}: the CLI rejects {rejected}"
