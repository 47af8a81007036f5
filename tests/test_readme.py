"""The README's sample output is the one hand-pinned copy of the default
tables.

Each ``$ qsafe ...`` line inside a fenced block of README.md is run
through ``run()``, and what it prints must equal the lines under it, up
to the next ``$ `` line, a blank line or the closing fence.  A sample is
changed by changing the code and printing it again.
"""

import shlex
from pathlib import Path

import pytest

from qsafe.cli_report import run

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ qsafe "

# The samples the README must keep: the paper's default tables.
REQUIRED = {
    "capacity",
    "plan",
    "plan --schedule k --bandwidth 1/2",
    "impact",
}


def readme_samples(text):
    """(command, expected stdout) for each prompt line in a fenced block."""
    samples = []
    fenced = False
    output = None  # the lines of the sample being read, if any
    for line in text.splitlines():
        if line.startswith("```"):
            fenced, output = not fenced, None
        elif not fenced or line == "":
            output = None
        elif line.startswith("$ "):
            output = None
            if line.startswith(PROMPT):
                output = []
                samples.append((line[len(PROMPT):], output))
        elif output is not None:
            output.append(line + "\n")
    return [(command, "".join(lines)) for command, lines in samples]


SAMPLES = readme_samples(README.read_text(encoding="utf-8"))


def test_readme_has_every_required_sample():
    assert REQUIRED <= {command for command, _ in SAMPLES}


def test_the_parser_ends_a_sample_at_a_prompt_a_blank_line_or_the_fence():
    text = (
        "$ qsafe outside\nno\n"
        "```\n$ qsafe a\n1\n2\n$ echo\n3\n$ qsafe b\n4\n\n5\n$ qsafe c\n6\n```\n7\n"
    )
    assert readme_samples(text) == [("a", "1\n2\n"), ("b", "4\n"), ("c", "6\n")]


@pytest.mark.parametrize("command, expected", SAMPLES, ids=[c for c, _ in SAMPLES])
def test_readme_sample_is_what_the_command_prints(capsys, command, expected):
    code = run(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected
