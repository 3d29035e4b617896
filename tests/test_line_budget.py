"""The ``src/repro`` line ceiling (ROADMAP aim 2: a falling line count).

``[tool.repro] max_src_lines`` in ``pyproject.toml`` sits beside the
coverage and docstring floors and works the other way round: it is set
to the count of the PR that last touched it and may only be *lowered*.
A PR that needs more lines than it removes has to say so by raising the
number in its own diff, where a reviewer sees it.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
PYPROJECT = SRC.parent.parent / "pyproject.toml"


def test_src_repro_stays_under_its_line_ceiling():
    # A regex, not tomllib: CI still runs Python 3.10.
    ceiling = int(re.search(r"^max_src_lines = (\d+)$", PYPROJECT.read_text(),
                            re.MULTILINE).group(1))
    lines = sum(len(path.read_text().splitlines())
                for path in SRC.rglob("*.py"))
    assert lines <= ceiling, (
        f"src/repro has {lines} lines, ceiling {ceiling}: delete what the "
        "change made unnecessary, or raise [tool.repro] max_src_lines in "
        "this PR and justify it")
