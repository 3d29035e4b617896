"""Every test file in the repository is one some suite runs.

Tier-1 collects ``tests/`` (``testpaths`` in ``pyproject.toml``) and the
wall-smoke CI job runs ``benchmarks/wall/tests/``; a ``test_*.py``
anywhere else is an assertion nothing checks.
"""

from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN_ROOTS = (REPO / "tests", REPO / "benchmarks" / "wall" / "tests")


def _test_files():
    for path in REPO.rglob("test_*.py"):
        parts = path.relative_to(REPO).parts
        if not any(part.startswith(".") for part in parts):
            yield path


def test_every_test_file_lies_under_a_run_root():
    stray = sorted(str(path.relative_to(REPO)) for path in _test_files()
                   if not any(path.is_relative_to(root)
                              for root in RUN_ROOTS))
    assert not stray, f"test files no suite collects: {stray}"


def test_benchmarks_has_no_harness_of_its_own():
    benchmarks = REPO / "benchmarks"
    assert not (benchmarks / "conftest.py").exists()
    assert not (benchmarks / "results").exists()

