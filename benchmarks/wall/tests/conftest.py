"""Self-tests of the wall-clock harness (not part of tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/wall/tests``
(``benchmarks/conftest.py`` imports ``repro`` before this file loads).
"""

import sys
from pathlib import Path

WALL = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(WALL))
