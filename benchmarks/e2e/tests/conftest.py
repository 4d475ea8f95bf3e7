"""Put the benchmark's own directory (and the program) on ``sys.path``.

``benchmarks/e2e`` is not a package — ``run.py`` is started as a script —
so its modules import each other by bare name, and so do these tests.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for entry in (str(ROOT / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
