"""Makes the benchmark's modules and the system under test importable.

Run with ``pytest benchmarks/e2e/tests``; the directory is outside the
tier-1 ``testpaths`` on purpose (the contract test runs small workloads).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(E2E), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
