"""Harness self-tests: ``python -m pytest bench/tests`` from the root.

Outside the tier-1 ``testpaths`` on purpose -- they test the benchmark,
not the program.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
