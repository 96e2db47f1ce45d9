"""Make the benchmark's modules and the repository's sources importable
for ``python -m pytest landlord_bench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
