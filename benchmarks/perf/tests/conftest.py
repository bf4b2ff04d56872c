"""Self-tests of the benchmark: ``python -m pytest benchmarks/perf/tests -q``.

Not part of the tier-1 suite (``testpaths = ["tests"]``), and no module
here is named ``bench_*.py``, so ``make bench`` collects no benchmark from
this directory.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (str(ROOT / "src"), str(PERF)):
    if path not in sys.path:
        sys.path.insert(0, path)
