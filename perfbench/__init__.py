"""Benchmark of graphopt; ``python3 perfbench/run.py --help`` runs it.

Importing this package puts the checkout's ``src`` first on ``sys.path``,
so the benchmark measures the graphopt that sits beside it.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
