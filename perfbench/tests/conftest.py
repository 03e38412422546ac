"""Import paths for the benchmark's own tests.

Run them from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import common  # noqa: E402

common.use_source_tree()
