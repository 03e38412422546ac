"""Regenerate ``perfbench/expected.json`` with the frozen reference solver.

    python3 perfbench/gen_expected.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import oracle  # noqa: E402


def main() -> int:
    oracle.EXPECTED_PATH.write_text(
        oracle.dump_table(oracle.generate_table()), encoding="utf-8")
    print(f"wrote {oracle.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
