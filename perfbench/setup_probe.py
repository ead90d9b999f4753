"""Set-up of one workload in a fresh interpreter; run.py times this process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import prepare  # noqa: E402

if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]))
