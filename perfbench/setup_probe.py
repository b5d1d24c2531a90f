"""Time one cold set-up: import gpchannels.cli and build the workload's families.

Usage: python3 perfbench/setup_probe.py 2,3,5,7
Prints the seconds from interpreter start of this script to the end of
warm-up.  run.py starts it in a fresh interpreter several times per run.
"""

import sys
import time

START = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gpchannels.cli  # noqa: E402,F401
from gpchannels.mub import build_mub_family  # noqa: E402

for d in sys.argv[1].split(","):
    build_mub_family(int(d))
print(repr(time.perf_counter() - START))
