"""Set-up cost a user pays on every shell invocation, timed in a fresh process.

Usage: python3 bench/setup_probe.py SRC_DIR SCENARIO_JSON

Prints the wall seconds for ``import histq.cli`` plus ``load_scenario`` of
the scenario.  Interpreter start-up before this script runs is not counted.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import histq.cli  # noqa: E402,F401
from histq.scenario import load_scenario  # noqa: E402

load_scenario(sys.argv[2])
print(repr(time.perf_counter() - START))
