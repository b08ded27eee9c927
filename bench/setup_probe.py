"""Set-up probe: a fresh interpreter imports zeromodes, builds one workload's
potentials, prints "ready" and exits before the first solve.

    python3 bench/setup_probe.py WORKLOAD INPUTS_JSON

run.py times it from spawn to "ready".
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports zeromodes)

workloads.build(sys.argv[1], json.loads(sys.argv[2]))
print("ready", flush=True)
