"""Set one workload up in a fresh interpreter and report when it is ready.

    python3 perfbench/setup_probe.py <workload> <seed>

Run from the repository root.  ``run.py`` starts this several times and
times each start up to the ``ready`` line: interpreter start, ``import
qlease``, and the workload's schemes and designs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
