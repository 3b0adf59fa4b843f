"""Set-up probe: import dstab and load one problem, then say so.

    python3 perfbench/setup_probe.py PROBLEM '{"name": "decimal text"}'

run.py times a fresh interpreter from its start until the `ready` line, so
the measured set-up covers interpreter start, imports and the first
problem load, as a user of the command line pays them.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from dstab.cli import load_problem

    bindings = json.loads(sys.argv[2])
    load_problem(sys.argv[1], {name: float(text) for name, text in bindings.items()})
    print("ready", flush=True)
