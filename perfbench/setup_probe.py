"""Set-up probe: import the CLI and parse scenario files, then print "ready".

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO.json [...]

run.py starts this in a fresh interpreter and times it from process start to
the "ready" line.  Parsing builds each scenario's system, which samples the
metric's eigenvalue envelope.  After "ready" it times the speed probe of
``speed.py`` in this same process and prints those times as a JSON list;
run.py rescales the set-up time by them and by probes of its own taken just
before and just after.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import ccml1.cli  # noqa: E402,F401  (the import is what is being timed)
from ccml1.scenario import Scenario  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        Scenario.from_dict(json.load(fh))
print("ready", flush=True)

import speed  # noqa: E402  (after "ready": not part of the timed set-up)

WARM_UP, PROBES = 10, 50
times = [speed.probe() for _ in range(WARM_UP + PROBES)]
print(json.dumps(times[WARM_UP:]), flush=True)
