"""Write digests.json: the SHA-256 of every replay log at the default seed.

Run from the repository root:

    python3 bench/pin_digests.py

The benchmark compares each log it produces at the default workload seed
with these digests, so a change that alters the simulation's output shows
as failed sessions.  Pins cover the first batches of each workload, more
than a run of the benchmark's length reaches today; at the default seed
a session without a pin fails its checks.  Regenerate them only
for an intentional change of behaviour.
"""
from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, DIGESTS, SRC, WORK
from workloads import REPLAY_LOGS, WORKLOADS, load_program

# 200 sweep and 240 grid sessions: a 12 s run reaches them only at about
# 6x the speed of the code they were pinned from.
PIN_BATCHES = {"sweep": 10, "grid": 10, "replay": REPLAY_LOGS}


def main() -> int:
    sys.path.insert(0, str(SRC))
    pins = {}
    for name, batches in PIN_BATCHES.items():
        workload = WORKLOADS[name](load_program(SRC), DEFAULT_SEED, WORK / name)
        try:
            digests = {}
            for k in range(batches):
                for session in workload.collect(k, workload.run(k)):
                    problems = workload.check(session, None)
                    if problems:
                        print(f"{name} {session.label}: {problems}", file=sys.stderr)
                        return 1
                    digests[session.label] = session.digest
            pins[name] = digests
            print(f"{name}: {len(digests)} logs pinned")
        finally:
            workload.close()
    WORK.rmdir()
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": pins},
                                  indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
