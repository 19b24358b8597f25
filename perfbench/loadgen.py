"""Open-loop arrival generator, run as its own process.

::

    python3 perfbench/loadgen.py < offsets.json > records

Reads a JSON list of due offsets (seconds, ascending), writes its origin
(a ``perf_counter`` value) and then releases arrival ``i`` at
``origin + offsets[i]`` by writing ``(i, lateness)``.  ``perf_counter`` is
``CLOCK_MONOTONIC``, shared by every process on the machine, so the
reader times latency from the same due times.  A separate process keeps
the generator clear of the service's interpreter lock, and the last
``SPIN_S`` before each due time are busy-waited because ``time.sleep``
overshoots by tens of microseconds, as much as a warm answer costs.
"""

import json
import os
import struct
import sys
import time

ORIGIN = struct.Struct("<d")
RECORD = struct.Struct("<Id")
SPIN_S = 200e-6
#: Time between writing the origin and the first due time.
LEAD_S = 0.02


def main() -> None:
    offsets = json.loads(sys.stdin.buffer.read())
    clock = time.perf_counter
    out = sys.stdout.fileno()
    origin = clock() + LEAD_S
    os.write(out, ORIGIN.pack(origin))
    for index, offset in enumerate(offsets):
        due = origin + offset
        delay = due - clock() - SPIN_S
        if delay > 0:
            time.sleep(delay)
        while clock() < due:
            pass
        os.write(out, RECORD.pack(index, clock() - due))


if __name__ == "__main__":
    main()
