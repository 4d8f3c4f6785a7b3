"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 perfbench/spawner.py STDOUT STDERR ARGV...

The benchmark starts every timed command through this small process instead
of spawning it itself: on Linux a child's ``ru_maxrss`` includes the resident
size of the process it was spawned from (exec records the old address
space's high-water mark), so a child of the benchmark would report at least
the benchmark's own RSS.  This process stays smaller than any graphinv run.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main(stdout: str, stderr: str, argv: list[str]) -> None:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": os.waitstatus_to_exitcode(status),
    }))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
