"""Runs child processes on request and reports their wall time and rusage.

The kernel's peak-RSS figure for a child includes the memory of the process
that forked it, so the benchmark starts this helper while it is still small
and spawns every timed child through it. Protocol: one JSON request per line
on stdin (``argv``, ``cwd``, ``env``, ``stdout``, ``stderr``, ``timeout``),
one JSON reply per line on stdout. The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                    stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
