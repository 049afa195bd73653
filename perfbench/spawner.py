"""Starts and times child processes on behalf of run.py.

On Linux a child's ``ru_maxrss`` includes the peak resident size of the
process that spawned it, because exec records the old address space's high
water mark.  run.py holds large generated inputs, so it does not spawn the
measured children itself: this small, separate process does it and reports
each child's wall time, exit code and peak RSS.

Protocol: one JSON request per stdin line, ``{"args", "env", "cwd", "stdout",
"stderr", "timeout"}``; the child's stdout and stderr go to the named files,
and one JSON reply per line goes to stdout.  The process exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["args"], stdout=subprocess.PIPE, stderr=err, env=request["env"], cwd=request["cwd"]
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            data = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.write(data)
    return {"seconds": seconds, "exit_code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
