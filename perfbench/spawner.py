"""Start the benchmark's commands from a process that stays small.

The peak RSS that wait4 reports for a child includes the high-water RSS
of the process that started it, because the kernel carries it across
exec. run.py grows while it parses outputs (a level-9 complex is 24 MB of
JSON), so it starts commands through this process instead.

Protocol: one JSON request per line on stdin with keys args, env, cwd,
stdout, stderr (paths) and timeout (seconds; the command's process group
is killed past it); one JSON reply per line on stdout with the exit code,
CLOCK_MONOTONIC spawn and exit times, and the peak RSS in KiB of any
process in the command's tree. Exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(request["args"], stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"],
                                start_new_session=True)
        killer = threading.Timer(request["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": start, "end": end,
            "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
