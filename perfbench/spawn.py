"""Starts the calls of one run.py Runner and reports their own rusage.

On Linux a process's ru_maxrss also counts the memory high-water mark of
the process it was spawned from. run.py loads outputs to check them, so it
does not spawn calls itself: it asks this small process, whose high-water
mark stays below that of any call.

Reads one JSON request per line on stdin,
{"cmd", "cwd", "env", "log", "timeout_s"}, runs the command with stdout
and stderr to the log file (killed after timeout_s), and writes one JSON
reply line, {"wall_s", "maxrss_kb", "code"}. Ends at end of input.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
        timer = threading.Timer(req["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
