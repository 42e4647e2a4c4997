"""Starts the timed `bagsolve solve` processes on behalf of run.py.

A child's ``ru_maxrss`` also counts the memory of the process it was forked
from, so a solve started from run.py, which holds the generated input and
the oracle's expectation, would report run.py's size as its peak. This
process holds nothing but the interpreter. It reads one JSON request per
line on stdin, ``{"argv", "cwd", "stdout", "stderr"}`` (the last two are
file paths), runs the command, waits for it and answers with one JSON line
``{"wall_s", "cpu_s", "rss_kb", "returncode"}``. It exits at end of input.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss,
                          "returncode": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
