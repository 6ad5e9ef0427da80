"""Runs one command at a time for run.py and reports its wall time and rusage.

run.py starts this as a separate small process, so that the peak resident set
reported for a CLI process is its own.  A child spawned straight from the
benchmark process, which holds numpy and the generated inputs, would report
that process's high-water mark: Linux carries it into the child across exec.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "out": path, "err": path, "kill_after": seconds}``, and one
JSON reply per line on stdout, ``{"wall_s", "cpu_s", "rss_mb", "code"}``.
Wall time runs from spawn to exit; CPU time and resident set come from
``os.wait4`` and include the waited-for children of the command.  It exits at
the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err)
            timer = threading.Timer(req["kill_after"], proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": proc.returncode,
        }) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
