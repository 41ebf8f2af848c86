"""Run a command, then write its exit code and its own peak RSS as JSON.

    python3 perfbench/spawn.py RESULT_JSON COMMAND...

Linux gives a process that calls exec a peak RSS no lower than the RSS of
the process it was forked from. Started straight from the benchmark, which
holds the generated streams, a child would report the benchmark's memory
instead of its own. This launcher is a small process, so the floor it
passes on stays below the program's own peak.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys


def main() -> int:
    result, cmd = sys.argv[1], sys.argv[2:]
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(result, "w") as fh:
        json.dump({"code": code, "maxrss_kb": usage.ru_maxrss}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
