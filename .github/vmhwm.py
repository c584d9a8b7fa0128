"""Run a command and record its own peak resident set (VmHWM, KiB).

usage: python3 .github/vmhwm.py RSS_FILE COMMAND [ARG...]

The child inherits stdin, stdout and stderr. While it runs, its
/proc/PID/status is polled every 5 ms; the largest VmHWM seen is written
to RSS_FILE and echoed to stderr. VmHWM is a high-water mark, so any poll
after the peak reads it.

getrusage(RUSAGE_CHILDREN).ru_maxrss cannot replace this: on exec, Linux
folds the launching process's high-water mark into the child's maxrss,
so every child of this wrapper would read at least the Python
interpreter's own ~14 MiB.

Exits with the child's status when it fails.
"""

import re
import subprocess
import sys
import time

rss_file, argv = sys.argv[1], sys.argv[2:]
child = subprocess.Popen(argv)
status = f"/proc/{child.pid}/status"
kib = 0
while child.poll() is None:
    try:
        with open(status) as f:
            m = re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.M)
        if m:
            kib = max(kib, int(m.group(1)))
    except OSError:
        pass
    time.sleep(0.005)
if child.returncode:
    sys.exit(child.returncode)
with open(rss_file, "w") as f:
    f.write(f"{kib}\n")
print(f"peak VmHWM {kib} KiB: {' '.join(argv)}", file=sys.stderr)
