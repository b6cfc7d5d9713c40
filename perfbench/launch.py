"""Run one command, time it from spawn to exit, and print its rusage as JSON.

    python3 perfbench/launch.py LOG TIMEOUT_S PROGRAM [ARG ...]

PROGRAM must be an absolute path. Its standard output and error go to LOG.

A child's peak RSS as ``wait4`` reports it is at least the RSS its parent
had when the child was spawned, because the kernel carries the old
address space's high-water mark across ``exec``. The benchmark process
holds corpora and references, so it starts every measured command through
this small, fresh interpreter instead, whose own RSS stays below that of
any ``oametrics`` run.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    log, timeout, *argv = sys.argv[1:]
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    signal.alarm(0)
    os.close(fd)
    print(json.dumps({
        "wall_s": wall,
        "exit_code": os.waitstatus_to_exitcode(status),
        "maxrss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))


if __name__ == "__main__":
    main()
