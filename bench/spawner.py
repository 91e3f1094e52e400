"""Starts the benchmark's child processes from a small interpreter.

    python3 -I -S bench/spawner.py

A child's peak RSS, as ``wait4`` reports it, is never below the peak RSS
of the process that started it (exec keeps the old high-water mark).  This
process stays near 10 MB, below any qbruhat child, so the figure is the
child's own.  It reads one JSON request per line on stdin,
``{"argv": [...], "ready": bool, "ref": unit or null}``, runs the child to
completion and writes one JSON line: exit code, stdout, stderr, wall time,
the time to the first stdout line (when ``ready``), peak RSS in MB and,
when ``ref``, the host-speed samples taken after the child ends (one per
``hostspeed.EVERY_MS`` of its wall time).
"""

import json
import os
import selectors
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402


def run(argv, want_ready, want_ref):
    r_out, w_out = os.pipe()
    r_err, w_err = os.pipe()
    devnull = os.open(os.devnull, os.O_RDONLY)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, devnull, 0),
        (os.POSIX_SPAWN_DUP2, w_out, 1),
        (os.POSIX_SPAWN_DUP2, w_err, 2),
    ])
    for fd in (w_out, w_err, devnull):
        os.close(fd)
    chunks = {r_out: [], r_err: []}
    ready = None
    sel = selectors.DefaultSelector()
    for fd in chunks:
        sel.register(fd, selectors.EVENT_READ)
    while sel.get_map():
        for key, _ in sel.select():
            data = os.read(key.fd, 65536)
            if not data:
                sel.unregister(key.fd)
                os.close(key.fd)
                continue
            chunks[key.fd].append(data)
            if want_ready and ready is None and key.fd == r_out and b"\n" in data:
                ready = time.perf_counter() - t0
    sel.close()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "code": os.waitstatus_to_exitcode(status),
        "out": b"".join(chunks[r_out]).decode(errors="replace"),
        "err": b"".join(chunks[r_err]).decode(errors="replace"),
        "wall_s": wall,
        "ready_s": ready,
        "rss_mb": usage.ru_maxrss / 1024,
        "ref_ms": hostspeed.samples_after(wall * 1e3, want_ref) if want_ref else None,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["ready"], req["ref"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
