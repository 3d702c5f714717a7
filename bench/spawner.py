"""Small helper process that starts and times the benchmark's requests.

On Linux a child's ru_maxrss starts at the RSS of the process that
spawned it, so children started straight from the benchmark (which holds
every input and expected output) would all report its size.  This helper
holds nothing but the request in flight, so the peak it reports is the
request's own.

Protocol: one JSON job per stdin line, one JSON reply per stdout line.

    job:   {"argv": [...], "pipe_from": [...] | null, "stdin": PATH | null,
            "stdout": PATH, "stderr": [PATH, PATH], "cwd": PATH, "timeout": S}
    reply: {"wall_s": S, "codes": [rc, upstream rc?], "maxrss_kb": KB, "timed_out": BOOL}

``argv`` and ``pipe_from`` are full commands.  ``wall_s`` runs from
spawn until every process has exited with stdout read in full.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    procs = []
    timed_out = threading.Event()

    def kill_all():
        timed_out.set()
        for proc in procs:
            proc.kill()

    timer = threading.Timer(job["timeout"], kill_all)
    err_files = [open(path, "wb") for path in job["stderr"]]
    stdin = open(job["stdin"], "rb") if job["stdin"] else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        if job["pipe_from"]:
            upstream = subprocess.Popen(job["pipe_from"], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                        stderr=err_files[1], cwd=job["cwd"])
            procs.append(upstream)
            stdin = upstream.stdout
        proc = subprocess.Popen(job["argv"], stdin=stdin, stdout=subprocess.PIPE, stderr=err_files[0],
                                cwd=job["cwd"])
        procs.insert(0, proc)
        if job["pipe_from"]:
            upstream.stdout.close()  # the pipe now belongs to the two children
        timer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        codes, maxrss = [], 0
        for p in procs:
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            codes.append(p.returncode)
            maxrss = max(maxrss, usage.ru_maxrss)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        for p in procs:
            if p.returncode is None:
                p.kill()
                p.wait()
        if job["stdin"] and not job["pipe_from"]:
            stdin.close()
        for handle in err_files:
            handle.close()
    with open(job["stdout"], "wb") as handle:
        handle.write(out)
    return {"wall_s": wall, "codes": codes, "maxrss_kb": maxrss, "timed_out": timed_out.is_set()}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
