"""Benchmark worker: imports setmarkov once, then runs CLI jobs on request.

Started by ``run.py`` as ``python3 perfbench/worker.py SRC CONFIG...``.  It
imports the package from SRC, loads every CONFIG (the set-up the benchmark
times), then reads one JSON request per line on stdin and answers one JSON
line per request on its original stdout.  Anything the program itself prints
to stdout goes to stderr instead, so it cannot corrupt the protocol.  Each
job runs under ``speed.SpeedClock``, which times it both raw and scaled to a
reference host speed.

Requests and replies:
  {"op": "job", "id", "argv", "out"}  -> {"rc", "seconds", "scaled_seconds", "bytes"}
  {"op": "trace", "on": true|false}   -> {"ok": true}
  {"op": "report"}                    -> {"peak_rss_mb", "counts", "spans"}
  {"op": "exit"}                      (no reply)
"""

from __future__ import annotations

import json
import os
import resource
import sys


def main(argv) -> int:
    src, configs = os.path.abspath(argv[1]), argv[2:]
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(payload):
        proto.write(json.dumps(payload) + "\n")

    sys.path.insert(0, src)
    import numpy
    import scipy

    import setmarkov
    from setmarkov.cli import main as cli_main
    from setmarkov.config import load_config

    if not os.path.abspath(setmarkov.__file__).startswith(src + os.sep):
        print(f"setmarkov imported from {setmarkov.__file__}, not {src}", file=sys.stderr)
        return 2
    for path in configs:
        load_config(path)
    send({"ready": True, "versions": {"python": sys.version.split()[0],
                                      "numpy": numpy.__version__,
                                      "scipy": scipy.__version__,
                                      "setmarkov": setmarkov.__version__}})

    from speed import SpeedClock, probe
    from tracer import Tracer
    for _ in range(20):  # warm numpy's ufunc dispatch before the first job
        probe()
    tracer = None
    traced = Tracer()
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "job":
            with SpeedClock() as clock:
                if tracer is None:
                    rc = cli_main(req["argv"])
                else:
                    rc = tracer.run_job(req["id"], cli_main, req["argv"])
            out = req.get("out")
            size = os.path.getsize(out) if out and os.path.exists(out) else 0
            if tracer is not None:
                tracer.add("cli.bytes_written", size)
            send({"rc": rc, "seconds": clock.raw, "scaled_seconds": clock.scaled,
                  "bytes": size})
        elif op == "trace":
            if req["on"]:
                traced.install()
                tracer = traced
            else:
                traced.uninstall()
                tracer = None
            send({"ok": True})
        elif op == "report":
            send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "counts": traced.counts,
                  "spans": [s.as_dict() for s in traced.spans]})
        elif op == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
