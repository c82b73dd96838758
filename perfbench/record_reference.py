"""Record the reference outputs the benchmark's checks compare against.

Run from the repository root on the commit whose outputs are the reference
(the references in ``perfbench/reference`` come from the seed commit):

    PYTHONPATH=src python3 perfbench/record_reference.py

For every job of every workload and every job seed it runs the CLI in
process and writes:

* ``reports.json``: command -> config -> job seed -> verdict (exit code,
  overall pass, sorted (check name, pass) rows) of validate and gencheck;
* ``fdd/<config>.csv.gz``: the fdd CSV (seed-free);
* ``samples.json``: config -> header and job seed -> SHA-256 of the
  ``--workers 1`` sample CSV.

This takes about 20 minutes on a 2-CPU machine.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import REFERENCE_DIR, sha256_of, verdict  # noqa: E402
from workloads import JOB_SEEDS, WORKLOADS  # noqa: E402

from setmarkov.cli import main as cli_main  # noqa: E402

SCRATCH = ".perfbench_out/record"


def _run(job, out, seed) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli_main(job.argv(out, seed))


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    os.makedirs(os.path.join(REFERENCE_DIR, "fdd"), exist_ok=True)
    jobs = {j.id: j for w in WORKLOADS.values() for j in w.jobs
            if j.command != "sample" or j.workers == 1}
    reports: dict = {}
    samples: dict = {}
    for job in jobs.values():
        out = os.path.join(SCRATCH, f"{job.id}.{job.out_ext}")
        if job.command == "fdd":
            _run(job, out, 0)
            with open(out, "rb") as src, \
                    gzip.GzipFile(os.path.join(REFERENCE_DIR, "fdd", f"{job.config}.csv.gz"),
                                  "wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
            continue
        for seed in range(JOB_SEEDS):
            rc = _run(job, out, seed)
            if job.command == "sample":
                ref = samples.setdefault(job.config, {"sha256": {}})
                with open(out) as f:
                    ref["header"] = next(csv.reader([f.readline()]))
                ref["sha256"][str(seed)] = sha256_of(out)
            else:
                with open(out) as f:
                    reports.setdefault(job.command, {}).setdefault(job.config, {})[
                        str(seed)] = verdict(json.load(f), rc)
            print(job.id, seed, rc, flush=True)
    for name, payload in (("reports.json", reports), ("samples.json", samples)):
        with open(os.path.join(REFERENCE_DIR, name), "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
    shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
