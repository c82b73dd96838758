"""setmarkov benchmark: closed-loop CLI workloads, timed end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 33 --trace 0

One run starts a worker process several times to time set-up (interpreter
start, ``import setmarkov`` and loading every config), keeps the last one,
and sends it the workload's jobs one after another (one client, closed
loop).  Each job calls ``setmarkov.cli.main`` once; the parent checks its
output against the seed-commit references before sending the next job.  A
job that does not answer within its timeout is recorded as ``"timeout"``
and counted as failed; the worker is then killed and a new one started.

``--trace 0`` runs the job list once, then runs its jobs again in order
while each should end within ``--seconds``, all with tracing off.  Each
job's time is its median over the runs of it, and the end-to-end metrics of
one pass (``scaled_wall_s``, ``wall_s`` and the per-subcommand totals) are
sums of those medians.  ``scaled_wall_s`` sums job times scaled to a
reference host speed (see ``speed.py``); it is the gated time, because the
raw ``wall_s`` swings with the load of a shared host.  ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics of the
traced pass plus the tracing overhead (traced minus untraced
``scaled_wall_s``); its spans go to ``trace.jsonl`` in the run's output
directory under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import References, check_fdd, check_report, check_sample, sha256_of  # noqa: E402
from tracer import JOB_SPAN, SPANS, Span, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    JOB_SEEDS,
    PER_LAYER,
    SAMPLE_ROWS,
    WORKLOADS,
)

OUT_ROOT = ".perfbench_out"
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_STARTS = 3        # worker starts timed per run; setup_s is their median
READY_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 75.0    # the slowest seed-commit job takes 20 to 27 s
RUN_DEADLINE_S = 150.0  # jobs not started by then are recorded as "timeout"
COMMANDS = ("validate", "fdd", "gencheck", "sample")


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process and its line-based JSON protocol."""

    def __init__(self, root: str, configs: list[str], log):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, os.path.join(root, "src"), *configs],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            bufsize=0)
        self._buf = b""

    def read(self, timeout: float) -> dict | None:
        """The next reply, or None if none arrives within ``timeout``."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise WorkerError(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def ask(self, payload: dict, timeout: float) -> dict | None:
        try:
            self.proc.stdin.write((json.dumps(payload) + "\n").encode())
        except BrokenPipeError:
            raise WorkerError("worker closed its input") from None
        return self.read(timeout)

    def close(self) -> None:
        try:
            self.proc.stdin.write(b'{"op": "exit"}\n')
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()


def git_commit(root: str) -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return "unknown"


class Run:
    """One workload run: set-up, passes, output checks and metrics."""

    def __init__(self, root: str, workload, seed: int, out_dir: str):
        self.root = root
        self.workload = workload
        self.job_seed = seed % JOB_SEEDS
        self.out_dir = out_dir
        self.refs = References(root)
        self.log = open(os.path.join(out_dir, "worker.log"), "ab")
        self.worker: Worker | None = None
        self.versions: dict = {}
        self.tracing = False
        self.started = time.perf_counter()
        self.peak_rss_mb = 0.0
        self._digests: dict[str, str] = {}

    # -- workers ----------------------------------------------------------

    def start_worker(self) -> float:
        """Start a worker and return its set-up time (start to ready)."""
        worker = Worker(self.root, self.workload.configs, self.log)
        try:
            msg = worker.read(READY_TIMEOUT_S)
        except WorkerError:
            worker.kill()
            raise
        if msg is None or not msg.get("ready"):
            worker.kill()
            raise WorkerError("worker did not become ready")
        seconds = time.perf_counter() - worker.started
        self.versions = msg["versions"]
        self.worker = worker
        if self.tracing:
            self.set_tracing(True)
        return seconds

    def setup(self, starts: int) -> list[float]:
        times = []
        for i in range(starts):
            times.append(self.start_worker())
            if i < starts - 1:
                self.worker.close()
        return times

    def set_tracing(self, on: bool) -> None:
        self.tracing = on
        if self.worker.ask({"op": "trace", "on": on}, READY_TIMEOUT_S) is None:
            raise WorkerError("worker did not answer a trace request")

    def report(self) -> dict:
        msg = self.worker.ask({"op": "report"}, READY_TIMEOUT_S)
        if msg is None:
            raise WorkerError("worker did not answer a report request")
        self.peak_rss_mb = max(self.peak_rss_mb, msg["peak_rss_mb"])
        return msg

    def close(self, kill: bool = False) -> None:
        if self.worker is not None:
            if kill:
                self.worker.kill()
            else:
                self.worker.close()
        self.log.close()

    # -- jobs -------------------------------------------------------------

    def run_pass(self) -> list[dict]:
        return [self.run_job(job) for job in self.workload.jobs]

    def run_for(self, seconds: float) -> list[list[dict]]:
        """The whole job list once, then the jobs again in the same order for
        as long as each, judged by its first time, should end within
        ``seconds``; the last pass may be partial."""
        begin = time.perf_counter()
        passes = [self.run_pass()]
        first = {r["id"]: r["seconds"] for r in passes[0]}
        while True:
            extra = []
            for job in self.workload.jobs:
                if time.perf_counter() - begin + first[job.id] > seconds:
                    return passes + [extra] if extra else passes
                extra.append(self.run_job(job))
            passes.append(extra)

    def run_job(self, job) -> dict:
        rec = {"id": job.id, "command": job.command, "seconds": 0.0, "scaled_seconds": 0.0}
        out = os.path.join(self.out_dir, f"{job.id}.{job.out_ext}")
        if os.path.exists(out):
            os.remove(out)
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            rec.update(status="timeout", reason="run deadline passed before the job started")
            return rec
        timeout = min(JOB_TIMEOUT_S, remaining)
        request = {"op": "job", "id": job.id, "argv": job.argv(out, self.job_seed), "out": out}
        try:
            reply = self.worker.ask(request, timeout)
        except WorkerError as e:
            reply, rec["reason"] = None, str(e)
            rec["status"] = "crash"
        if reply is None:
            rec.setdefault("status", "timeout")
            rec.setdefault("reason", f"no answer within {timeout:.0f} s")
            rec["seconds"] = rec["scaled_seconds"] = timeout
            self.worker.kill()
            self.start_worker()
            return rec
        rec.update(rc=reply["rc"], seconds=reply["seconds"],
                   scaled_seconds=reply["scaled_seconds"], bytes=reply["bytes"])
        reason = self.check(job, out, reply["rc"])
        rec["status"] = "ok" if reason is None else "failed"
        if reason is not None:
            rec["reason"] = reason
        return rec

    def check(self, job, out: str, rc: int) -> str | None:
        if job.command in ("validate", "gencheck"):
            return check_report(out, rc, self.refs.report(job.command, job.config,
                                                          self.job_seed))
        try:
            if rc != 0:
                return f"exit code {rc}, expected 0"
            if job.command == "fdd":
                return check_fdd(out, self.refs.fdd(job.config))
            digest = sha256_of(out)
            reason = check_sample(out, SAMPLE_ROWS,
                                  self.refs.sample(job.config, self.job_seed), digest)
            if reason is None and job.workers == 1:
                self._digests[job.config] = digest
            elif reason is None and digest != self._digests.get(job.config):
                reason = f"--workers {job.workers} output differs from --workers 1"
            return reason
        except OSError as e:
            return f"unreadable output: {e}"
        finally:
            if os.path.exists(out):
                os.remove(out)


def pass_metrics(records: list[dict]) -> dict[str, float | None]:
    """End-to-end figures of one pass; None where the pass has no such job."""
    out: dict[str, float | None] = {
        "scaled_wall_s": sum(r["scaled_seconds"] for r in records),
        "wall_s": sum(r["seconds"] for r in records)}
    for cmd in COMMANDS:
        recs = [r for r in records if r["command"] == cmd]
        out[f"{cmd}_s"] = sum(r["seconds"] for r in recs) if recs else None
    samples = [r for r in records if r["command"] == "sample"]
    out["sample_rows_per_s"] = (SAMPLE_ROWS * len(samples) / out["sample_s"]
                                if samples and out["sample_s"] > 0 else None)
    del out["sample_s"]
    return out


def layer_metrics(spans: list[Span], counts: dict, overhead_s: float) -> dict[str, float]:
    totals = layer_totals(spans)
    m = {name: counts.get(name, 0) for name, *_ in PER_LAYER}
    for span in {name for _, _, name, _ in SPANS}:
        if span + "_s" in m:
            m[span + "_s"] = totals.get(span, {}).get("s", 0.0)
    m["construction.exact_fdd_calls"] = totals.get("construction.exact_fdd", {}).get("calls", 0)
    m["kernels.ck_defect_calls"] = totals.get("kernels.ck_defect", {}).get("calls", 0)
    m["suite.self_s"] = totals.get("suite", {}).get("self_s", 0.0)
    m["cli.self_s"] = totals.get(JOB_SPAN, {}).get("self_s", 0.0)
    m["trace.overhead_s"] = overhead_s
    return m


def job_medians(passes: list[list[dict]]) -> list[dict]:
    """The first pass's records, each job's raw and scaled seconds replaced
    by their medians over every pass that ran it."""
    times: dict[str, list[dict]] = {}
    for p in passes:
        for r in p:
            times.setdefault(r["id"], []).append(r)
    return [{**r, **{k: statistics.median(x[k] for x in times[r["id"]])
                     for k in ("seconds", "scaled_seconds")}}
            for r in passes[0]]


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    out_dir = os.path.join(root, OUT_ROOT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run = Run(root, workload, seed, out_dir)
    result = {"workload": name, "seed": seed, "job_seed": run.job_seed, "trace": trace}
    try:
        setup = run.setup(1 if trace else SETUP_STARTS)
        if trace:
            passes = [run.run_pass()]
            run.set_tracing(True)
            passes.append(run.run_pass())
            run.set_tracing(False)
        else:
            passes = run.run_for(seconds)
        reply = run.report()
    except BaseException:
        run.close(kill=True)
        raise
    run.close()
    records = [r for p in passes for r in p]
    result.update(
        facts={"nproc": os.cpu_count(), **run.versions, "git_commit": git_commit(root),
               "workload_seed": seed, "job_seed": run.job_seed},
        setup_s=setup, passes=passes,
        attempted=len(records),
        failed=sum(r["status"] != "ok" for r in records),
    )
    ok_ratio = (result["attempted"] - result["failed"]) / result["attempted"]
    if trace:
        spans = [Span(**s) for s in reply["spans"]]
        with open(os.path.join(out_dir, "trace.jsonl"), "w") as f:
            for s in reply["spans"]:
                f.write(json.dumps(s) + "\n")
        overhead = (pass_metrics(passes[1])["scaled_wall_s"]
                    - pass_metrics(passes[0])["scaled_wall_s"])
        layers = layer_metrics(spans, reply["counts"], overhead)
        result["layers"] = layers
        result["violations"] = [f"{k} is {layers[k]}, expected 0"
                                for k in workload.zero_layers if layers[k] != 0]
    else:
        e2e = pass_metrics(job_medians(passes))
        e2e.update(setup_s=statistics.median(setup), peak_rss_mb=run.peak_rss_mb,
                   ok_ratio=ok_ratio, failed_ratio=1.0 - ok_ratio)
        result["end_to_end"] = e2e
        result["violations"] = []
    result["correct"] = result["failed"] == 0 and not result["violations"]
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    return result


UNITS = {**{name: unit for name, unit, *_ in END_TO_END},
         "wall_s": "s", "validate_s": "s", "fdd_s": "s", "gencheck_s": "s",
         "sample_rows_per_s": "rows/s", "failed_ratio": "ratio"}


def print_result(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} facts={json.dumps(result['facts'])}")
    for i, p in enumerate(result["passes"]):
        for r in p:
            extra = f"  ({r['reason']})" if "reason" in r else ""
            print(f"#   pass {i} {r['id']:<40} {r['status']:<8} {r['seconds']:8.3f} s"
                  f" {r['scaled_seconds']:8.3f} s scaled{extra}")
    if result["trace"]:
        for name, unit, _, target in PER_LAYER:
            shown = f"{result['layers'][name]:.6g} {unit}"
            print(f"#   {name:<42} {shown:<22} -> {target}")
    else:
        for name, value in result["end_to_end"].items():
            shown = "n/a" if value is None else f"{value:.6g} {UNITS[name]}"
            print(f"#   {name:<20} {shown}")
    for v in result["violations"]:
        print(f"#   VIOLATION {v}")


def final_line(result: dict) -> dict:
    if result["trace"]:
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u, *_ in PER_LAYER}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u} for n, u, *_ in END_TO_END}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "setmarkov", "__init__.py")):
        print("perfbench: no setmarkov source under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    # a terminated run still kills its worker (see run_workload)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(root, n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for r in results:
        print_result(r)
    if args.workload == "all":
        path = os.path.join(root, OUT_ROOT, f"BENCH_all-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(results, f, indent=1)
        print(f"# wrote {os.path.relpath(path, root)}")
        lines = [final_line(r) for r in results]
        print(json.dumps({"correct": all(x["correct"] for x in lines),
                          "attempted": sum(x["attempted"] for x in lines),
                          "failed": sum(x["failed"] for x in lines),
                          "metrics": {f"{r['workload']}.{k}": v for r, x in zip(results, lines)
                                      for k, v in x["metrics"].items()}}))
    else:
        print(json.dumps(final_line(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
