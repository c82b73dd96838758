"""Self-tests of the benchmark harness (run: python -m pytest perfbench/tests)."""

import gzip
import json
import os
import signal
import time

import pytest

import checks
import run
import speed
import tracer
from tracer import Span, Tracer, covered, layer_totals, outermost, self_times
from workloads import END_TO_END, JOB_SEEDS, PER_LAYER, WORKLOADS, Job

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- span arithmetic ------------------------------------------------------------

def _tree():
    # root 0..10 with children a 1..4 and b 3..6 (overlapping: two threads);
    # a has a child 2..3; c 7..9 is a nested span of the same name as root
    return [
        Span(1, "suite", None, "j", 0.0, 10.0),
        Span(2, "kernels.ck_defect", 1, "j", 1.0, 4.0),
        Span(3, "kernels.ck_defect", 1, "j", 3.0, 6.0),
        Span(4, "construction.exact_fdd", 2, "j", 2.0, 3.0),
        Span(5, "suite", 1, "j", 7.0, 9.0),
    ]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (7, 9)], 0, 10) == pytest.approx(7.0)
    assert covered([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_is_span_minus_child_cover():
    selfs = self_times(_tree())
    assert selfs[1] == pytest.approx(10 - 7)  # children cover 1..6 and 7..9
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_totals_count_outermost_spans_once():
    assert [s.id for s in outermost(_tree())] == [1, 2, 3, 4]
    totals = layer_totals(_tree())
    assert totals["suite"] == {"s": 10.0, "calls": 1, "self_s": pytest.approx(3.0)}
    assert totals["kernels.ck_defect"]["s"] == pytest.approx(6.0)
    assert totals["kernels.ck_defect"]["calls"] == 2


# -- patching -------------------------------------------------------------------

def _bindings():
    import setmarkov.cli  # noqa: F401  (imports every module the CLI uses)
    mods = tracer._setmarkov_modules()
    out = {}
    for mod in mods:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("setmarkov"):
                for attr, member in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = member
    return out


def test_install_rebinds_every_importer_and_uninstall_restores(tmp_path):
    import setmarkov.construction as construction
    import setmarkov.distributions as distributions
    import setmarkov.grid as grid
    import setmarkov.kernels as kernels
    import setmarkov.suite as suite

    before = _bindings()
    t = Tracer()
    t.install()
    try:
        for mod in (grid, kernels, construction, suite):
            assert mod.measure_of.__wrapped__ is before[("setmarkov.grid", "measure_of")]
        assert suite.exact_fdd is construction.exact_fdd
        assert suite.exact_fdd.__wrapped__ is before[("setmarkov.construction", "exact_fdd")]
        assert "__wrapped__" in vars(kernels.EmpiricalKernel.step_pmf)
        assert distributions.TwoStage.cdf.__wrapped__ is not None
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    assert _bindings() == before


def test_traced_job_records_spans_and_counters(tmp_path):
    from setmarkov.cli import main

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "grid": {"extents": [2, 2]}, "semilattice": {"cell_lists": [[0, 1], [0, 2]]},
        "process": {"kind": "empirical", "n": 2, "measure": {"uniform": True}}}))
    with Tracer() as t:
        rc = t.run_job("job-1", main, ["validate", "--config", str(cfg),
                                       "--out", str(tmp_path / "r.json")])
    assert rc == 0
    roots = [s for s in t.spans if s.parent is None]
    assert [s.name for s in roots] == [tracer.JOB_SPAN]
    assert {s.job for s in t.spans} == {"job-1"}
    ids = {s.id for s in t.spans}
    assert all(s.parent in ids for s in t.spans if s.parent is not None)
    totals = layer_totals(t.spans)
    assert totals["construction.exact_fdd"]["calls"] > 0
    assert t.counts["grid.measure_of_calls"] > 0
    assert t.counts["kernels.pmf_calls"] > 0
    assert t.counts["construction.table_entries"] > 0
    metrics = run.layer_metrics(t.spans, t.counts, 0.0)
    assert set(metrics) == {name for name, *_ in PER_LAYER}


# -- output checks and failure accounting -----------------------------------------

def _write_reference(root, fdd_rows, sample_header, sample_sha):
    ref = root / checks.REFERENCE_DIR
    (ref / "fdd").mkdir(parents=True)
    with gzip.open(ref / "fdd" / "toy.csv.gz", "wt") as f:
        f.write("C0,C1,probability\n")
        f.writelines(f"{a},{b},{p}\n" for a, b, p in fdd_rows)
    (ref / "reports.json").write_text(json.dumps({"validate": {"toy": {
        str(s): {"rc": 0, "pass": True, "checks": [["chapman_kolmogorov", True]]}
        for s in range(JOB_SEEDS)}}}))
    (ref / "samples.json").write_text(json.dumps({"toy": {
        "header": sample_header, "sha256": {str(s): sample_sha for s in range(JOB_SEEDS)}}}))


class FakeWorker:
    """Answers job requests by writing a fixed output, or never answers."""

    def __init__(self, content=None, rc=0):
        self.content, self.rc, self.killed = content, rc, False

    def ask(self, payload, timeout):
        if self.content is None:
            return None
        with open(payload["out"], "w") as f:
            f.write(self.content)
        return {"rc": self.rc, "seconds": 0.01, "scaled_seconds": 0.02,
                "bytes": len(self.content)}

    def kill(self):
        self.killed = True

    def close(self):
        pass


@pytest.fixture
def toy_run(tmp_path, monkeypatch):
    rows = [("0.0", "0.0", "0.25"), ("0.0", "1.0", "0.75"), ("1.0", "0.0", "0.0")]
    sample_text = "C0,C1\n" + "0.5,1.5\n" * 3
    (tmp_path / "s.csv").write_text(sample_text)
    _write_reference(tmp_path, rows, ["C0", "C1"], checks.sha256_of(str(tmp_path / "s.csv")))
    monkeypatch.setattr(run, "SAMPLE_ROWS", 3)
    out = tmp_path / "out"
    out.mkdir()
    r = run.Run(str(tmp_path), WORKLOADS["exact-tables"], seed=3, out_dir=str(out))
    r.start_worker = lambda: 0.0
    yield r, sample_text
    r.log.close()


def test_fdd_check_accepts_reference_without_zero_rows(toy_run):
    r, _ = toy_run
    r.worker = FakeWorker("C0,C1,probability\n0.0,0.0,0.25\n0.0,1.0,0.75\n")
    assert r.run_job(Job("fdd", "toy"))["status"] == "ok"


def test_wrong_fdd_law_counts_as_failure(toy_run):
    r, _ = toy_run
    r.worker = FakeWorker("C0,C1,probability\n0.0,0.0,0.25000001\n0.0,1.0,0.74999999\n")
    rec = r.run_job(Job("fdd", "toy"))
    assert rec["status"] == "failed" and "TV distance" in rec["reason"]


def test_mismatched_sample_digest_counts_as_failure(toy_run):
    r, text = toy_run
    r.worker = FakeWorker(text)
    assert r.run_job(Job("sample", "toy", 1))["status"] == "ok"
    assert r.run_job(Job("sample", "toy", 2))["status"] == "ok"
    r.worker = FakeWorker(text.replace("1.5", "1.25"))
    rec = r.run_job(Job("sample", "toy", 1))
    assert rec["status"] == "failed" and "sha256" in rec["reason"]


def test_workers_outputs_must_match(toy_run, monkeypatch):
    r, text = toy_run
    r.worker = FakeWorker(text.replace("1.5", "1.25"))
    monkeypatch.setattr(r.refs, "sample",
                        lambda config, seed: {"header": ["C0", "C1"], "sha256": None})
    assert r.run_job(Job("sample", "toy", 1))["status"] == "ok"
    r.worker = FakeWorker(text)
    rec = r.run_job(Job("sample", "toy", 2))
    assert rec["status"] == "failed" and "--workers 1" in rec["reason"]


def test_validate_verdict_compares_rows_not_bytes(toy_run):
    r, _ = toy_run
    report = {"pass": True, "new_field": 1, "checks": [
        {"name": "chapman_kolmogorov", "pass": True, "defect": 0.0, "slack": 1e-10}]}
    r.worker = FakeWorker(json.dumps(report))
    assert r.run_job(Job("validate", "toy"))["status"] == "ok"
    report["checks"][0]["pass"] = False
    r.worker = FakeWorker(json.dumps(report))
    assert r.run_job(Job("validate", "toy"))["status"] == "failed"
    r.worker = FakeWorker(json.dumps(report), rc=1)
    assert r.run_job(Job("validate", "toy"))["status"] == "failed"


def test_hung_job_is_recorded_as_timeout(toy_run):
    r, _ = toy_run
    hung = r.worker = FakeWorker(None)
    rec = r.run_job(Job("validate", "toy"))
    assert rec["status"] == "timeout" and hung.killed
    assert rec["seconds"] > 0


# -- benchmark definition -----------------------------------------------------------

def test_benchmark_json_matches_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m[:3]) for m in PER_LAYER]


def test_reference_negative_control_fails_at_every_seed():
    refs = checks.References(ROOT)
    for seed in range(JOB_SEEDS):
        want = refs.report("validate", "corrupted_lattice3", seed)
        assert want["rc"] == 1 and want["pass"] is False


def test_final_line_has_exactly_the_contract_keys():
    result = {"trace": False, "correct": True, "attempted": 2, "failed": 0,
              "end_to_end": {name: 1.0 for name, *_ in END_TO_END}}
    line = run.final_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {name for name, *_ in END_TO_END}


def test_job_medians_cover_partial_passes():
    def rec(job, seconds, command="validate"):
        return {"id": job, "command": command, "seconds": seconds,
                "scaled_seconds": 2 * seconds}

    passes = [[rec("a", 1.0), rec("b", 2.0, "fdd")], [rec("a", 3.0), rec("b", 4.0, "fdd")],
              [rec("a", 8.0)]]
    medians = run.job_medians(passes)
    assert [(r["id"], r["seconds"]) for r in medians] == [("a", 3.0), ("b", 3.0)]
    metrics = run.pass_metrics(medians)
    assert metrics["wall_s"] == 6.0 and metrics["fdd_s"] == 3.0
    assert metrics["scaled_wall_s"] == 12.0
    assert metrics["gencheck_s"] is None and metrics["sample_rows_per_s"] is None


def test_refuses_to_run_without_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "exact-tables", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


# -- host-speed scaling -------------------------------------------------------------

def test_scaled_seconds_weights_each_stretch_by_the_probe_that_ends_it():
    ref = speed.REFERENCE_PROBE_S
    # job from 0 to 3 s with probes at 1 s (twice the reference) and at the end
    probes = [(1.0, 2 * ref), (3.0, ref / 2)]
    raw, scaled = speed.scaled_seconds(0.0, probes)
    assert raw == pytest.approx(3.0 - 2 * ref)
    assert scaled == pytest.approx(0.5 + 2 * (2.0 - 2 * ref))


def test_speed_clock_probes_during_the_job_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        end = time.perf_counter() + 4 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(clock._probes) >= 3
    assert 0 < clock.raw < 4 * speed.PERIOD_S + 0.05 and clock.scaled > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
