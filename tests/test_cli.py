import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import setmarkov
from setmarkov import cli, suite, verify
from setmarkov.cli import BLOCK_ROWS, SLICE_ROWS, _slots, format_rows, main
from setmarkov.config import load_config
from setmarkov.construction import sample_increments
from setmarkov.errors import TableSizeError
from setmarkov.generators import Trace, generator_matching_defect, system_along_flow
from setmarkov.lattice import DiscreteFlow, flow_from_ordering

from helpers import ref_fdd_csv, ref_generator_matching_defect, ref_sample_csv

BASE = {
    "grid": {"extents": [2, 2]},
    "semilattice": {"cell_lists": [[0, 1], [0, 2]]},
    "process": {"kind": "empirical", "n": 2, "measure": {"uniform": True}},
    "seed": 42,
}


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def _child_env():
    """The environment of a child interpreter that imports this setmarkov."""
    src = str(Path(setmarkov.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "setmarkov", "--help"], env=_child_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: setmarkov")
    for command in ("validate", "sample", "fdd", "gencheck"):
        assert command in out.stdout


# Run in a child interpreter: after ``import setmarkov`` and after each job,
# which of scipy.stats and scipy.integrate are loaded.
_IMPORT_PROBE = """
import json, sys

def loaded():
    return [m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules]

import setmarkov
steps = [["import setmarkov", 0, loaded()]]
from setmarkov.cli import main
for argv in json.loads(sys.argv[1]):
    steps.append([argv[0], main(argv), loaded()])
print(json.dumps(steps))
"""


def test_cli_jobs_never_import_scipy_stats_or_integrate(tmp_path):
    # a child interpreter, since helpers.py and several test modules import
    # scipy.stats into this one; the two modules together about doubled the
    # start-up of every CLI call
    sample = ["sample", "--config", str(CONFIGS / "empirical6_staircase.json"),
              "--n", "1000", "--out", str(tmp_path / "sample.csv")]
    compound = str(CONFIGS / "compound_lattice3.json")
    jobs = [sample, ["validate", "--config", compound, "--out", str(tmp_path / "report.json")],
            ["fdd", "--config", compound, "--out", str(tmp_path / "fdd.csv")]]
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(jobs)],
                         env=_child_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [
        ["import setmarkov", 0, []], ["sample", 0, []], ["validate", 0, []], ["fdd", 0, []]]


# Run in a child interpreter pinned to one CPU of its own: no column pool,
# every column in one piece.  Prints the CPU count and each job's exit code.
_ONE_CPU = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from setmarkov import kernels
from setmarkov.cli import main
print(json.dumps([kernels._usable_cpus(), [main(argv) for argv in json.loads(sys.argv[1])]]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_validate_reports_do_not_depend_on_the_cpu_count(tmp_path):
    def jobs(tag):
        return [["validate", "--config", str(CONFIGS / f"{kind}_staircase.json"),
                 "--seed", str(seed), "--out", str(tmp_path / f"{kind}-{seed}-{tag}.json")]
                for kind in ("dirichlet", "gaussian") for seed in (0, 10)]

    out = subprocess.run([sys.executable, "-c", _ONE_CPU, json.dumps(jobs("one"))],
                         env=_child_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    cpus, codes = json.loads(out.stdout.splitlines()[-1])
    assert cpus == 1
    # the dirichlet validate at seed 10 exits 1 on a recorded false alarm
    assert codes == [main(argv) for argv in jobs("default")] == [0, 1, 0, 0]
    for one, default in zip(jobs("one"), jobs("default")):
        assert Path(one[-1]).read_bytes() == Path(default[-1]).read_bytes()


def test_validate_passes_on_builtin(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["seed"] == 42
    assert "config_hash" in report and "initial_law" in report
    names = {c["name"] for c in report["checks"]}
    assert "chapman_kolmogorov" in names
    assert "ordering_invariance" in names
    assert all(set(c) >= {"name", "instance", "defect", "tolerance", "pass"}
               for c in report["checks"])


def test_validate_fails_on_corrupted(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE))
    payload["process"]["corrupted"] = True
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "chapman_kolmogorov" in failing
    err = capsys.readouterr().err
    assert "FAILED checks" in err


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"grid": ')
    assert main(["validate", "--config", str(p)]) == 2


def test_bad_field_reports_pointer(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE))
    payload["process"]["kind"] = "nonsense"
    cfg = write_config(tmp_path, payload)
    assert main(["validate", "--config", cfg]) == 2
    assert "/process/kind" in capsys.readouterr().err


GAUSSIAN = dict(BASE, process={"kind": "gaussian", "measure": {"uniform": True}})


@pytest.mark.parametrize("command, field, value, pointer", [
    ("validate", "experiment", {"ordering_cap": 0}, "/experiment/ordering_cap"),
    ("validate", "experiment", {"ordering_cap": "x"}, "/experiment/ordering_cap"),
    ("validate", "experiment", {"ordering_cap": -1}, "/experiment/ordering_cap"),
    ("validate", "experiment", {"mc_samples": 0}, "/experiment/mc_samples"),
    ("validate", "experiment", {"mc_samples": 1}, "/experiment/mc_samples"),
    ("validate", "experiment", {"samples": 10}, "/experiment"),
    ("sample", "experiment", {"derived_sets": 5}, "/experiment/derived_sets"),
    ("sample", "experiment", {"derived_sets": [{"union": [-1]}]},
     "/experiment/derived_sets/0/union"),
    ("validate", "tolerances", {"exact": "abc"}, "/tolerances/exact"),
    ("validate", "tolerances", [1], "/tolerances"),
    ("validate", "overrides", {"exact": "abc"}, "/exact"),
    ("validate", "overrides", [1], "tolerance overrides"),
])
def test_malformed_field_exits_2(tmp_path, capsys, command, field, value, pointer):
    payload = dict(GAUSSIAN)
    extra = ["--n", "3"] if command == "sample" else []
    if field == "overrides":
        overrides = tmp_path / "overrides.json"
        overrides.write_text(json.dumps(value))
        extra = ["--tolerance-overrides", str(overrides)]
    else:
        payload[field] = value
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "out"), *extra]) == 2
    assert pointer in capsys.readouterr().err


COMPOUND = dict(BASE, process={"kind": "compound_poisson", "measure": {"constant": 0.5},
                               "jumps": {"values": [1, 2], "probs": [0.5, 0.5]}})


def _with(config, pointer, value):
    """A copy of ``config`` with the field at ``pointer`` set to ``value``."""
    out = json.loads(json.dumps(config))
    *parents, last = pointer.strip("/").split("/")
    node = out
    for key in parents:
        node = node[key]
    node[last] = value
    return out


@pytest.mark.parametrize("config, pointer", [
    (_with(BASE, "/process/n", "ten"), "/process/n"),
    (_with(BASE, "/process/n", 2.7), "/process/n"),
    (_with(COMPOUND, "/process/measure/constant", "x"), "/process/measure/constant"),
    (_with(COMPOUND, "/process/measure", {"weights": ["a", 1, 1, 1]}),
     "/process/measure/weights"),
    (_with(COMPOUND, "/process/jumps/values", ["a"]), "/process/jumps/values"),
    (_with(COMPOUND, "/process/jumps", [1, 2]), "/process/jumps"),
    (_with(BASE, "/process/mixture", {"measure": {"uniform": True}, "weight": "x"}),
     "/process/mixture/weight"),
    (_with(BASE, "/seed", "abc"), "/seed"),
    (_with(BASE, "/grid/extents", 3), "/grid/extents"),
    (_with(BASE, "/semilattice", {"rectangles": 3}), "/semilattice/rectangles"),
    (_with(BASE, "/semilattice/cell_lists", [[0, 1.5]]), "/semilattice/cell_lists"),
])
def test_malformed_value_is_a_config_error_with_its_path(tmp_path, capsys, config, pointer):
    # n, seed and cells must be integers: 2.7 is refused, not run as 2
    assert main(["validate", "--config", write_config(tmp_path, config),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {pointer}: must be ") and "Traceback" not in err


def test_gencheck_dirichlet_past_a_total_mass_of_1035(tmp_path):
    # total mass 2,000: the Jacobi rules stay finite
    payload = dict(BASE, process={"kind": "dirichlet", "measure": {"constant": 500}})
    out = tmp_path / "gen.json"
    assert main(["gencheck", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert all(math.isfinite(r) for c in checks for r in c["residuals"])


class NanSystem:
    """A flow semigroup whose every probe value is NaN."""

    trace = Trace([0.0, 1.0], [0.0, 1.0])

    def basis(self):
        return np.eye(2)

    def values(self, h):
        return np.full(2, np.nan)

    def apply(self, s, t, h):
        return h

    def apply_generator(self, s, h, side="+"):
        return h

    def generator_terms(self, vs, end, h):
        return [self.values(h) for _ in vs]

    def exhausted(self, t):
        return False


def test_fd_order_rule():
    assert suite.fd_order([1e-13, 1e-14]) == (None, 0.0)
    assert suite.fd_order([4.0, 2.0, 1.0]) == ([2.0, 2.0], 0.0)
    assert suite.fd_order([4.0, 1.0]) == ([4.0], 1.0)
    for errs in ([math.nan], [4.0, math.nan, 1.0], [math.inf, 1.0]):
        assert math.isnan(suite.fd_order(errs)[1])


def test_nan_residuals_fail_validate_and_gencheck(tmp_path, monkeypatch):
    monkeypatch.setattr(suite, "system_along_flow", lambda kernel, flow: NanSystem())
    cfg = load_config(write_config(tmp_path, BASE))
    rows = {r["name"]: r for r in suite.run_validation_suite(cfg)}
    assert not rows["generator_fd_order"]["pass"]
    assert not rows["integral_identity"]["pass"]
    for row in suite.run_gencheck(cfg, suite.FD_EPS, None):
        assert not row["pass"]


def test_sample_deterministic_and_in_support(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["experiment"] = {"derived_sets": [{"name": "u12", "union": [1, 2]}]}
    cfg = write_config(tmp_path, payload)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--config", cfg, "--n", "3", "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--n", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.reader(out1.read_text().splitlines()))
    assert rows[0] == ["C0", "C1", "C2", "u12"]
    assert len(rows) == 4
    support = {0.0, 0.5, 1.0}
    for row in rows[1:]:
        assert all(float(v) in support for v in row)


def test_sample_workers_byte_identical(tmp_path):
    # the empirical sampler inverts one pmf per distinct state of each worker's
    # slice, the poisson one a single pmf per step
    poisson = dict(BASE, process={"kind": "poisson", "measure": {"constant": 0.7}})
    for name, payload, n in (("empirical", BASE, "17"), ("empirical", BASE, "2500"),
                             ("poisson", poisson, "2500")):
        cfg = write_config(tmp_path, payload, f"{name}.json")
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        assert main(["sample", "--config", cfg, "--n", n, "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["sample", "--config", cfg, "--n", n, "--out", str(out2),
                     "--workers", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes(), (name, n)


def test_sample_large_counts(tmp_path):
    # comb(2000, 1000) overflows a float, and a poisson count of mean 1e6
    # would tabulate a million atoms from 0: each table keeps O(sqrt) atoms
    empirical = {"kind": "empirical", "n": 2000, "measure": {"uniform": True}}
    poisson = {"kind": "poisson", "measure": {"constant": 1e6}}
    for process, atoms in ((empirical, 24 * math.sqrt(2000 / 4) + 142),
                           (poisson, 20 * math.sqrt(4e6) + 40)):
        cfg = write_config(tmp_path, dict(BASE, process=process), "large.json")
        outs = (tmp_path / "w1.csv", tmp_path / "w2.csv")
        for out, workers in zip(outs, ("1", "2")):
            assert main(["sample", "--config", cfg, "--n", "3000", "--out", str(out),
                         "--workers", workers]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        spec = load_config(cfg).spec
        sample_increments(spec, 42, 3000)
        assert max(len(t) for t in spec.kernel._pmfs.values()) <= atoms, process["kind"]


def test_sample_compound_at_a_large_intensity_is_not_constant(tmp_path):
    # exp(-800) underflows a float: the count weights are taken in log space,
    # so the draws spread around 800 * 1.5, not all on the largest atom.  A
    # one-member lattice keeps this to one table
    payload = dict(BASE, semilattice={"cell_lists": [[0]]},
                   process={"kind": "compound_poisson", "measure": {"constant": 800},
                            "jumps": {"values": [1, 2], "probs": [0.5, 0.5]}})
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", write_config(tmp_path, payload), "--n", "2000",
                 "--out", str(out)]) == 0
    values = [float(r["C0"]) for r in csv.DictReader(out.read_text().splitlines())]
    assert len(set(values)) > 1
    # the sample mean has standard deviation sqrt(800 * 2.5 / 2000) = 1
    assert abs(np.mean(values) - 1200.0) < 6.0


# the matrix semigroup needs float binomial coefficients, integer jumps and
# matrices of at most TABLE_CAP entries: jumps {1, 1000} give 27,001 states
SEMIGROUP_LEFT_OUT = {
    "n <= 1000": dict(BASE, semilattice={"cell_lists": [[0, 1, 2], [0, 1, 2, 3]]},
                      process={"kind": "empirical", "n": 2000,
                               "measure": {"weights": [0.97, 0.01, 0.01, 0.01]}}),
    "positive integer jumps": dict(BASE, process={
        "kind": "compound_poisson", "measure": {"constant": 0.5},
        "jumps": {"values": [1, 2.5], "probs": [0.6, 0.4]}}),
    "729054001 entries": dict(BASE, process={
        "kind": "compound_poisson", "measure": {"constant": 0.5},
        "jumps": {"values": [1, 1000], "probs": [0.5, 0.5]}}),
}


@pytest.mark.parametrize("reason", sorted(SEMIGROUP_LEFT_OUT))
def test_semigroup_left_out_is_a_config_error_and_reported(tmp_path, capsys, reason):
    # comb(2000, 1000) overflows a float: gencheck refuses the semigroup with
    # the limit instead of an OverflowError, and validate leaves its rows out
    # and says so in the flow_matching row
    cfg = write_config(tmp_path, SEMIGROUP_LEFT_OUT[reason])
    assert main(["gencheck", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and reason in err and "Traceback" not in err
    out = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    instance = checks["flow_matching"]["instance"]
    assert instance.startswith("one-step vs refined chain; matrix-semigroup rows left out: ")
    assert reason in instance
    assert "generator_matching" not in checks and "integral_identity" not in checks


def test_validate_past_the_table_cap_fails_before_the_ck_rows(tmp_path, monkeypatch):
    # the CK rows chain every one of the 2001 probe states of an empirical
    # n = 2000 config; the spec's exact table, past TABLE_CAP, is built first
    calls = []
    monkeypatch.setattr(suite, "ck_defect", lambda *a, **k: calls.append(a))
    cfg = load_config(write_config(tmp_path, dict(BASE, process={
        "kind": "empirical", "n": 2000, "measure": {"uniform": True}})))
    with pytest.raises(TableSizeError, match="joint table exceeds"):
        suite.run_validation_suite(cfg)
    assert not calls


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sample_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    assert main(["sample", "--config", write_config(tmp_path, BASE), "--n", "3",
                 "--workers", workers, "--out", str(out)]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


SUMMARY = re.compile(r"(sample|fdd): (\d+) rows, (\d+) bytes in (\d+\.\d{3}) s \((\d+) rows/s\)")


@pytest.mark.parametrize("command", ["sample", "fdd"])
def test_writers_print_one_summary_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "x.csv"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "sample":
        argv += ["--n", "7", "--workers", "2"]
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    match = SUMMARY.fullmatch(lines[0])
    assert match and match[1] == command
    data_rows = len(out.read_bytes().splitlines()) - 1
    assert int(match[2]) == data_rows == (7 if command == "sample" else 10)
    assert int(match[3]) == out.stat().st_size
    assert float(match[4]) > 0 and int(match[5]) > 0


def test_fdd_table(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["process"]["n"] = 1
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "fdd.csv"
    assert main(["fdd", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["C0", "C1", "C2", "probability"]
    table = {tuple(float(v) for v in r[:3]): float(r[3]) for r in rows[1:]}
    assert table[(1.0, 0.0, 0.0)] == pytest.approx(0.25)
    assert table[(0.0, 1.0, 0.0)] == pytest.approx(0.25)
    assert table[(0.0, 0.0, 1.0)] == pytest.approx(0.25)
    assert table[(0.0, 0.0, 0.0)] == pytest.approx(0.25)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)


def test_fdd_rejects_continuous(tmp_path, capsys):
    payload = json.loads(json.dumps(BASE))
    payload["process"] = {"kind": "gaussian", "measure": {"uniform": True}}
    cfg = write_config(tmp_path, payload)
    assert main(["fdd", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "sampl" in capsys.readouterr().err


def test_gencheck_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "gen.json"
    assert main(["gencheck", "--config", cfg, "--eps", "0.01,0.005", "--out",
                 str(out)]) == 0
    report = json.loads(out.read_text())
    checks = {c["check"]: c for c in report["checks"]}
    assert "generator_fd" in checks and "integral_identity" in checks
    assert len(checks["generator_fd"]["residuals"]) == 2
    assert report["pass"] is True


@pytest.mark.parametrize("command", ["validate", "gencheck", "sample", "fdd"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # the CSV writers open the file before they draw or format a row
    calls = []
    for name in ("sample_increments", "format_rows"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
    out = str(tmp_path / "missing" / "r.csv")
    argv = [command, "--config", write_config(tmp_path, BASE), "--out", out]
    if command == "sample":
        argv += ["--n", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert not calls


@pytest.mark.parametrize("eps", ["abc", "0.01,x", "0", "-0.01", "0.01,0", "nan", "inf"])
def test_gencheck_rejects_a_step_that_is_not_finite_and_above_0(tmp_path, capsys, eps):
    out = tmp_path / "gen.json"
    assert main(["gencheck", "--config", write_config(tmp_path, BASE), "--eps", eps,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --eps {eps}: ")
    assert not out.exists()


def test_gencheck_honours_tolerance_0(tmp_path):
    # the integral identity reads a residual of about 3e-14 on this config:
    # within the default tolerance, above 0
    cfg = str(CONFIGS / "poisson_lattice4.json")
    rows = {}
    for tolerance in (None, "0"):
        out = tmp_path / "gen.json"
        argv = ["gencheck", "--config", cfg, "--out", str(out)]
        rc = main(argv + (["--tolerance", tolerance] if tolerance else []))
        rows[tolerance] = (rc, next(c for c in json.loads(out.read_text())["checks"]
                                    if c["check"] == "integral_identity"))
    assert rows[None][0] == 0 and rows[None][1]["pass"]
    assert 0.0 < rows["0"][1]["residuals"][0] < 1e-12
    assert rows["0"][0] == 1 and not rows["0"][1]["pass"]


@pytest.mark.parametrize("tolerance", ["-1e-9", "nan"])
def test_gencheck_rejects_a_negative_or_nan_tolerance(tmp_path, capsys, tolerance):
    assert main(["gencheck", "--config", write_config(tmp_path, BASE),
                 f"--tolerance={tolerance}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tolerance ") and "at least 0" in err


def test_gencheck_one_step_reports_no_order_estimate(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["gencheck", "--config", str(CONFIGS / "poisson_lattice4.json"),
                 "--eps", "0.01", "--out", str(out)]) == 0
    assert "NaN" not in out.read_text()
    fd = json.loads(out.read_text())["checks"][0]
    assert fd["check"] == "generator_fd" and len(fd["residuals"]) == 1
    assert fd["order_estimate"] is None and fd["note"] == "one step gives no order estimate"


def test_reports_refuse_non_finite_values(tmp_path):
    out = tmp_path / "r.json"
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cli._write_json(str(out), {"defect": value})
    assert not out.exists()


def test_validate_report_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE)
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["validate", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["validate", "--config", cfg, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_single_member_lattice_validates(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["semilattice"] = {"cell_lists": [[0]]}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_gaussian_null_second_leg_passes_composition(tmp_path):
    # the last member adds no cell, so one composition leg is a point mass;
    # a valid process must still pass at the default quadrature tolerance
    payload = {"grid": {"extents": [2, 2]},
               "semilattice": {"cell_lists": [[0, 1], [0, 2], [0, 1, 2]]},
               "process": {"kind": "gaussian", "measure": {"constant": 2.0}}}
    out = tmp_path / "report.json"
    assert main(["validate", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    ck = [c for c in json.loads(out.read_text())["checks"]
          if c["name"] == "chapman_kolmogorov"]
    assert ck[0]["pass"] and ck[0]["tolerance"] == 1e-7 and ck[0]["defect"] < 1e-12


def test_gaussian_narrow_second_leg_passes_composition(tmp_path):
    # the triple (1, 2, 3) has leg variances 1 and 0.01: the second-stage cdf
    # turns far faster than the first stage's quadrature nodes are spaced
    payload = {"grid": {"extents": [2, 2]},
               "semilattice": {"cell_lists": [[0, 1], [0, 2], [0, 1, 2, 3]]},
               "process": {"kind": "gaussian",
                           "measure": {"weights": [1.0, 1.0, 1.0, 0.01]}}}
    out = tmp_path / "report.json"
    assert main(["validate", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    ck = [c for c in json.loads(out.read_text())["checks"]
          if c["name"] == "chapman_kolmogorov"]
    assert ck[0]["pass"] and ck[0]["tolerance"] == 1e-7 and ck[0]["defect"] < 1e-9


def test_mixture_config_fails_markov_checks(tmp_path):
    payload = json.loads(json.dumps(BASE))
    payload["process"]["mixture"] = {
        "measure": {"weights": [0.1, 0.4, 0.4, 0.1]}, "weight": 0.5}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert {"set_markov", "flow_markov", "increment_independence"} <= failing


STAIRCASE = {"grid": {"extents": [4, 4]},
             "semilattice": {"rectangles": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1],
                                            [0, 2]]},
             "process": {"kind": "empirical", "n": 2, "measure": {"uniform": True}}}


def _instances(tmp_path, payload):
    out = tmp_path / "report.json"
    assert main(["validate", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) in (0, 1)
    return {c["name"]: c["instance"] for c in json.loads(out.read_text())["checks"]}


def test_ordering_cap_cut_is_reported(tmp_path):
    payload = json.loads(json.dumps(STAIRCASE))
    payload["experiment"] = {"ordering_cap": 4}
    got = _instances(tmp_path, payload)
    assert got["chapman_kolmogorov"].endswith(" prefix triples, 4 of 16 orderings")
    assert got["ordering_invariance"] == "3 swap edges of 4 orderings, 4 of 16 orderings"
    # orderings 0-3 agree on their first three sets: no kept pair has power
    for level in (2, 3):
        for suffix in ("", "_generator"):
            assert got[f"permutation_identity_{level}{suffix}"] == (
                "orderings 0 and 1 (slots 1 2 3 4 6 5), "
                f"no pair moves slots 2-{level}, 3 start states, 4 of 16 orderings")


def test_ordering_cap_lists_no_more_than_it_keeps(tmp_path):
    # eight members above {0}, each {0, i}: 8! = 40,320 orderings, more than
    # lattice.ORDERING_CAP; only the 4 kept are listed, and the rest are
    # counted up to the cap
    payload = {"grid": {"extents": [9]},
               "semilattice": {"cell_lists": [[0, i] for i in range(1, 9)]},
               "process": {"kind": "empirical", "n": 1, "measure": {"uniform": True}},
               "experiment": {"ordering_cap": 4}}
    cut = "4 of more than 10000 orderings"
    out = tmp_path / "report.json"
    assert main(["validate", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    got = {c["name"]: c["instance"] for c in json.loads(out.read_text())["checks"]}
    assert got["chapman_kolmogorov"] == f"300 prefix triples, {cut}"
    assert got["ordering_invariance"] == f"3 swap edges of 4 orderings, {cut}"
    assert got["permutation_identity_3"].endswith(f", {cut}")
    assert main(["gencheck", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "gencheck.json")]) == 0
    # 7 members: 5,040 orderings, all counted
    payload["semilattice"]["cell_lists"].pop()
    got = _instances(tmp_path, dict(payload, grid={"extents": [8]}))
    assert got["chapman_kolmogorov"].endswith(", 4 of 5040 orderings")


def test_uncut_orderings_keep_their_text(tmp_path):
    got = _instances(tmp_path, STAIRCASE)
    assert got["chapman_kolmogorov"].endswith(" prefix triples, 16 orderings")
    assert got["ordering_invariance"] == "24 swap edges of 16 orderings"
    assert got["permutation_identity_2"] == \
        "orderings 0 and 8 (slots 1 3 2 4 5 6), 3 start states"
    assert got["permutation_identity_3"] == \
        "orderings 0 and 6 (slots 1 2 4 3 5 6), 3 start states"


def test_ordering_cap_cut_is_reported_for_monte_carlo(tmp_path):
    payload = json.loads(json.dumps(STAIRCASE))
    payload["process"] = {"kind": "gaussian", "measure": {"uniform": True}}
    payload["experiment"] = {"ordering_cap": 4, "mc_samples": 2000}
    got = _instances(tmp_path, payload)
    assert got["ordering_invariance"] == "6 ordering pairs, 4 of 16 orderings, MC sigmas"


def test_generator_matching_reads_every_probe_state(tmp_path):
    payload = dict(BASE, process={"kind": "compound_poisson", "measure": {"constant": 0.7},
                                  "jumps": {"values": [1, 2], "probs": [0.6, 0.4]}})
    path = write_config(tmp_path, payload)
    cfg = load_config(path)
    kernel = cfg.spec.kernel
    flow = flow_from_ordering(cfg.spec.ordering)
    coarse = DiscreteFlow((flow.times[0], flow.times[-1]),
                          (flow.stages[0], flow.stages[-1]))
    spans = ((0, 1), (0, len(flow.stages) - 1))
    assert len(system_along_flow(kernel, flow).probe_states) == 27
    got = generator_matching_defect(kernel, coarse, spans[0], flow, spans[1])
    want = ref_generator_matching_defect(kernel, coarse, spans[0], flow, spans[1])
    assert abs(got - want) <= 1e-15
    out = tmp_path / "report.json"
    assert main(["validate", "--config", path, "--out", str(out)]) == 0
    row = next(c for c in json.loads(out.read_text())["checks"]
               if c["name"] == "generator_matching")
    assert row["instance"] == "one-step vs refined chain"
    assert row["defect"] == got


# -0.0 and 0.0, and the two NaNs (default and non-default payload), are
# distinct bit patterns
WRITER_VALUES = [-0.0, 0.0, float("nan"), np.uint64(0x7FF8000000000001).view(np.float64),
                 float("inf"), float("-inf"), 1e-5, 9.999999999999999e-05, 1e16,
                 5e-324] + [k / 6 for k in range(1, 7)]


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("shape", [(1, 16), (16, 1), (4, 4), (8, 4)])
def test_format_rows_matches_repr(cached, shape):
    # (8, 4) repeats every value, so each distinct string is gathered twice;
    # with ``cached`` the slots come from an earlier block of the same values
    flat = np.resize(np.array(WRITER_VALUES), shape[0] * shape[1])
    block = flat.reshape(shape)
    want = "".join(",".join(repr(float(v)) for v in row) + "\r\n" for row in block).encode()
    _slots.cache_clear()
    if cached:
        format_rows(block[::-1].copy())
        assert _slots.cache_info().currsize == 1
    assert format_rows(block) == want
    assert _slots.cache_info().hits == int(cached)
    # every cell formatted on its own: the same bytes, no slots kept
    assert format_rows(block, dedupe=False) == want
    assert _slots.cache_info().hits == int(cached)


DERIVED = [{"name": "u12", "union": [1, 2]},
           {"name": "d1", "union": [1], "minus": [0]},
           {"name": "x,y", "union": [2], "minus": [1]}]
WRITER_PROCESSES = {
    "empirical": {"kind": "empirical", "n": 3, "measure": {"uniform": True}},
    "gaussian": {"kind": "gaussian", "measure": {"weights": [0.5, 1.0, 1.5, 2.0]}},
    "compound_poisson": {"kind": "compound_poisson", "measure": {"constant": 0.7},
                         "jumps": {"values": [1, 2.5], "probs": [0.6, 0.4]}},
    "dirichlet": {"kind": "dirichlet", "measure": {"weights": [0.5, 1.0, 1.5, 2.0]}},
    "mixture": {"kind": "dirichlet", "measure": {"constant": 0.5},
                "mixture": {"measure": {"constant": 1.5}, "weight": 0.3}},
}


def _writer_matches_row_writer(tmp_path, kind, b, s):
    """``sample`` against the row-by-row reference at every block and slice
    edge of blocks of ``b`` rows and slices of ``s``, with 1, 2 and 3
    workers."""
    payload = dict(BASE, process=WRITER_PROCESSES[kind],
                   experiment={"derived_sets": DERIVED})
    cfg = write_config(tmp_path, payload)
    sizes = (1, b - 1, b, b + 1, 2 * b + 1, s - 1, s, s + 1)
    if s < SLICE_ROWS:
        sizes += (4 * s + 1,)  # five slices: 3 workers leave drawn slices waiting
    # a row depends on (seed, row) alone: the first n rows of the longest
    # reference are the reference for n
    ref = tmp_path / "ref.csv"
    ref_sample_csv(cfg, max(sizes), 5, ref)
    lines = ref.read_bytes().splitlines(keepends=True)
    assert lines[0] == b'C0,C1,C2,u12,d1,"x,y"\r\n'
    for n in sizes:
        want = b"".join(lines[:n + 1])
        # s + 1 rows make two slices, fewer make one: 3 workers outnumber them
        for workers in (1, 2, 3):
            out = tmp_path / f"n{n}w{workers}.csv"
            assert main(["sample", "--config", cfg, "--n", str(n), "--seed", "5",
                         "--workers", str(workers), "--out", str(out)]) == 0
            assert out.read_bytes() == want, (n, workers)


@pytest.mark.parametrize("kind", sorted(WRITER_PROCESSES))
def test_sample_block_writer_matches_row_writer(tmp_path, monkeypatch, kind):
    # blocks of 8 rows and slices of 32 cross the same edges as the real
    # sizes in a thousandth of the rows
    monkeypatch.setattr(cli, "BLOCK_ROWS", 8)
    monkeypatch.setattr(cli, "SLICE_ROWS", 32)
    _writer_matches_row_writer(tmp_path, kind, 8, 32)


def test_sample_block_writer_matches_row_writer_at_the_real_sizes(tmp_path):
    assert SLICE_ROWS % BLOCK_ROWS == 0
    _writer_matches_row_writer(tmp_path, "empirical", BLOCK_ROWS, SLICE_ROWS)


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_memory_does_not_grow_with_n(tmp_path, workers):
    # rows are sampled and written slice by slice: besides the slice being
    # written, at most ``workers`` are sampled or wait, so the traced peak at
    # 8 slices stays within workers + 1 times the peak of one slice, however
    # the threads are scheduled; a writer that holds the whole sample matrix
    # before writing it needs over four times the one-slice peak
    cfg = str(CONFIGS / "gaussian_staircase.json")
    out = str(tmp_path / "out.csv")
    argv = ["sample", "--config", cfg, "--seed", "0", "--workers", str(workers), "--out", out]
    assert main(argv + ["--n", "1"]) == 0  # lazy tables and imports first
    peaks = []
    for n in (SLICE_ROWS, 8 * SLICE_ROWS):
        tracemalloc.start()
        try:
            assert main(argv + ["--n", str(n)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= (workers + 1) * peaks[0], peaks


def test_fdd_block_writer_matches_row_writer(tmp_path):
    # 3 members, n = 24: 2,925 table rows, three blocks
    payload = json.loads(json.dumps(BASE))
    payload["process"]["n"] = 24
    cfg = write_config(tmp_path, payload)
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    ref_fdd_csv(cfg, ref)
    assert main(["fdd", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert len(ref.read_bytes().splitlines()) > 2 * BLOCK_ROWS


def _ordering_row(tmp_path, payload):
    out = tmp_path / "report.json"
    main(["validate", "--config", write_config(tmp_path, payload), "--out", str(out)])
    return next(c for c in json.loads(out.read_text())["checks"]
                if c["name"] == "ordering_invariance")


def test_exact_ordering_row_has_power_on_an_uneven_measure(tmp_path, monkeypatch):
    # on a uniform measure the two increments of the swap edge of {0, 01, 02}
    # are exchangeable, so comparing them without exchanging them reads 0;
    # cells 1 and 2 of uneven weight tell the aligned and misaligned laws apart
    payload = json.loads(json.dumps(BASE))
    payload["process"]["measure"] = {"weights": [0.4, 0.3, 0.2, 0.1]}
    row = _ordering_row(tmp_path, payload)
    assert row["instance"] == "1 swap edges of 2 orderings" and row["tolerance"] <= 1e-9
    assert row["pass"] and row["defect"] <= 1e-15
    # the exchanged order's (x, second, first) columns taken as (x, first, second)
    monkeypatch.setattr(verify.JointLaw, "permuted", lambda law, perm: law)
    misaligned = _ordering_row(tmp_path, payload)
    assert not misaligned["pass"] and misaligned["defect"] > 0.01
