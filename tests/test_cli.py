import csv
import json

import numpy as np
import pytest

from setmarkov.cli import BLOCK_ROWS, format_rows, main
from setmarkov.config import load_config
from setmarkov.generators import generator_matching_defect, system_along_flow
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
    cfg = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert main(["sample", "--config", cfg, "--n", "17", "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["sample", "--config", cfg, "--n", "17", "--out", str(out2),
                 "--workers", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    assert failing & {"set_markov", "flow_markov", "increment_independence"}


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
    assert got["ordering_invariance"] == "6 ordering pairs, 4 of 16 orderings"
    # orderings 0-3 agree on their first three sets: no kept pair has power
    for level in (2, 3):
        for suffix in ("", "_generator"):
            assert got[f"permutation_identity_{level}{suffix}"] == (
                "orderings 0 and 1 (slots 1 2 3 4 6 5), "
                f"no pair moves slots 2-{level}, 3 start states, 4 of 16 orderings")


def test_uncut_orderings_keep_their_text(tmp_path):
    got = _instances(tmp_path, STAIRCASE)
    assert got["chapman_kolmogorov"].endswith(" prefix triples, 16 orderings")
    assert got["ordering_invariance"] == "120 ordering pairs"
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
    flow = flow_from_ordering(cfg.spec.ordering, kernel.measure)
    coarse = DiscreteFlow((flow.times[0], flow.times[-1]),
                          (flow.stages[0], flow.stages[-1]), flow.trace_measure)
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


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("shape", [(1, 16), (16, 1), (4, 4), (8, 4)])
def test_format_rows_matches_repr(distinct, shape):
    # (8, 4) repeats every value, so the distinct path gathers shared strings
    flat = np.resize(np.array(WRITER_VALUES), shape[0] * shape[1])
    block = flat.reshape(shape)
    want = "".join(",".join(repr(float(v)) for v in row) + "\r\n" for row in block)
    assert format_rows(block, distinct) == want


DERIVED = [{"name": "u12", "union": [1, 2]},
           {"name": "d1", "union": [1], "minus": [0]},
           {"name": "x,y", "union": [2], "minus": [1]}]
WRITER_PROCESSES = {
    "empirical": {"kind": "empirical", "n": 3, "measure": {"uniform": True}},
    "gaussian": {"kind": "gaussian", "measure": {"weights": [0.5, 1.0, 1.5, 2.0]}},
    "compound_poisson": {"kind": "compound_poisson", "measure": {"constant": 0.7},
                         "jumps": {"values": [1, 2.5], "probs": [0.6, 0.4]}},
}


@pytest.mark.parametrize("kind", sorted(WRITER_PROCESSES))
def test_sample_block_writer_matches_row_writer(tmp_path, kind):
    payload = dict(BASE, process=WRITER_PROCESSES[kind],
                   experiment={"derived_sets": DERIVED})
    cfg = write_config(tmp_path, payload)
    b = BLOCK_ROWS
    for n in (1, b - 1, b, b + 1, 2 * b + 1):
        ref = tmp_path / f"ref{n}.csv"
        ref_sample_csv(cfg, n, 5, ref)
        want = ref.read_bytes()
        assert want.startswith(b'C0,C1,C2,u12,d1,"x,y"\r\n')
        for workers in (1, 2, 3):
            out = tmp_path / f"n{n}w{workers}.csv"
            assert main(["sample", "--config", cfg, "--n", str(n), "--seed", "5",
                         "--workers", str(workers), "--out", str(out)]) == 0
            assert out.read_bytes() == want, (n, workers)


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
