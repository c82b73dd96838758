"""Finite laws on the value grid: the grid vectors against the dict pmfs
the kernels gave before (``helpers.ref_increment_pmf``), Panjer's recursion
on the grid against the heap version, the row count a refused table states,
the refusal of a grid too fine for one step law, and the chaining of a fine
grid over only the indices its jumps reach."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    FddSpec,
    GroundGrid,
    IndexedSet,
    close_under_intersection,
    enumerate_consistent_orderings,
    exact_fdd,
)
from setmarkov import construction
from setmarkov.cli import main
from setmarkov.config import load_config
from setmarkov.distributions import (
    PMF_TAIL,
    _panjer,
    compound_poisson_dict,
    grid_step,
    grid_values,
    jump_step,
)
from setmarkov.errors import ConfigError, TableSizeError
from setmarkov.kernels import ck_defect
from setmarkov.lattice import flow_from_ordering

from helpers import (
    ref_compound_poisson_dict,
    ref_increment_pmf,
    ref_initial_pmf,
    ref_panjer,
    ref_step_pmf,
)
from test_step_laws import ORACLE_MEANS

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
FINITE_BENCH = ("compound_lattice3", "compound_staircase", "corrupted_lattice3",
                "empirical10_staircase", "empirical6_staircase", "poisson_lattice4")
# the jump laws of the CI step "Compound poisson with a non-integer jump"
CI_JUMPS = {"half": ((1, 2.5), (0.6, 0.4)), "mixed_sign": ((-1, 0, 2.5), (0.3, 0.2, 0.5)),
            "negative": ((-1, -2), (0.3, 0.7))}


def _ci_spec(jumps):
    grid = GroundGrid((2, 2))
    lattice = close_under_intersection([IndexedSet.from_cells(grid, [0, 1]),
                                        IndexedSet.from_cells(grid, [0, 2])])
    return FddSpec(lattice, CompoundPoissonKernel(CellMeasure(grid, [0.5] * 4), *jumps))


def _specs():
    for name in FINITE_BENCH:
        yield name, load_config(str(CONFIGS / f"{name}.json")).spec
    for name, jumps in CI_JUMPS.items():
        yield f"ci_{name}", _ci_spec(jumps)


def assert_same_pmf(law, want: dict):
    """The atoms of a grid law against a dict pmf: the same values, bit for
    bit, in ascending order, and the same probabilities; a zero atom of the
    dict lies inside the vector with probability 0."""
    atoms = sorted((k, p) for k, p in want.items() if p)
    assert list(law.items()) == atoms and list(law) == [k for k, _ in atoms]
    values = grid_values(np.arange(law.first, law.last + 1), law.step).tolist()
    for k, p in want.items():
        if not p:
            assert law.probs[values.index(k)] == 0.0


@pytest.mark.parametrize("name, spec", list(_specs()), ids=[n for n, _ in _specs()])
def test_grid_laws_are_the_dict_pmfs(name, spec):
    kernel = spec.kernel
    assert_same_pmf(spec.initial_pmf(), ref_initial_pmf(kernel, spec.min_set))
    legs = {(o.prefix_set(i - 1), o.prefix_set(i)) for o in
            enumerate_consistent_orderings(spec.lattice) for i in range(1, len(o))}
    flow = flow_from_ordering(spec.ordering)
    legs |= {(flow.stages[0], flow.stages[-1])}
    states = [kernel.to_state(x) for x in kernel.probe_states()]
    if kernel.kind == "empirical":
        states = list(range(kernel.n + 1))
    for prev, cur in legs:
        for x in states:
            assert_same_pmf(kernel.increment_pmf(prev, cur, x),
                            ref_increment_pmf(kernel, prev, cur, x))
            assert_same_pmf(kernel.step_pmf(prev, cur, x), ref_step_pmf(kernel, prev, cur, x))


def test_grid_steps():
    assert grid_step([1, 2.5]) == 0.5 and grid_step([-1, 0, 2.5]) == 0.5
    assert grid_step([0.1, 0.2]) == pytest.approx(0.1) and grid_step([0.1, 0.2]).denominator == 10
    assert grid_step([-1, -2]) == 1 and grid_step([0]) == 1 and grid_step([3, 6]) == 3
    # a jump of probability 0 is never taken and does not refine the grid
    assert jump_step((1, 0.25), (1.0, 0.0)) == 1
    # values are the canonical keys: 3 * 0.1 is 0.3, not 0.30000000000000004
    assert grid_values(np.arange(4), grid_step([0.1])).tolist() == [0.0, 0.1, 0.2, 0.3]
    assert grid_values(np.array([-3, 5]), grid_step([2.5])).tolist() == [-7.5, 12.5]


@pytest.mark.parametrize("jumps", sorted(ORACLE_MEANS), ids=str)
def test_panjer_on_the_grid_is_the_heap_recursion(jumps):
    values, probs = jumps
    for mean in ORACLE_MEANS[jumps] + (1000.0,) * (max(values) == 2):
        want = ref_compound_poisson_dict(mean, values, probs)
        got = compound_poisson_dict(mean, values, probs)
        assert_same_pmf(got, want)
        # one side alone: the recursion, its cut and its rescaling
        rates = {abs(v): mean * p for v, p in zip(values, probs) if v}
        if len(rates) > 1:
            (side,) = _panjer({v: np.array([r]) for v, r in rates.items()},
                              np.array([math.fsum(rates.values())]), PMF_TAIL, grid_step(rates))
            assert_same_pmf(side, ref_panjer(rates, math.fsum(rates.values()), PMF_TAIL))


def _refused_count(spec, monkeypatch, cap) -> int:
    with monkeypatch.context() as m:
        m.setattr(construction, "TABLE_CAP", cap)
        with pytest.raises(TableSizeError, match=rf"^joint table exceeds {cap} entries: "
                                                 r"it needs (\d+) rows$") as err:
            exact_fdd(spec)
    return int(str(err.value).rsplit(" ", 2)[-2])


@pytest.mark.parametrize("name", ["compound_lattice3", "empirical6_staircase",
                                  "corrupted_lattice3", "ci_mixed_sign"])
def test_a_refused_table_states_the_rows_it_needs(name, monkeypatch):
    spec = dict(_specs())[name]
    rows = len(exact_fdd(spec).probs)  # the brute-force count: the table itself
    for cap in (1, rows // 7, rows - 1):
        assert _refused_count(spec, monkeypatch, cap) == rows


def test_the_compound_staircase_needs_31_to_the_6_rows(monkeypatch):
    spec = load_config(str(CONFIGS / "compound_staircase.json")).spec
    with pytest.raises(TableSizeError, match=rf"it needs {31**6} rows$"):
        exact_fdd(spec)


def test_a_grid_too_fine_for_one_step_law_exits_2(tmp_path, capsys):
    cfg = {"grid": {"extents": [2, 2]},
           "semilattice": {"cell_lists": [[0, 1], [0, 2]]},
           "process": {"kind": "compound_poisson", "measure": {"constant": 0.5},
                       "jumps": {"values": [1, 1e-7], "probs": [0.5, 0.5]}}}
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(cfg))
    for command, extra in (("sample", ["--n", "10"]), ("fdd", []), ("validate", [])):
        out = tmp_path / f"{command}.out"
        assert main([command, "--config", str(path), *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a step law on the value grid of step 1e-07 needs ")
        assert err.rstrip().endswith("grid points, more than 10000000")
        assert "Traceback" not in err
        # sample removes the file it opened when a draw raises
        assert not out.exists()


def test_a_fine_grid_chains_only_the_indices_its_jumps_reach(tmp_path):
    # jumps {1, 1.001} sit on the grid of step 0.001: the first step law
    # spans 12,013 grid points and reaches 91 of them
    spec = _ci_spec(((1, 1.001), (0.6, 0.4)))
    kernel = spec.kernel
    B, B1, B2 = (spec.ordering.prefix_set(i) for i in range(3))
    assert ck_defect(kernel, B, B1, B2, kernel.probe_states()).defect < 1e-12
    legs = [got[1] for key, got in kernel._pmfs.items() if key[0] == "rows"]
    assert len(legs) == 3
    assert all(rows.shape[1] < 400 for rows in legs)
    path = tmp_path / "fine.json"
    path.write_text(json.dumps({
        "grid": {"extents": [2, 2]}, "semilattice": {"cell_lists": [[0, 1], [0, 2]]},
        "process": {"kind": "compound_poisson", "measure": {"constant": 0.5},
                    "jumps": {"values": [1, 1.001], "probs": [0.6, 0.4]}}}))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "v.json")]) == 0


def test_an_initial_state_off_the_value_grid_is_refused():
    spec = _ci_spec(CI_JUMPS["half"])
    on = FddSpec(spec.lattice, spec.kernel, initial={0.5: 0.25, 2.5: 0.75})
    assert sorted(set(exact_fdd(on).keys[:, 0].tolist())) == [0.5, 2.5]
    off = FddSpec(spec.lattice, spec.kernel, initial={0.3: 1.0})
    with pytest.raises(ConfigError, match="not on the value grid of step 0.5"):
        exact_fdd(off)
