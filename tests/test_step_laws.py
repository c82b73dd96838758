"""Finite-state step laws: each computed once per kernel instance, chained as
dense rows, and equal to the dict-by-dict references of ``helpers``."""

import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    EmpiricalKernel,
    FddSpec,
    IndexedSet,
    PoissonIncrementKernel,
    ck_defect,
    compose_kernels,
    enumerate_consistent_orderings,
)
from setmarkov.cli import main
from setmarkov.config import load_config
from setmarkov.construction import MixtureSpec
from setmarkov.distributions import (
    compound_poisson_dict,
    poisson_laws,
    poisson_pmf,
    poisson_tail_count,
)
from setmarkov.errors import ConfigError
from setmarkov.generators import (
    JumpFlowSemigroup,
    permutation_identity_check,
    system_along_flow,
)
from setmarkov.kernels import PMF_TAIL, chain_rows, rows_tv
from setmarkov.lattice import DiscreteFlow, Trace, flow_from_ordering
from setmarkov.quadrature import gauss_segment
from setmarkov.verify import flow_matching_defect

from helpers import (
    ref_chain_pmf,
    ref_ck_defect,
    ref_flow_matching_defect,
    ref_jump_generator_matrix,
    ref_jump_matrix,
)
from test_oracles import oracle_column

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
JUMPS = {"integer": ((1, 2), (0.6, 0.4)), "half": ((1, 2.5), (0.6, 0.4))}


def _specs(lattice3, grid2):
    skewed = CellMeasure(grid2, [0.4, 0.3, 0.2, 0.1], "probability")
    uniform = CellMeasure.uniform_probability(grid2)
    lam = CellMeasure(grid2, [0.5, 1.0, 1.5, 2.0])
    return {
        "empirical": FddSpec(lattice3, EmpiricalKernel(3, skewed)),
        "corrupted": FddSpec(lattice3, EmpiricalKernel(2, uniform, corrupted=True)),
        "poisson": FddSpec(lattice3, PoissonIncrementKernel(lam)),
        "compound_integer": FddSpec(lattice3, CompoundPoissonKernel(lam, *JUMPS["integer"])),
        "compound_half": FddSpec(lattice3, CompoundPoissonKernel(lam, *JUMPS["half"])),
        "mixture": MixtureSpec((FddSpec(lattice3, EmpiricalKernel(2, uniform)),
                                FddSpec(lattice3, EmpiricalKernel(2, skewed))), (0.4, 0.6)),
    }


def _kernels(spec):
    return [c.kernel for c in spec.components] if isinstance(spec, MixtureSpec) \
        else [spec.kernel]


def _prefix_triples(lattice):
    seen = set()
    for o in enumerate_consistent_orderings(lattice):
        n = len(o)
        for i, j, k in itertools.combinations_with_replacement(range(n), 3):
            key = (o.prefix_masks[i], o.prefix_masks[j], o.prefix_masks[k])
            if key not in seen:
                seen.add(key)
                yield o.prefix_set(i), o.prefix_set(j), o.prefix_set(k)


def test_poisson_pmf_is_stats_poisson_pmf_bit_for_bit():
    for mean in np.geomspace(1e-6, 50.0, 400).tolist() + [0.1, 0.5, 1.0, 7.25]:
        pmf = poisson_pmf(mean)
        assert list(pmf) == list(range(len(pmf)))
        want = stats.poisson.pmf(np.arange(len(pmf)), mean).tolist()
        assert list(pmf.values()) == want


# 208 geometric means, then means around the left cut (144) and past about
# 745, where exp(-mean) underflows a float
UNIT_JUMP_MEANS = np.geomspace(1e-4, 5.0, 208).tolist() + [50.0, 143.9, 144.0, 300.0,
                                                             1000.0]


def test_unit_jump_compound_equals_poisson_value_for_value(grid2):
    empty, cell = IndexedSet(grid2, 0), IndexedSet.from_cells(grid2, [0])
    for mean in UNIT_JUMP_MEANS:
        lam = CellMeasure(grid2, [mean, 0.0, 0.0, 0.0])
        poisson = PoissonIncrementKernel(lam).increment_pmf(empty, cell)
        compound = CompoundPoissonKernel(lam, (1,), (1.0,)).increment_pmf(empty, cell)
        assert list(compound) == [float(k) for k in poisson], mean
        assert list(compound.values()) == list(poisson.values()), mean


def test_compound_table_past_the_exp_underflow_keeps_its_mass():
    # exp(-800) is 0.0 in floats; the log-space count weights are not
    pmf = compound_poisson_dict(800.0, (1, 2), (0.5, 0.5))
    assert abs(sum(pmf.values()) - 1.0) <= 1e-12
    assert abs(max(pmf, key=pmf.get) - 1200.0) <= 0.02 * 1200.0


# the oracle convolves every power of the jump law, so the wider laws stop
# at lower means; the mixed law has a zero and a negative jump
MIXED = ((-1, 0, 2.5), (0.3, 0.2, 0.5))
NEGATIVE = ((-1, -2), (0.3, 0.7))
ORACLE_MEANS = {JUMPS["integer"]: (1e-3, 0.02, 0.3, 2.0, 5.5, 30.0, 150.0, 800.0),
                JUMPS["half"]: (1e-3, 0.02, 0.3, 2.0, 5.5, 30.0, 150.0),
                NEGATIVE: (1e-3, 0.02, 0.3, 2.0, 5.5, 30.0, 150.0),
                MIXED: (1e-3, 0.02, 0.3, 2.0, 5.5, 30.0)}


def assert_matches_the_oracle(got, mean, values, probs):
    """A compound table against ``oracle_column``: at most ``PMF_TAIL`` of
    its mass is left out.  For positive jumps, Panjer's recursion is exact
    up to rounding on every value it reaches, and the oracle on every value
    of up to mean + 12 sqrt(mean) + 29 jumps: so on every atom of at most K
    smallest jumps (K the count cut) the two agree within a relative 4e-15
    (1 + mean), the scale of the rounding of stats.poisson.pmf's log-space
    weights.  Only atoms below the table's left cut, of mass under 1e-30,
    are missing there.  A law of negative jumps only is checked as its mirror
    image; a law of both signs cuts each side on its own, so it is held to a
    TV distance of ``PMF_TAIL``."""
    assert 1.0 - math.fsum(got.values()) <= PMF_TAIL
    if max(values) < 0:
        got, values = {-x: p for x, p in got.items()}, [-v for v in values]
    want = oracle_column(mean, values, probs)
    got = {round(x, 9): p for x, p in got.items()}
    if min(values) < 0:
        assert 0.5 * math.fsum(abs(got.get(x, 0.0) - want.get(x, 0.0))
                               for x in set(got) | set(want)) <= PMF_TAIL
        return
    edge = poisson_tail_count(mean, PMF_TAIL) * min(values)
    assert {x for x in got if x <= edge} <= set(want)
    for x, w in want.items():
        if x <= edge:
            assert abs(got.get(x, 0.0) - w) <= 4e-15 * (1.0 + mean) * w or \
                (x not in got and w < 1e-30), (mean, x)


def test_compound_kernel_pmf_of_mean_is_the_reference(grid2):
    # one mean at a time; all the means of a jump law in one stack hold the
    # same bits
    for (values, probs), means in ORACLE_MEANS.items():
        k = CompoundPoissonKernel(CellMeasure(grid2, [0.4] * 4), values, probs)
        stacked = CompoundPoissonKernel(k.lam, values, probs)._mean_pmfs(means)
        for mean, law in zip(means, stacked):
            assert_matches_the_oracle(k._mean_pmf(mean), mean, values, probs)
            assert list(law.items()) == list(k._mean_pmf(mean).items())


def test_compound_table_at_a_mean_of_800_is_fast():
    # Panjer's recursion costs O(atoms x jumps); the former power loop took
    # about 1.5 s here.  Best of 5, with room for a slow host
    times = []
    for _ in range(5):
        start = time.perf_counter()
        compound_poisson_dict(800.0, (1, 2), (0.5, 0.5))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.25


def _jump_systems():
    unit = Trace([0.0, 1.0, 2.0], [0.0, 0.75, 2.0])
    yield JumpFlowSemigroup(unit, poisson_laws, start_mass_cap=3)
    for name in ("poisson_lattice4", "compound_lattice3", "compound_staircase"):
        spec = load_config(str(CONFIGS / f"{name}.json")).spec
        yield system_along_flow(spec.kernel, flow_from_ordering(spec.ordering))
    # jumps {2, 4} on the compound staircase sit on the grid of step 2:
    # jump indices 1 and 2
    even = CompoundPoissonKernel(spec.kernel.lam, (2, 4), (0.6, 0.4))
    yield system_along_flow(even, flow_from_ordering(spec.ordering))


def test_scattered_jump_matrices_equal_the_per_atom_fill():
    for system in _jump_systems():
        times = list(system.trace.times)
        nodes, _ = gauss_segment(times[0], times[-1], 7)
        points = times + nodes.tolist()
        cuts = [0.0]
        for s, t in itertools.combinations_with_replacement(sorted(points), 2):
            assert np.array_equal(system.matrix(s, t), ref_jump_matrix(system, s, t))
            for side in "+-":
                assert np.array_equal(system.generator_matrix(s, side),
                                      ref_jump_generator_matrix(system, s, side))
            (law,) = system.step_laws([max(system.trace(t) - system.trace(s), 0.0)])
            cuts.append(1.0 - math.fsum(law.values()))
        # 1 minus a float sum: within a few units of 1.0's last place
        assert system.tail_cut == pytest.approx(max(cuts), abs=5e-16)
        assert 0.0 < system.tail_cut <= PMF_TAIL


def test_a_jump_semigroup_runs_on_grid_indices():
    # jumps {2, 4}: grid step 2, so the states and jumps are halved values
    *_, even = _jump_systems()
    (law,) = even.step_laws([even.trace(1.0) - even.trace(0.0)])
    assert law.step == 2 and even.jumps == (1, 2)
    assert np.array_equal(even.matrix(0.0, 1.0)[0, law.first: law.last + 1], law.probs)


@pytest.mark.parametrize("jumps, kept, indices", [
    # jumps {4, 5} with probabilities {1, 0} sit on the grid of step 4, where
    # the 5 would round onto the index of the 4 and take its rate
    (((4, 5), (1.0, 0.0)), ((4,), (1.0,)), (1,)),
    # an off-grid jump of probability 0 is left out the same way
    (((1, 2, 2.5), (0.5, 0.5, 0.0)), ((1, 2), (0.5, 0.5)), (1, 2)),
    (((2, 2.6), (1.0, 0.0)), ((2,), (1.0,)), (1,)),
])
def test_a_jump_of_probability_0_takes_no_grid_index(jumps, kept, indices):
    spec = load_config(str(CONFIGS / "compound_staircase.json")).spec
    flow = flow_from_ordering(spec.ordering)
    lam = spec.kernel.lam
    left = system_along_flow(CompoundPoissonKernel(lam, *jumps), flow)
    alone = system_along_flow(CompoundPoissonKernel(lam, *kept), flow)
    assert left.jumps == alone.jumps == indices and left.cap == alone.cap
    for s in (0.0, 0.5):
        assert np.array_equal(left.generator_matrix(s), alone.generator_matrix(s))
        assert np.array_equal(left.matrix(s, 1.0), alone.matrix(s, 1.0))


@pytest.mark.parametrize("values", [(-1, 2), (0, 2.5), (1, -0.5)])
def test_a_jump_at_or_below_0_is_refused(values):
    spec = load_config(str(CONFIGS / "compound_staircase.json")).spec
    kernel = CompoundPoissonKernel(spec.kernel.lam, values, (0.5, 0.5))
    with pytest.raises(ConfigError, match="flow semigroup needs positive jumps"):
        system_along_flow(kernel, flow_from_ordering(spec.ordering))


def test_equal_jump_indices_add_their_rates():
    unit = Trace([0.0, 1.0], [0.0, 1.0])
    split = JumpFlowSemigroup(unit, poisson_laws, (1, 1), (0.5, 0.5))
    whole = JumpFlowSemigroup(unit, poisson_laws, (1,), (1.0,))
    assert np.array_equal(split.generator_matrix(0.5), whole.generator_matrix(0.5))


@pytest.mark.parametrize("name", ["empirical", "corrupted", "poisson", "compound_integer",
                                  "compound_half", "mixture"])
def test_dense_ck_defect_matches_the_dict_chain(lattice3, grid2, name):
    spec = _specs(lattice3, grid2)[name]
    for kernel in _kernels(spec):
        states = kernel.probe_states()
        for B, B1, B2 in _prefix_triples(lattice3):
            got = ck_defect(kernel, B, B1, B2, states).defect
            want = ref_ck_defect(kernel, B, B1, B2, states)
            if name == "corrupted":
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-15)
                assert got <= 1e-12


def test_corrupted_kernel_keeps_its_defect(grid2):
    k = EmpiricalKernel(2, CellMeasure.uniform_probability(grid2), corrupted=True)
    B, B1, B2 = (IndexedSet.from_cells(grid2, c) for c in ([0], [0, 1], [0, 1, 2]))
    states = [0.0, 0.5, 1.0]
    got = ck_defect(k, B, B1, B2, states).defect
    assert got == ref_ck_defect(k, B, B1, B2, states)
    assert got > 0.01


@pytest.mark.parametrize("name", ["empirical", "poisson", "compound_integer",
                                  "compound_half"])
def test_chain_rows_and_flow_matching_match_the_dict_chain(lattice3, grid2, name):
    spec = _specs(lattice3, grid2)[name]
    kernel = spec.kernel
    flow = flow_from_ordering(spec.ordering)
    coarse = DiscreteFlow((flow.times[0], flow.times[-1]),
                          (flow.stages[0], flow.stages[-1]))
    states = [kernel.to_state(x) for x in kernel.probe_states()]
    columns, rows = chain_rows(kernel, flow.stages, states)
    assert rows.shape[0] == len(states)
    support = kernel.values(columns).tolist()
    for x, row in zip(states, rows):
        want = ref_chain_pmf(kernel, flow.stages, x)
        got = dict(zip(support, row.tolist()))
        assert set(want) <= set(got)
        assert max(abs(got[z] - want.get(z, 0.0)) for z in got) <= 1e-15
    got = flow_matching_defect(kernel, coarse, (0, 1), flow, (0, len(flow.stages) - 1),
                               states)
    want = ref_flow_matching_defect(kernel, coarse.stages, flow.stages, states)
    assert got == pytest.approx(want, abs=1e-15)
    # compose_kernels normalises the same dense row
    B, B1, B2 = flow.stages[0], flow.stages[1], flow.stages[-1]
    law = compose_kernels(kernel, B, B1, B2, kernel.probe_states()[1])
    want = ref_chain_pmf(kernel, (B, B1, B2), states[1])
    total = sum(want.values())
    assert law.values == tuple(sorted(kernel.display(v) for v in want))
    assert max(abs(p - want[z] / total) for z, p in zip(sorted(want), law.probs)) <= 1e-15


def test_no_leg_moves_gives_one_hot_rows(grid2):
    k = EmpiricalKernel(2, CellMeasure.uniform_probability(grid2))
    B = IndexedSet.from_cells(grid2, [0])
    columns, rows = chain_rows(k, (B, B), [1, 0, 1])
    assert columns.tolist() == [0, 1]
    assert rows.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_rows_tv_aligns_supports_by_value():
    # (grid indices, rows): the two laws are aligned by index
    a = (np.arange(0, 2), np.array([[0.5, 0.5], [1.0, 0.0]]))
    b = (np.arange(1, 3), np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert rows_tv(a, b).tolist() == [0.5, 1.0]
    assert rows_tv(b, a).tolist() == [0.5, 1.0]
    assert rows_tv(a, a).tolist() == [0.0, 0.0]
    # a range that holds zeros past the other's is the same law
    c = (np.arange(-1, 3), np.array([[0.0, 0.5, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]]))
    assert rows_tv(a, c).tolist() == [0.0, 0.0]
    # indices that meet only in part
    d = (np.array([3]), np.array([[1.0], [1.0]]))
    assert rows_tv(b, d).tolist() == [1.0, 1.0]
    # indices that are not one range: only the listed ones hold mass
    e = (np.array([0, 1000]), np.array([[0.5, 0.5], [1.0, 0.0]]))
    f = (np.array([1, 1000, 2000]), np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]))
    assert rows_tv(e, f).tolist() == [0.5, 1.0]
    assert rows_tv(e, (np.arange(0, 2), a[1])).tolist() == [0.5, 0.0]


def _twin(kernel):
    return dataclasses.replace(kernel)


@pytest.mark.parametrize("name", ["empirical", "poisson", "compound_integer",
                                  "compound_half"])
def test_a_fresh_kernel_and_a_warmed_one_give_identical_laws(lattice3, grid2, name):
    warm = _specs(lattice3, grid2)[name].kernel
    states = [warm.to_state(x) for x in warm.probe_states()]
    triples = list(_prefix_triples(lattice3))
    for B, B1, B2 in triples:
        ck_defect(warm, B, B1, B2, warm.probe_states())
    assert warm._pmfs
    for B, _, B2 in triples:
        fresh = _twin(warm)
        assert not fresh._pmfs
        for x in states:
            got, want = fresh.step_pmf(B, B2, x), warm.step_pmf(B, B2, x)
            assert list(got.items()) == list(want.items())
            assert list(fresh.increment_pmf(B, B2, x).items()) == \
                list(warm.increment_pmf(B, B2, x).items())
        # each set of start indices has its own rows, one per index
        index = [warm.index_of(x) for x in states]
        for first in range(min(index), max(index) + 1):
            starts = np.arange(first, max(index) + 1)
            (c1, r1), (c2, r2) = fresh.step_rows(B, B2, starts), \
                warm.step_rows(B, B2, starts)
            assert np.array_equal(c1, c2) and np.array_equal(r1, r2)
            assert not r2.flags.writeable
            values = warm.values(c2).tolist()
            for i, row in zip(starts.tolist(), r2.tolist()):
                want = fresh.step_pmf(B, B2, warm.values(i))
                assert {z: p for z, p in zip(values, row) if z in want} == dict(want)
                assert not any(p for z, p in zip(values, row) if z not in want)


def test_compound_kernels_with_other_jump_laws_share_no_cache_entry(grid2):
    lam = CellMeasure(grid2, [0.4] * 4)
    k1 = CompoundPoissonKernel(lam, *JUMPS["integer"])
    k2 = CompoundPoissonKernel(lam, *JUMPS["half"])
    B, B2 = IndexedSet.from_cells(grid2, [0]), IndexedSet.from_cells(grid2, [0, 1, 2])
    for k in (k1, k2, k1):
        k.step_rows(B, B2, np.arange(2))
        k._mean_pmf(1.5)
    assert set(k1._pmfs) == set(k2._pmfs)
    for key in k1._pmfs:
        assert k1._pmfs[key] is not k2._pmfs[key]
    assert 3.5 in k2._mean_pmf(1.5) and 3.5 not in k1._mean_pmf(1.5)
    for k, (values, probs) in ((k1, JUMPS["integer"]), (k2, JUMPS["half"])):
        assert_matches_the_oracle(k._mean_pmf(1.5), 1.5, values, probs)


def test_threads_share_one_kernel_s_tables_safely(grid2):
    # sample --workers runs one kernel's pmfs in several threads: every
    # thread must read the table a single thread builds
    values, probs = JUMPS["half"]
    k = CompoundPoissonKernel(CellMeasure(grid2, [0.4] * 4), values, probs)
    means = np.geomspace(0.05, 6.0, 12).tolist()
    want = {m: list(compound_poisson_dict(m, values, probs).items()) for m in means}
    bad = []

    def work(order):
        for m in order:
            if list(k._mean_pmf(m).items()) != want[m]:
                bad.append(m)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(means[i % 2::2] + means[::-1],))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


@pytest.mark.parametrize("name", ["poisson_lattice4", "compound_lattice3"])
def test_permutation_rows_state_the_tail_cut(tmp_path, name):
    config = str(CONFIGS / f"{name}.json")
    spec = load_config(config).spec
    orders = enumerate_consistent_orderings(spec.lattice)
    out = tmp_path / "report.json"
    assert main(["validate", "--config", config, "--out", str(out)]) == 0
    rows = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for level in (2, 3):
        for suffix in ("", "_generator"):
            row = rows[f"permutation_identity_{level}{suffix}"]
            i, j = map(int, re.match(r"orderings (\d+) and (\d+)", row["instance"]).groups())
            r = permutation_identity_check(spec, orders[i], orders[j], level)
            assert 0.0 < r.tail_cut <= PMF_TAIL
            assert f", largest tail mass cut from a step law {r.tail_cut:.1e}, " \
                in row["instance"]
            assert row["pass"]


def test_empirical_permutation_rows_have_no_tail_cut(empirical_spec3, orderings3):
    r = permutation_identity_check(empirical_spec3, orderings3[0], orderings3[1], 2)
    assert r.tail_cut is None
