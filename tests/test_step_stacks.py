"""The finite kinds build the step laws of a whole leg or Gauss segment in
one call: the stacked poisson tables, tail searches and Panjer walks, the
binomial band and the stacked jump semigroup matrices against their
one-law references of ``helpers``, bit for bit, and the uniforms that
``rng.step_uniforms`` keeps against ``Generator.random``."""

import numpy as np
import pytest
from scipy import stats

from setmarkov import CellMeasure, CompoundPoissonKernel, EmpiricalKernel, GroundGrid, IndexedSet
from setmarkov.distributions import (
    PMF_TAIL,
    _panjer,
    binomial_band,
    binomial_pmf,
    compound_poisson_dict,
    compound_poisson_laws,
    grid_step,
    poisson_laws,
    poisson_pmf,
    poisson_tail_counts,
)
from setmarkov.generators import GAUSS_NODES, JumpFlowSemigroup
from setmarkov.lattice import Trace
from setmarkov.quadrature import gauss_segment
from setmarkov.rng import step_uniforms

from helpers import (
    ref_binomial_probs,
    ref_compound_poisson_dict,
    ref_jump_matrix,
    ref_jump_tail_cut,
    ref_panjer,
    ref_poisson_dict,
    ref_poisson_tail_count,
    ref_step_uniforms,
)

# 0, a tiny mean, means past the left cut (144) and past the lift of
# exp(-mean) into the float range (700), in no particular order
MEANS = (2.0, 0.0, 750.0, 1e-3, 150.5, 0.3, 144.0, 30.0)
GRIDS = {"{1, 2}": ((1, 2), (0.6, 0.4)), "{1, 2.5}": ((1, 2.5), (0.6, 0.4)),
         "{2, 4}": ((2, 4), (0.6, 0.4)), "{0.5, 1.7}": ((0.5, 1.7), (0.6, 0.4))}


def _items(law) -> list:
    return list(law.items())


def test_stacked_tail_counts_are_the_one_mean_search():
    rng = np.random.default_rng(0)
    means = np.concatenate([MEANS, [700.0, 1e6], rng.random(40) * 60, rng.random(8) * 3000])
    for tail in (PMF_TAIL, PMF_TAIL / 2, 0.3, 0.0):
        assert poisson_tail_counts(means, tail).tolist() == \
            [ref_poisson_tail_count(m, tail) for m in means.tolist()]


def test_stacked_poisson_tables_are_stats_poisson_pmf_per_mean():
    laws = poisson_laws(MEANS + (1e4,))
    for mean, law in zip(MEANS + (1e4,), laws):
        assert _items(law) == list(ref_poisson_dict(mean).items()), mean
        assert _items(law) == _items(poisson_pmf(mean))


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_panjer_is_the_heap_recursion_per_mean(name):
    values, probs = GRIDS[name]
    rates = {v: np.array(MEANS) * p for v, p in zip(values, probs)}
    walks = _panjer(rates, np.array(MEANS), PMF_TAIL, grid_step(values))
    laws = compound_poisson_laws(MEANS, values, probs)
    for i, mean in enumerate(MEANS):
        want = ref_panjer({v: mean * p for v, p in zip(values, probs)}, mean, PMF_TAIL)
        assert _items(walks[i]) == list(want.items()), mean
        assert _items(laws[i]) == list(ref_compound_poisson_dict(mean, values, probs).items())
        assert _items(laws[i]) == _items(compound_poisson_dict(mean, values, probs))


@pytest.mark.parametrize("jumps", [((-1, 0, 2.5), (0.3, 0.2, 0.5)), ((-1, -2), (0.3, 0.7)),
                                   ((1,), (1.0,)), ((-2, 0), (0.5, 0.5))])
def test_stacked_signed_and_single_jump_laws_are_the_one_law_route(jumps):
    means = (0.0, 1e-3, 0.3, 2.0, 30.0)
    for mean, law in zip(means, compound_poisson_laws(means, *jumps)):
        assert dict(law) == ref_compound_poisson_dict(mean, *jumps)
        assert _items(law) == _items(compound_poisson_dict(mean, *jumps))


@pytest.mark.parametrize("p", [0.0, 1.0, 0.3])
def test_binomial_band_is_one_law_per_trial_count(p):
    for n in range(1, 71):
        first, last, band = binomial_band(list(range(n + 1)), p)
        for t in range(n + 1):
            start, probs = ref_binomial_probs(t, p)
            assert (first[t], last[t]) == (start, start + len(probs) - 1)
            assert band[t, :len(probs)].tolist() == probs
            assert not band[t, len(probs):].any()
            pmf = binomial_pmf(t, p)
            assert pmf.values[0] == start and list(pmf.probs) == probs


def test_binomial_band_past_the_direct_trials_is_stats_binom_pmf():
    trials = [3, 1500, 40, 1001, 2600]
    first, last, band = binomial_band(trials, 0.3)
    for t, a, b, row in zip(trials, first, last, band):
        start, probs = ref_binomial_probs(t, 0.3)
        assert (a, b) == (start, start + len(probs) - 1)
        assert row[:len(probs)].tolist() == probs and not row[len(probs):].any()
    assert band[1, :last[1] - first[1] + 1].tolist() == \
        stats.binom.pmf(np.arange(first[1], last[1] + 1), 1500, 0.3).tolist()


@pytest.mark.parametrize("n", [1, 2, 7, 30, 70])
def test_empirical_step_rows_are_the_binomial_law_per_start_count(n):
    grid = GroundGrid((2, 2))
    kernel = EmpiricalKernel(n, CellMeasure(grid, [0.3, 0.2, 0.5, 0.0], "probability"))
    empty, one, massless, full = (IndexedSet.from_cells(grid, c)
                                  for c in ([], [0], [0, 3], [0, 1, 2, 3]))
    # success probabilities 0.3, 0 (a step over a cell of no mass) and 1
    for (B, B2), p in (((empty, one), 0.3), ((one, massless), 0.0), ((massless, full), 1.0)):
        assert kernel.success_probability(B, B2) == p
        index = np.arange(n + 1)
        columns, rows = kernel.step_rows(B, B2, index)
        for i, row in zip(index.tolist(), rows):
            start, probs = ref_binomial_probs(n - i, p)
            want = {i + start + k: q for k, q in enumerate(probs) if q}
            assert dict(zip(columns[row != 0].tolist(), row[row != 0].tolist())) == want
            law = kernel.increment_pmf(B, B2, i)
            assert (law.first, law.probs.tolist()) == (start, probs)


def test_a_stacked_memo_fill_keeps_each_value_under_its_key():
    # another thread stores one of the missing means while the stack is
    # built: every other mean still gets its own table
    kernel = CompoundPoissonKernel(CellMeasure(GroundGrid((1, 1)), [1.0]), (1, 2), (0.6, 0.4))
    means = [0.3, 1.0, 2.0]
    raced = compound_poisson_dict(1.0, (1, 2), (0.6, 0.4))

    def build(keys):
        kernel._pmfs.setdefault(("mean", 1.0), raced)
        return kernel._pmfs_of_means([m for _, m in keys])

    laws = kernel._memo_all([("mean", m) for m in means], build)
    assert laws[1] is raced
    for mean, law in zip(means, laws):
        assert _items(law) == _items(compound_poisson_dict(mean, (1, 2), (0.6, 0.4)))


def _semigroup(values, probs, trace):
    kernel = CompoundPoissonKernel(CellMeasure(GroundGrid((1, 1)), [1.0]), values, probs)
    return JumpFlowSemigroup(trace, kernel._mean_pmfs, kernel.index_of(values), probs,
                             start_mass_cap=2)


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_jump_matrices_are_the_per_node_loop(name):
    values, probs = GRIDS[name]
    trace = Trace([0.0, 1.0, 2.0], [0.0, 0.4, 1.0])
    system = _semigroup(values, probs, trace)
    cut = 0.0
    for a, b, t in ((0.0, 1.0, 1.0), (0.0, 1.0, 2.0), (1.0, 2.0, 2.0)):
        nodes, _ = gauss_segment(a, b, GAUSS_NODES)
        stack = system.matrices(nodes, t)
        assert stack.shape == (GAUSS_NODES, system.cap + 1, system.cap + 1)
        for s, M in zip(nodes.tolist(), stack):
            assert np.array_equal(M, ref_jump_matrix(system, s, t))
            assert np.array_equal(M, _semigroup(values, probs, trace).matrix(s, t))
        cut = max(cut, ref_jump_tail_cut(system, nodes.tolist(), t))
        assert system.tail_cut == cut
    assert 0.0 < system.tail_cut <= PMF_TAIL


@pytest.mark.parametrize("start", [0, 1, 12345])
@pytest.mark.parametrize("count", [0, 1, 20_000])
def test_step_uniforms_are_the_generator_random_doubles(start, count):
    got = step_uniforms(7, 3, start, count)
    want = ref_step_uniforms(7, 3, start, count)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
