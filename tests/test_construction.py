import itertools

import numpy as np
import pytest

from setmarkov import (
    CellMeasure,
    DirichletKernel,
    EmpiricalKernel,
    FddSpec,
    GaussianIncrementKernel,
    IndexedSet,
    MixtureSpec,
    PoissonIncrementKernel,
    close_under_intersection,
    evaluate_on_algebra,
    exact_fdd,
    joint_over_increments,
    sample_fdd,
    sample_increments,
)
from setmarkov import construction
from setmarkov.distributions import binomial_pmf, tv_distance
from setmarkov.errors import ConfigError, DecompositionError, UnsupportedKernelError
from setmarkov.grid import measure_of

from helpers import place_points_joint


def cells(g, *idx):
    return IndexedSet.from_cells(g, idx)


class TestExactFdd:
    def test_single_point_uniform(self, lattice3, uniform2, orderings3):
        # one point placed uniformly over 4 cells, read off the indicators
        for o in orderings3:
            spec = FddSpec(lattice3, EmpiricalKernel(1, uniform2), o)
            law = exact_fdd(spec)
            lefts = {c.cells()[0]: i for i, c in enumerate(spec.lefts.sets)}
            want = {}
            for cell in range(4):
                key = [0, 0, 0]
                if cell in lefts:
                    key[lefts[cell]] = 1
                want[tuple(key)] = want.get(tuple(key), 0.0) + 0.25
            assert tv_distance(law.table, want) < 1e-15

    def test_single_set_lattice_is_initial_law(self, grid2, uniform2):
        lat = close_under_intersection([cells(grid2, 0)])
        spec = FddSpec(lat, EmpiricalKernel(2, uniform2))
        law = exact_fdd(spec)
        want = {(k,): p for k, p in binomial_pmf(2, 0.25).as_dict().items()}
        assert tv_distance(law.table, want) < 1e-15

    def test_two_points_match_placement_enumeration(self, lattice3, uniform2):
        # oracle: enumerate all 4^2 placements of two iid points
        spec = FddSpec(lattice3, EmpiricalKernel(2, uniform2))
        law = exact_fdd(spec)
        regions = [{0}, {1}, {2}]
        want = place_points_joint([0.25] * 4, regions, 2)
        assert tv_distance(law.table, want) < 1e-14

    def test_skewed_measure_against_enumeration(self, grid2):
        F = CellMeasure(grid2, [0.4, 0.3, 0.2, 0.1], "probability")
        lat = close_under_intersection([cells(grid2, 0, 1), cells(grid2, 0, 2)])
        spec = FddSpec(lat, EmpiricalKernel(3, F))
        law = exact_fdd(spec)
        want = place_points_joint([0.4, 0.3, 0.2, 0.1], [{0}, {1}, {2}], 3)
        assert tv_distance(law.table, want) < 1e-14

    def test_continuous_kind_rejected(self, lattice3, grid2):
        lam = CellMeasure.counting(grid2)
        with pytest.raises(UnsupportedKernelError):
            exact_fdd(FddSpec(lattice3, GaussianIncrementKernel(lam)))

    def test_prefix_marginal_equals_kernel_pushforward(self, lattice3, uniform2):
        spec = FddSpec(lattice3, EmpiricalKernel(3, uniform2))
        law = exact_fdd(spec)
        ordering = spec.ordering
        for i in range(len(ordering)):
            prefix = ordering.prefix_set(i)
            got: dict = {}
            for key, p in law.table.items():
                s = sum(key[: i + 1])
                got[s] = got.get(s, 0.0) + p
            want = binomial_pmf(3, measure_of(uniform2, prefix)).as_dict()
            assert tv_distance(got, want) < 1e-13

    def test_poisson_exact_table(self, lattice3, grid2):
        lam = CellMeasure(grid2, [0.5, 0.25, 0.25, 0.5])
        spec = FddSpec(lattice3, PoissonIncrementKernel(lam))
        law = exact_fdd(spec)
        total = sum(law.table.values())
        assert abs(total - 1.0) < 1e-10
        marg: dict = {}
        for key, p in law.table.items():
            marg[key[1]] = marg.get(key[1], 0.0) + p
        from scipy import stats
        for j in (0, 1, 2, 3):
            assert marg.get(j, 0.0) == pytest.approx(stats.poisson.pmf(j, 0.25),
                                                     abs=1e-10)


class TestKolmogorovConsistency:
    def test_permuting_tuple_permutes_law(self, empirical_spec3):
        lefts = empirical_spec3.lefts.sets
        law_ab = joint_over_increments(empirical_spec3, [lefts[1], lefts[2]])
        law_ba = joint_over_increments(empirical_spec3, [lefts[2], lefts[1]])
        flipped = {(b, a): p for (a, b), p in law_ba.table.items()}
        assert tv_distance(law_ab.table, flipped) < 1e-15

    def test_marginalizing_appended_set_recovers_law(self, empirical_spec3):
        lefts = empirical_spec3.lefts.sets
        law_a = joint_over_increments(empirical_spec3, [lefts[1]])
        law_ax = joint_over_increments(empirical_spec3, [lefts[1], lefts[2]])
        marg: dict = {}
        for (a, _b), p in law_ax.table.items():
            marg[(a,)] = marg.get((a,), 0.0) + p
        assert tv_distance(law_a.table, marg) < 1e-15


class TestJointOverIncrements:
    def test_identity_pushforward(self, empirical_spec3):
        lefts = empirical_spec3.lefts.sets
        law = joint_over_increments(empirical_spec3, list(lefts))
        base = exact_fdd(empirical_spec3)
        assert tv_distance(law.table, base.table) < 1e-15

    def test_union_of_two_neighbourhoods(self, lattice3, uniform2, grid2):
        spec = FddSpec(lattice3, EmpiricalKernel(1, uniform2))
        target = cells(grid2, 1, 2)
        law = joint_over_increments(spec, [target]).scalar_dict()
        assert law[0] == pytest.approx(0.5, abs=1e-15)
        assert law[1] == pytest.approx(0.5, abs=1e-15)

    def test_representation_independent(self, lattice6, uniform4):
        # the same union assembled from different members gives the same law
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4))
        m = lattice6.members
        u1 = m[1] | m[3]
        u2 = m[1] | m[3] | m[0]
        assert u1.mask == u2.mask
        l1 = joint_over_increments(spec, [u1]).scalar_dict()
        l2 = joint_over_increments(spec, [u2]).scalar_dict()
        assert tv_distance(l1, l2) < 1e-12

    def test_inexpressible_target_rejected(self, empirical_spec3, grid2):
        with pytest.raises(DecompositionError):
            joint_over_increments(empirical_spec3, [cells(grid2, 3)])

    def test_same_increment_set_across_lattices(self, grid2, uniform2, lattice3):
        # the law of one increment set does not depend on which enclosing
        # lattice (hence which representation) it is decomposed over
        target = cells(grid2, 1, 2)
        kern = EmpiricalKernel(2, uniform2)
        bigger = close_under_intersection([
            cells(grid2, 0, 1), cells(grid2, 0, 2), cells(grid2, 0, 1, 2)])
        law_small = joint_over_increments(FddSpec(lattice3, kern), [target])
        law_big = joint_over_increments(FddSpec(bigger, kern), [target])
        assert tv_distance(law_small.scalar_dict(), law_big.scalar_dict()) < 1e-12


class TestTableCap:
    def test_exact_fdd_respects_entry_cap(self, lattice3, uniform2, monkeypatch):
        from setmarkov.errors import TableSizeError
        monkeypatch.setattr(construction, "TABLE_CAP", 3)
        spec = FddSpec(lattice3, EmpiricalKernel(3, uniform2))
        with pytest.raises(TableSizeError, match="exceeds 3 entries"):
            exact_fdd(spec)


class TestInitialOverride:
    def test_point_mass_start(self, lattice3, uniform2):
        spec = FddSpec(lattice3, EmpiricalKernel(2, uniform2), initial={2: 1.0})
        law = exact_fdd(spec)
        assert all(key[0] == 2 for key in law.table)
        # both points already placed: no mass left for later cells
        assert law.table[(2, 0, 0)] == pytest.approx(1.0)
        arr = sample_increments(spec, 3, 100)
        assert np.all(arr[:, 0] == 2) and np.all(arr[:, 1:] == 0)


    def test_continuous_kinds_reject_an_initial_pmf(self, lattice3, grid2):
        # the sampler would otherwise draw from the kernel's own initial law
        lam = CellMeasure(grid2, [0.5, 1.0, 1.5, 2.0])
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        for kernel in (GaussianIncrementKernel(lam), DirichletKernel(alpha)):
            with pytest.raises(ConfigError, match="finite-state"):
                FddSpec(lattice3, kernel, initial={5.0: 1.0})


class TestSampling:
    def test_deterministic_given_seed_and_count(self, empirical_spec3):
        a = sample_increments(empirical_spec3, 99, 50)
        b = sample_increments(empirical_spec3, 99, 50)
        assert np.array_equal(a, b)

    def test_slices_agree_with_full_run(self, empirical_spec3):
        full = sample_increments(empirical_spec3, 7, 20)
        head = sample_increments(empirical_spec3, 7, 12)
        tail = sample_increments(empirical_spec3, 7, 8, start=12)
        assert np.array_equal(full, np.vstack([head, tail]))

    def test_zero_mass_cells_give_zero_increments(self, grid2):
        F = CellMeasure(grid2, [1.0, 0.0, 0.0, 0.0], "probability")
        lat = close_under_intersection([cells(grid2, 0, 1), cells(grid2, 0, 2)])
        spec = FddSpec(lat, EmpiricalKernel(2, F))
        arr = sample_increments(spec, 3, 200)
        assert np.all(arr[:, 1:] == 0)
        assert np.all(arr[:, 0] == 2)

    def test_empirical_frequencies_match_exact_fdd(self, empirical_spec3):
        arr = sample_increments(empirical_spec3, 11, 40_000)
        law = exact_fdd(empirical_spec3)
        for key, p in law.table.items():
            freq = np.mean(np.all(arr == np.asarray(key), axis=1))
            assert freq == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / 40_000) + 1e-4)

    def test_gaussian_increment_variance(self, lattice3, grid2):
        lam = CellMeasure.counting(grid2)
        spec = FddSpec(lattice3, GaussianIncrementKernel(lam))
        arr = sample_increments(spec, 5, 100_000)
        var = arr[:, 1].var()
        se = np.sqrt(2.0 / (100_000 - 1))  # relative error of a variance estimate
        assert abs(var - 1.0) < 3 * se

    def test_dirichlet_paths_monotone(self, lattice3, grid2):
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        spec = FddSpec(lattice3, DirichletKernel(alpha))
        arr = sample_increments(spec, 13, 5000)
        assert np.all(arr >= -1e-15)
        assert np.all(arr.sum(axis=1) <= 1.0 + 1e-12)

    def test_mixture_sampling_splits_components(self, lattice3, grid2, uniform2):
        F2 = CellMeasure(grid2, [0.1, 0.4, 0.4, 0.1], "probability")
        mix = MixtureSpec((FddSpec(lattice3, EmpiricalKernel(2, uniform2)),
                           FddSpec(lattice3, EmpiricalKernel(2, F2))), (0.5, 0.5))
        arr = sample_increments(mix, 21, 60_000)
        law = exact_fdd(mix)
        for key in [(0, 0, 0), (2, 0, 0), (0, 1, 1)]:
            freq = np.mean(np.all(arr == np.asarray(key), axis=1))
            assert freq == pytest.approx(law.table.get(key, 0.0), abs=0.01)


class TestProcessSamples:
    def test_disjoint_union_additivity(self, empirical_spec3, grid2):
        samples = sample_fdd(empirical_spec3, 17, 10)
        for s in samples:
            v =  s.value(cells(grid2, 1, 2))
            assert v == s.increments[1] + s.increments[2]

    def test_empty_target_is_zero(self, empirical_spec3, grid2):
        s = sample_fdd(empirical_spec3, 17, 1)[0]
        assert s.value(IndexedSet(grid2, 0)) == 0.0

    def test_inclusion_exclusion(self, lattice6, uniform4):
        spec = FddSpec(lattice6, EmpiricalKernel(3, uniform4))
        samples = sample_fdd(spec, 23, 50)
        members = lattice6.members
        for s in samples:
            for a, b in itertools.combinations(members, 2):
                lhs = s.value(a | b) + s.value(a & b)
                rhs = s.value(a) + s.value(b)
                assert abs(lhs - rhs) < 1e-9

    def test_evaluate_on_algebra_difference(self, empirical_spec3, grid2):
        s = sample_fdd(empirical_spec3, 29, 1)[0]
        v = evaluate_on_algebra(s, [cells(grid2, 0, 1), cells(grid2, 0, 2)],
                                [cells(grid2, 0, 1)])
        assert v == s.increments[2]

    def test_undecomposable_target_names_cells(self, empirical_spec3, grid2):
        s = sample_fdd(empirical_spec3, 31, 1)[0]
        with pytest.raises(DecompositionError, match=r"\[3\]"):
            s.value(cells(grid2, 0, 3))
