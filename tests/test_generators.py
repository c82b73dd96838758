import itertools
from pathlib import Path

import numpy as np
import pytest

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    DirichletKernel,
    EmpiricalKernel,
    FddSpec,
    GaussianIncrementKernel,
    GroundGrid,
    IndexedSet,
    PoissonIncrementKernel,
    enumerate_consistent_orderings,
    flow_from_ordering,
)
from setmarkov.config import load_config
from setmarkov.errors import ConfigError, UnsupportedKernelError
from setmarkov.generators import (
    JACOBI_ORDER,
    DirichletFlowSemigroup,
    EmpiricalFlowSemigroup,
    GaussianFlowSemigroup,
    JumpFlowSemigroup,
    Trace,
    closed_form_generator,
    finite_difference_generator_errors,
    generator_matching_defect,
    integral_identity_residual,
    ordering_slots,
    permutation_identity_check,
    system_along_flow,
)
from setmarkov.kernels import _poisson_pmf
from setmarkov.lattice import DiscreteFlow
from setmarkov.quadrature import hermite, jacobi01, jacobi01_raw
from setmarkov.suite import run_validation_suite

from helpers import (
    pointwise,
    ref_dirichlet_apply,
    ref_dirichlet_apply_generator,
    ref_gaussian_apply,
    ref_gaussian_apply_generator,
    ref_generator_matching_defect,
    ref_permutation_identity_check,
)


@pytest.fixture
def unit_trace():
    return Trace([0.0, 1.0], [0.0, 1.0])


def compound_semigroup(trace, values, probs, start_mass_cap=0):
    """The jump semigroup on ``trace`` with the step law of a compound
    poisson kernel with these jumps."""
    kernel = CompoundPoissonKernel(CellMeasure(GroundGrid((1, 1)), [1.0]), values, probs)
    return JumpFlowSemigroup(trace, kernel._pmf_of_mean, values, probs,
                             start_mass_cap=start_mass_cap)


class TestTrace:
    def test_interpolation_and_slopes(self):
        tr = Trace([0.0, 1.0, 2.0], [0.0, 0.5, 0.6])
        assert tr(0.5) == pytest.approx(0.25)
        assert tr.slope(0.5) == pytest.approx(0.5)
        assert tr.slope(1.0, "+") == pytest.approx(0.1)
        assert tr.slope(1.0, "-") == pytest.approx(0.5)

    def test_breakpoints(self):
        tr = Trace([0.0, 1.0, 2.0], [0.0, 0.5, 0.6])
        assert tr.breakpoints(0.25, 1.75) == [0.25, 1.0, 1.75]

    def test_one_trace_class_for_flows_and_semigroups(self):
        from setmarkov import lattice
        assert Trace is lattice.Trace

    def test_decreasing_rejected(self):
        with pytest.raises(ConfigError):
            Trace([0.0, 1.0], [0.5, 0.2])


class TestEmpiricalSemigroup:
    def test_half_time_application(self, unit_trace):
        sg = EmpiricalFlowSemigroup(1, unit_trace)
        h = np.array([2.0, 10.0])
        out = sg.apply(0.0, 0.5, h)
        assert out[0] == pytest.approx(0.5 * 2.0 + 0.5 * 10.0)

    def test_identity_at_equal_times(self, unit_trace):
        sg = EmpiricalFlowSemigroup(2, unit_trace)
        h = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(sg.apply(0.3, 0.3, h), h)

    def test_semigroup_property(self, unit_trace):
        sg = EmpiricalFlowSemigroup(3, unit_trace)
        M = sg.matrix(0.1, 0.4) @ sg.matrix(0.4, 0.8)
        assert np.max(np.abs(M - sg.matrix(0.1, 0.8))) < 1e-9

    def test_generator_single_point(self, unit_trace):
        sg = EmpiricalFlowSemigroup(1, unit_trace)
        h = np.array([0.0, 1.0])
        g = closed_form_generator(sg, 0.0, h, side="+")
        assert g[0] == pytest.approx(1.0)  # (n-k)(h(k+1)-h(k)) * rate with rate 1
        assert g[1] == 0.0

    def test_rows_stochastic(self, unit_trace):
        sg = EmpiricalFlowSemigroup(3, unit_trace)
        M = sg.matrix(0.2, 0.7)
        assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-10


class TestFiniteDifferenceOrder:
    def test_single_point_exactly_linear(self, unit_trace):
        sg = EmpiricalFlowSemigroup(1, unit_trace)
        errs = finite_difference_generator_errors(sg, 0.0, [1e-2, 5e-3, 2.5e-3],
                                                  np.array([0.0, 1.0]))
        assert max(errs) < 1e-12

    def test_two_points_first_order(self, unit_trace):
        sg = EmpiricalFlowSemigroup(2, unit_trace)
        errs = finite_difference_generator_errors(sg, 0.25, [1e-2, 5e-3, 2.5e-3],
                                                  np.array([1.0, 0.0, 0.0]))
        for a, b in zip(errs, errs[1:]):
            assert 1.5 <= a / b <= 3.0

    def test_poisson_first_order(self, unit_trace):
        sg = JumpFlowSemigroup(unit_trace, _poisson_pmf)
        h = np.cos(np.arange(sg.cap + 1).astype(float))
        errs = finite_difference_generator_errors(sg, 0.25, [1e-2, 5e-3, 2.5e-3], h)
        for a, b in zip(errs, errs[1:]):
            assert 1.5 <= a / b <= 3.0

    def test_gaussian_first_order(self, unit_trace):
        sg = GaussianFlowSemigroup(unit_trace)
        errs = finite_difference_generator_errors(sg, 0.25, [1e-2, 5e-3, 2.5e-3],
                                                  np.sin)
        for a, b in zip(errs, errs[1:]):
            assert 1.5 <= a / b <= 3.0

    def test_dirichlet_first_order(self):
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 3.0]), 4.0)
        errs = finite_difference_generator_errors(sg, 0.25, [1e-2, 5e-3, 2.5e-3],
                                                  lambda x: x * x)
        for a, b in zip(errs, errs[1:]):
            assert 1.5 <= a / b <= 3.0

    def test_constant_function_vanishes(self, unit_trace):
        sg = JumpFlowSemigroup(unit_trace, _poisson_pmf)
        h = np.ones(sg.cap + 1)
        errs = finite_difference_generator_errors(sg, 0.25, [1e-2], h)
        assert errs[0] < 1e-12


class TestClosedFormGenerators:
    def test_poisson_constant_h_is_zero(self, unit_trace):
        sg = JumpFlowSemigroup(unit_trace, _poisson_pmf)
        g = closed_form_generator(sg, 0.25, np.ones(sg.cap + 1))
        assert np.max(np.abs(sg.values(g))) == 0.0

    def test_dirichlet_linear_h_closed_form(self):
        # exhausted-complement weight 1: the integrand collapses and
        # (G h)(x) = rate * (1 - x) for h(x) = x
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 3.0]), 4.0)
        g = closed_form_generator(sg, 1.0, lambda x: x, side="-")
        for x in (0.0, 0.25, 0.6):
            assert g(x) == pytest.approx(2.0 * (1.0 - x), abs=1e-9)

    def test_gaussian_second_difference(self, unit_trace):
        sg = GaussianFlowSemigroup(unit_trace)
        g = closed_form_generator(sg, 0.5, lambda x: x * x)
        assert g(0.3) == pytest.approx(1.0, abs=1e-8)  # 0.5 * slope * h'' = 0.5*1*2

    def test_compound_poisson_difference_form(self, unit_trace):
        sg = compound_semigroup(unit_trace, (1, 2), (0.25, 0.75))
        h = np.zeros(sg.cap + 1)
        h[2] = 1.0
        g = closed_form_generator(sg, 0.25, h)
        assert g[0] == pytest.approx(0.75)  # rate * p(jump=2)
        assert g[1] == pytest.approx(0.25)

    def test_knot_requires_side_selection(self):
        tr = Trace([0.0, 1.0, 2.0], [0.0, 0.5, 0.6])
        sg = EmpiricalFlowSemigroup(1, tr)
        h = np.array([0.0, 1.0])
        with pytest.raises(ConfigError):
            closed_form_generator(sg, 1.0, h)
        plus = closed_form_generator(sg, 1.0, h, side="+")
        minus = closed_form_generator(sg, 1.0, h, side="-")
        assert plus[0] != pytest.approx(minus[0])

    def test_jump_rows_substochastic(self, unit_trace):
        sg = compound_semigroup(unit_trace, (1, 2), (0.5, 0.5))
        M = sg.matrix(0.0, 1.0)
        sums = M.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert sums[sg.probe_states].min() > 1.0 - 1e-10

    def test_flat_leg_is_identity(self):
        # legs with no trace growth transport states unchanged
        tr = Trace([0.0, 1.0, 2.0], [0.0, 0.5, 0.5])
        sg = GaussianFlowSemigroup(tr)
        out = sg.apply(1.0, 2.0, np.sin)
        assert out is np.sin or np.allclose(sg.values(out), sg.values(np.sin))
        se = EmpiricalFlowSemigroup(2, tr)
        assert np.allclose(se.matrix(1.0, 2.0), np.eye(3))


class TestIntegralIdentity:
    def test_zero_length_interval(self, unit_trace):
        sg = EmpiricalFlowSemigroup(2, unit_trace)
        assert integral_identity_residual(sg, 0.3, 0.3, np.array([1.0, 0.0, 0.0])) == 0.0

    def test_empirical_half_interval(self, unit_trace):
        sg = EmpiricalFlowSemigroup(2, unit_trace)
        r = integral_identity_residual(sg, 0.0, 0.5, np.array([1.0, 0.0, 0.0]))
        assert r < 1e-8

    def test_dirichlet_single_leg(self):
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 3.0]), 4.0)
        r = integral_identity_residual(sg, 0.0, 1.0, lambda x: x)
        assert r < 1e-4

    def test_gaussian(self, unit_trace):
        sg = GaussianFlowSemigroup(unit_trace)
        assert integral_identity_residual(sg, 0.0, 1.0, np.sin) < 1e-5

    def test_multi_leg_empirical(self, lattice6, uniform4):
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4))
        flow = flow_from_ordering(spec.ordering, uniform4)
        system = system_along_flow(spec.kernel, flow)
        h = np.array([1.0, 0.0, 0.0])
        assert integral_identity_residual(system, 0.0, 5.0, h) < 1e-8


class TestGeneratorMatching:
    def test_identical_flows(self, lattice3, uniform2, orderings3):
        k = EmpiricalKernel(2, uniform2)
        f = flow_from_ordering(orderings3[0], uniform2)
        assert generator_matching_defect(k, f, (0, 2), f, (0, 2)) == 0.0

    def test_refinement_chains_match(self, lattice3, uniform2, orderings3):
        k = EmpiricalKernel(2, uniform2)
        f1 = flow_from_ordering(orderings3[0], uniform2)
        f2 = flow_from_ordering(orderings3[1], uniform2)
        assert generator_matching_defect(k, f1, (0, 2), f2, (0, 2)) < 1e-7

    def test_corrupted_kernel_fails(self, lattice3, uniform2, orderings3, grid2):
        k = EmpiricalKernel(2, uniform2, corrupted=True)
        coarse = DiscreteFlow((0.0, 1.0),
                              (IndexedSet.from_cells(grid2, [0]),
                               IndexedSet.from_cells(grid2, [0, 1, 2])), uniform2)
        fine = flow_from_ordering(orderings3[0], uniform2)
        assert generator_matching_defect(k, coarse, (0, 1), fine, (0, 2)) > 1e-3

    def test_corrupted_kernel_matches_indicator_loop(self, uniform2, orderings3, grid2):
        # at n = 9 the worst indicator is state 4, not state 0
        k = EmpiricalKernel(9, uniform2, corrupted=True)
        coarse = DiscreteFlow((0.0, 1.0),
                              (IndexedSet.from_cells(grid2, [0]),
                               IndexedSet.from_cells(grid2, [0, 1, 2])), uniform2)
        fine = flow_from_ordering(orderings3[0], uniform2)
        d = generator_matching_defect(k, coarse, (0, 1), fine, (0, 2))
        assert d > 1e-3
        assert abs(d - ref_generator_matching_defect(k, coarse, (0, 1), fine, (0, 2))) <= 1e-15

    def test_matrix_basis_is_the_identity(self, unit_trace):
        for sg in (EmpiricalFlowSemigroup(9, unit_trace),
                   compound_semigroup(unit_trace, (1, 2), (0.5, 0.5), start_mass_cap=3)):
            assert len(sg.states) > 6
            assert np.array_equal(sg.basis(), np.eye(len(sg.states)))


class TestPermutationIdentities:
    def test_identity_permutation_gives_zero(self, empirical_spec3, orderings3):
        r = permutation_identity_check(empirical_spec3, orderings3[0], orderings3[0], 2)
        assert r.exact_defect == 0.0 and r.generator_residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("level", [2, 3])
    def test_three_set_swap(self, lattice3, uniform2, orderings3, n, level):
        spec = FddSpec(lattice3, EmpiricalKernel(n, uniform2))
        r = permutation_identity_check(spec, orderings3[0], orderings3[1], level)
        assert r.exact_defect < 1e-12
        assert r.generator_residual < 1e-7

    @pytest.mark.parametrize("level", [2, 3])
    def test_staircase_picture_pair(self, lattice6, uniform4, level):
        # a pair has power at a level exactly when its slot map moves one of
        # slots 2..level: only then does the corrupted kernel show a defect
        orders = enumerate_consistent_orderings(lattice6)
        row_first = orders[0]
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4))
        bad = FddSpec(lattice6, EmpiricalKernel(2, uniform4, corrupted=True))
        moving = 0
        for o in orders[1:]:
            moves = ordering_slots(row_first, o)[1:level] != list(range(2, level + 1))
            moving += moves
            r = permutation_identity_check(spec, row_first, o, level)
            assert r.exact_defect < 1e-12
            assert r.generator_residual < 1e-7
            rb = permutation_identity_check(bad, row_first, o, level)
            assert (rb.exact_defect > 1e-3) == moves
            assert (rb.generator_residual > 1e-3) == moves
        assert moving == {2: 8, 3: 10}[level]

    def test_corrupted_kernel_fails(self, lattice3, uniform2, orderings3):
        spec = FddSpec(lattice3, EmpiricalKernel(2, uniform2, corrupted=True))
        r = permutation_identity_check(spec, orderings3[0], orderings3[1], 2)
        assert r.exact_defect > 1e-3

    def test_continuous_kernel_rejected(self, lattice3, grid2, orderings3):
        spec = FddSpec(lattice3, GaussianIncrementKernel(CellMeasure.counting(grid2)))
        with pytest.raises(UnsupportedKernelError):
            permutation_identity_check(spec, orderings3[0], orderings3[1], 2)

    def test_level_validation(self, empirical_spec3, orderings3):
        with pytest.raises(ConfigError):
            permutation_identity_check(empirical_spec3, orderings3[0], orderings3[1], 4)

    def test_corrupted_defects_pinned(self, lattice3, uniform2, orderings3):
        # the values the path enumerator gave on the corrupted 3-set config
        spec = FddSpec(lattice3, EmpiricalKernel(2, uniform2, corrupted=True))
        got = [permutation_identity_check(spec, orderings3[0], orderings3[1], level)
               for level in (2, 3)]
        want = [(0.125, 0.109375), (0.076171875, 0.06534830729166666)]
        for r, (exact, generator) in zip(got, want):
            assert r.exact_defect == pytest.approx(exact, abs=1e-12)
            assert r.generator_residual == pytest.approx(generator, abs=1e-12)
            assert r.start_states == (0, 1, 2)


def _jump_specs(lattice, grid, per_cell=0.1):
    lam = CellMeasure(grid, [per_cell] * grid.cell_count, "intensity")
    return [FddSpec(lattice, PoissonIncrementKernel(lam)),
            FddSpec(lattice, CompoundPoissonKernel(lam, (1, 2), (0.5, 0.5)))]


def _ordering_pairs(lattice, count):
    """The first ordering pairs whose second or third sets differ; on the
    other pairs both sides of levels 2 and 3 are the same matrix chain."""
    orders = enumerate_consistent_orderings(lattice)
    return [(o1, o2) for i, o1 in enumerate(orders) for o2 in orders[i + 1:]
            if o1.sets[1:3] != o2.sets[1:3]][:count]


class TestPermutationIdentitiesAgainstPathEnumeration:
    """The matrix algebra against the path enumerator it replaced, from the
    same start states and on the same full basis."""

    @staticmethod
    def _compare(spec, pairs, levels=(2, 3)):
        for o1, o2 in pairs:
            for level in levels:
                r = permutation_identity_check(spec, o1, o2, level)
                exact, generator = ref_permutation_identity_check(
                    spec, o1, o2, level, r.start_states)
                assert abs(r.exact_defect - exact) < 1e-12
                assert abs(r.generator_residual - generator) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empirical_three_set(self, lattice3, uniform2, n):
        self._compare(FddSpec(lattice3, EmpiricalKernel(n, uniform2)),
                      _ordering_pairs(lattice3, 3))

    def test_empirical_staircase(self, lattice6, uniform4):
        # one pair per slot map of the first three sets; the maps include
        # unobserved legs before and between the two observed ones
        pairs = {}
        for o1, o2 in _ordering_pairs(lattice6, None):
            pairs.setdefault(tuple(o2.sets.index(s) for s in o1.sets[:3]), (o1, o2))
        assert len(pairs) == 8
        self._compare(FddSpec(lattice6, EmpiricalKernel(2, uniform4)), pairs.values())

    def test_corrupted(self, lattice3, uniform2):
        self._compare(FddSpec(lattice3, EmpiricalKernel(2, uniform2, corrupted=True)),
                      _ordering_pairs(lattice3, 3))

    # the enumerator takes seconds per start state at level 3 on the 37
    # states of compound poisson at 0.1 per cell, so level 3 runs from fewer
    # or smaller start supports
    @pytest.mark.parametrize("which, per_cell, initial, level", [
        (0, 0.1, None, 2),
        (0, 0.1, {0: 0.5, 1: 0.5}, 3),
        (1, 0.1, None, 2),
        (1, 0.001, None, 3),
    ], ids=["poisson-2", "poisson-3", "compound-2", "compound-3"])
    def test_jump_kinds_three_set(self, lattice3, grid2, which, per_cell, initial, level):
        spec = _jump_specs(lattice3, grid2, per_cell)[which]
        spec = FddSpec(lattice3, spec.kernel, initial=initial)
        self._compare(spec, _ordering_pairs(lattice3, 1), levels=(level,))


class TestPermutationIdentitiesJumpKinds:
    @pytest.mark.parametrize("which", [0, 1], ids=["poisson", "compound"])
    @pytest.mark.parametrize("level", [2, 3])
    def test_every_start_state_checked(self, lattice6, grid4, which, level):
        spec = _jump_specs(lattice6, grid4)[which]
        system = system_along_flow(spec.kernel, flow_from_ordering(spec.ordering))
        support = sorted(int(k) for k, p in spec.initial_pmf().items() if p > 1e-15)
        assert set(support) <= set(system.probe_states.tolist())
        for o1, o2 in _ordering_pairs(lattice6, 6):
            r = permutation_identity_check(spec, o1, o2, level)
            assert list(r.start_states) == support
            assert r.exact_defect < 1e-12
            assert r.generator_residual < 1e-12

    def test_start_cap_is_largest_initial_state(self, lattice3, grid2):
        for spec in _jump_specs(lattice3, grid2):
            flow = flow_from_ordering(spec.ordering)
            system = system_along_flow(spec.kernel, flow)
            top = int(max(spec.kernel.initial_pmf_for(flow.stages[0])))
            assert system.probe_states[-1] == top

    def test_override_outside_probe_states_is_not_checked(self, lattice3, grid2,
                                                          orderings3):
        spec = _jump_specs(lattice3, grid2)[0]
        spec = FddSpec(spec.lattice, spec.kernel, initial={0: 0.5, 500: 0.5})
        r = permutation_identity_check(spec, orderings3[0], orderings3[1], 2)
        assert r.start_states == (0,)


class TestSemigroupProperty:
    def test_empirical(self, unit_trace):
        sg = EmpiricalFlowSemigroup(3, unit_trace)
        gap = np.max(np.abs(sg.matrix(0.1, 0.4) @ sg.matrix(0.4, 0.8)
                            - sg.matrix(0.1, 0.8)))
        assert gap < 1e-9

    def test_poisson(self, unit_trace):
        sg = JumpFlowSemigroup(unit_trace, _poisson_pmf)
        h = np.cos(np.arange(sg.cap + 1).astype(float))
        two_step = sg.apply(0.1, 0.4, sg.apply(0.4, 0.8, h))
        direct = sg.apply(0.1, 0.8, h)
        assert np.max(np.abs(sg.values(two_step) - sg.values(direct))) < 1e-9

    def test_gaussian(self, unit_trace):
        sg = GaussianFlowSemigroup(unit_trace)
        two_step = sg.apply(0.1, 0.4, sg.apply(0.4, 0.8, np.sin))
        direct = sg.apply(0.1, 0.8, np.sin)
        assert np.max(np.abs(sg.values(two_step) - sg.values(direct))) < 1e-9

    def test_dirichlet(self):
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 3.0]), 4.0)
        h = lambda x: x * x
        two_step = sg.apply(0.1, 0.4, sg.apply(0.4, 0.8, h))
        direct = sg.apply(0.1, 0.8, h)
        assert np.max(np.abs(sg.values(two_step) - sg.values(direct))) < 1e-9


class TestInvarianceEquivalence:
    """Ordering invariance of the joint law and the permutation identities
    hold or fail together, level by level, as the equivalence asserts."""

    def test_true_kernel_passes_both(self, lattice3, uniform2, orderings3):
        from setmarkov.verify import ordering_invariance_defect
        spec = FddSpec(lattice3, EmpiricalKernel(2, uniform2))
        inv = ordering_invariance_defect(spec, [orderings3[0], orderings3[1]])
        perms = [permutation_identity_check(spec, orderings3[0], orderings3[1], lvl)
                 for lvl in (2, 3)]
        assert inv < 1e-12
        assert all(r.defect < 1e-7 for r in perms)

    def test_corrupted_kernel_fails_both(self, lattice3, uniform2, orderings3):
        from setmarkov.verify import ordering_invariance_defect
        spec = FddSpec(lattice3, EmpiricalKernel(2, uniform2, corrupted=True))
        inv = ordering_invariance_defect(spec, [orderings3[0], orderings3[1]])
        r2 = permutation_identity_check(spec, orderings3[0], orderings3[1], 2)
        assert inv > 1e-3
        assert r2.exact_defect > 1e-3


class TestSystemAlongFlow:
    def test_empirical_trace_from_flow(self, orderings3, uniform2):
        k = EmpiricalKernel(2, uniform2)
        flow = flow_from_ordering(orderings3[0], uniform2)
        sg = system_along_flow(k, flow)
        assert isinstance(sg, EmpiricalFlowSemigroup)
        assert sg.trace(0.0) == pytest.approx(0.25)
        assert sg.trace(2.0) == pytest.approx(0.75)

    def test_dirichlet_system(self, orderings3, grid2):
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        k = DirichletKernel(alpha)
        flow = flow_from_ordering(orderings3[0], alpha)
        sg = system_along_flow(k, flow)
        assert isinstance(sg, DirichletFlowSemigroup)
        assert sg.alpha_total == pytest.approx(4.0)

    def test_flow_semigroup_matches_kernel_at_knots(self, orderings3, uniform2):
        k = EmpiricalKernel(2, uniform2)
        flow = flow_from_ordering(orderings3[0], uniform2)
        sg = system_along_flow(k, flow)
        M = sg.matrix(0.0, 2.0)
        pmf = k.step_pmf(flow.stages[0], flow.stages[2], 0)
        for j, p in pmf.items():
            assert M[0, j] == pytest.approx(p, abs=1e-12)


CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


class TestFlowSemigroupsUseTheKernelLaw:
    @pytest.mark.parametrize("name", ["poisson_lattice4", "compound_lattice3",
                                      "compound_staircase", "empirical10_staircase",
                                      "corrupted_lattice3"])
    def test_knot_rows_are_the_step_pmf(self, name):
        # the exact tables and the generator rows read one step law
        spec = load_config(str(CONFIGS / f"{name}.json")).spec
        kernel = spec.kernel
        flow = flow_from_ordering(spec.ordering, kernel.measure)
        system = system_along_flow(kernel, flow)
        worst = 0.0
        for i, j in itertools.combinations_with_replacement(range(len(flow.times)), 2):
            M = system.matrix(flow.times[i], flow.times[j])
            for x in system.probe_states:
                want = np.zeros(len(system.states))
                for y, p in kernel.step_pmf(flow.stages[i], flow.stages[j], int(x)).items():
                    want[int(round(y))] += p
                worst = max(worst, float(np.max(np.abs(M[x] - want))))
        assert worst <= 1e-15


class TestJacobiRules:
    @pytest.mark.parametrize("c", [0.5, 3.0, 1100.0, 5000.0])
    @pytest.mark.parametrize("a", [1.0, 2.5])
    def test_beta_rule_moments(self, a, c):
        y, w = jacobi01(JACOBI_ORDER, a, c)
        want = [1.0, a / (a + c), a * (a + 1) / ((a + c) * (a + c + 1))]
        for k, m in enumerate(want):
            assert abs(w @ y**k / m - 1.0) < 1e-13

    @pytest.mark.parametrize("c", [0.5, 3.0, 1100.0, 5000.0])
    def test_raw_rule_moments(self, c):
        u, w = jacobi01_raw(JACOBI_ORDER, c)
        want = [1 / c, 1 / (c * (c + 1)), 2 / (c * (c + 1) * (c + 2))]
        for k, m in enumerate(want):
            assert abs(w @ u**k / m - 1.0) < 1e-13

    def test_semigroup_past_a_total_mass_of_1035(self):
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0], [50.0, 100.0]), 1100.0)
        assert integral_identity_residual(sg, 0.0, 1.0, sg.basis()) < 1e-10


class TestDirichletBoundaryState:
    def test_operators_at_one(self):
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 3.0]), 4.0)
        for h in (lambda x: x * x, np.cos):
            for s, t in ((0.0, 0.5), (0.25, 1.0), (0.0, 1.0)):
                assert abs(sg.apply(s, t, h)(1.0) - h(1.0)) <= 1e-15
            for s in (0.0, 0.5, 0.75):
                assert sg.apply_generator(s, h)(1.0) == 0.0


# a 2-D grid of points, so the array path must keep the shape of its argument
GRID_X = np.linspace(0.0, 0.9, 12).reshape(3, 4)


def _assert_matches_loop(array_fn, loop_fn, x=GRID_X):
    out = array_fn(x)
    assert np.shape(out) == np.shape(x)
    assert np.max(np.abs(out - pointwise(loop_fn, x))) <= 1e-14


class TestArrayQuadratureAgainstLoop:
    """The broadcast operators of the quadrature semigroups against the
    scalar loop over nodes, one point at a time."""

    def test_gaussian(self):
        sg = GaussianFlowSemigroup(Trace([0.0, 1.0, 2.0], [0.0, 0.5, 1.5]))
        for s, t in ((0.0, 1.0), (0.25, 2.0), (1.5, 2.0)):
            _assert_matches_loop(sg.apply(s, t, np.sin),
                                 ref_gaussian_apply(sg, s, t, np.sin))
        for v in (0.25, 1.0):
            _assert_matches_loop(sg.apply_generator(v, np.cos),
                                 ref_gaussian_apply_generator(sg, v, np.cos))
        # nested operators broadcast over two node axes (the generator of a
        # transported function is left out: its 1/512 stencil scales the
        # last-bit gaps of the inner sum by 512**2)
        _assert_matches_loop(
            sg.apply(0.25, 0.5, sg.apply(0.5, 2.0, np.cos)),
            ref_gaussian_apply(sg, 0.25, 0.5, ref_gaussian_apply(sg, 0.5, 2.0, np.cos)))

    def test_gaussian_flat_leg(self):
        # var == 0: the operator is the identity and returns h itself
        sg = GaussianFlowSemigroup(Trace([0.0, 1.0, 2.0], [0.0, 0.5, 0.5]))
        _assert_matches_loop(sg.apply(1.0, 2.0, np.sin),
                             ref_gaussian_apply(sg, 1.0, 2.0, np.sin))

    def test_dirichlet(self):
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), 4.0)
        h = lambda x: x * x
        for s, t in ((0.0, 1.0), (0.25, 2.0), (1.5, 2.0)):
            _assert_matches_loop(sg.apply(s, t, h), ref_dirichlet_apply(sg, s, t, h))
            _assert_matches_loop(sg.apply(s, t, np.cos),
                                 ref_dirichlet_apply(sg, s, t, np.cos))
        for v in (0.25, 1.0, 1.5):
            _assert_matches_loop(sg.apply_generator(v, h),
                                 ref_dirichlet_apply_generator(sg, v, h))
        # nested operators broadcast over two node axes, as generator_integral
        # nests them
        _assert_matches_loop(
            sg.apply(0.25, 0.5, sg.apply(0.5, 2.0, h)),
            ref_dirichlet_apply(sg, 0.25, 0.5, ref_dirichlet_apply(sg, 0.5, 2.0, h)))
        _assert_matches_loop(
            sg.apply_generator(0.5, sg.apply(0.5, 2.0, h)),
            ref_dirichlet_apply_generator(sg, 0.5, ref_dirichlet_apply(sg, 0.5, 2.0, h)))

    def test_dirichlet_exhausted_complement(self):
        # c <= 0: every state moves to 1, so h(1) broadcast to the shape of x
        sg = DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 4.0]), 4.0)
        for h in (lambda x: x * x, np.cos):
            out = sg.apply(0.0, 1.0, h)
            _assert_matches_loop(out, ref_dirichlet_apply(sg, 0.0, 1.0, h))
            assert np.all(out(GRID_X) == h(1.0))


class WideGaussianFlowSemigroup(GaussianFlowSemigroup):
    """Negative control: the step from s to t has variance lambda(B') instead
    of lambda(B' minus B), i.e. trace(t) instead of trace(t) - trace(s)."""

    def apply(self, s, t, h):
        sd = np.sqrt(self.trace(t))
        z, w = hermite()
        return lambda x: h(np.asarray(x, dtype=float)[..., None] + sd * z) @ w


class ShortComplementDirichletFlowSemigroup(DirichletFlowSemigroup):
    """Negative control: the step from s to t draws Beta(alpha(B' minus B),
    alpha(B complement)) instead of Beta(..., alpha(B' complement)), i.e. its
    complement mass is total - trace(s) instead of total - trace(t)."""

    def apply(self, s, t, h):
        a = max(self.trace(t) - self.trace(s), 0.0)
        if a == 0.0:
            return h
        y, w = jacobi01(JACOBI_ORDER, a, self.alpha_total - self.trace(s))

        def out(x):
            x = np.asarray(x, dtype=float)[..., None]
            return h(x + (1.0 - x) * y) @ w

        return out


MUTANTS = {
    "gaussian_staircase": lambda kernel, flow: WideGaussianFlowSemigroup(
        Trace.along_flow(kernel.lam, flow)),
    "dirichlet_staircase": lambda kernel, flow: ShortComplementDirichletFlowSemigroup(
        Trace.along_flow(kernel.alpha, flow), kernel.alpha.total),
}


class TestContinuousNegativeControls:
    """The continuous generator rows reject a semigroup with the wrong step
    law; the true semigroup passes them."""

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_integral_identity_rejects_mutant(self, name):
        cfg = load_config(str(CONFIGS / f"{name}.json"))
        kernel = cfg.spec.kernel
        flow = flow_from_ordering(cfg.spec.ordering, kernel.measure)
        tol = cfg.tolerances["dirichlet_quadrature"]
        t_end = float(flow.times[-1])
        true_sys = kernel.flow_semigroup(flow)
        mutant = MUTANTS[name](kernel, flow)
        assert integral_identity_residual(true_sys, 0.0, t_end, true_sys.basis()) <= tol
        assert integral_identity_residual(mutant, 0.0, t_end, mutant.basis()) > tol

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_validate_fails_on_mutant(self, name, monkeypatch):
        cfg = load_config(str(CONFIGS / f"{name}.json"))
        cfg.mc_samples = 2_000  # the Monte Carlo rows do not read the semigroup
        monkeypatch.setattr(type(cfg.spec.kernel), "flow_semigroup", MUTANTS[name])
        rows = {r["name"]: r for r in run_validation_suite(cfg)}
        assert not rows["integral_identity"]["pass"]
