import threading
from pathlib import Path

import pytest
from scipy import special

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    DirichletKernel,
    EmpiricalKernel,
    FddSpec,
    GaussianIncrementKernel,
    IndexedSet,
    MixtureSpec,
    PoissonIncrementKernel,
    close_under_intersection,
    enumerate_consistent_orderings,
    flow_from_ordering,
)
from setmarkov import construction, kernels, verify
from setmarkov.config import load_config
from setmarkov.construction import sample_increments
from setmarkov.errors import ConfigError, UnsupportedKernelError
from setmarkov.lattice import DiscreteFlow
from setmarkov.verify import (
    flow_markov_defect,
    flow_matching_defect,
    increment_vector_independence_defect,
    ordering_invariance_defect,
    set_markov_defect,
)

from helpers import (
    ref_align_variables,
    ref_exact_fdd,
    ref_mc_ordering_invariance,
    ref_permuted,
    ref_tv,
)

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def cells(g, *idx):
    return IndexedSet.from_cells(g, idx)


@pytest.fixture
def skewed2(grid2):
    return CellMeasure(grid2, [0.1, 0.4, 0.4, 0.1], "probability")


@pytest.fixture
def mixture3(lattice3, uniform2, skewed2):
    return MixtureSpec((FddSpec(lattice3, EmpiricalKernel(2, uniform2)),
                        FddSpec(lattice3, EmpiricalKernel(2, skewed2))), (0.5, 0.5))


@pytest.fixture
def invariance_cases(lattice3, grid2, uniform2, orderings3, lattice6, grid4, uniform4,
                     mixture3):
    """(spec, orderings) for the exact ordering-invariance check: finite-state
    kinds, a mixture, float jump sizes and an ``initial`` override."""
    orderings6 = enumerate_consistent_orderings(lattice6)
    # uneven measures, so a column taken from the wrong cell changes the law
    poisson = PoissonIncrementKernel(CellMeasure(grid4, [0.0002 * (1 + i) for i in range(16)]))
    compound = CompoundPoissonKernel(CellMeasure(grid2, [0.2, 0.6, 0.3, 0.4]), (0.1, 0.2),
                                     (0.5, 0.5))
    return {
        "empirical_staircase": (FddSpec(lattice6, EmpiricalKernel(2, uniform4)), orderings6),
        "corrupted": (FddSpec(lattice3, EmpiricalKernel(2, uniform2, corrupted=True)),
                      orderings3),
        "mixture": (mixture3, orderings3),
        "compound": (FddSpec(lattice3, compound), orderings3),
        "poisson_initial": (FddSpec(lattice6, poisson, initial={2: 0.25, 5: 0.75}),
                            orderings6),
    }


class TestOrderingInvariance:
    def test_same_ordering_gives_zero(self, empirical_spec3, orderings3):
        assert ordering_invariance_defect(empirical_spec3,
                                          [orderings3[0], orderings3[0]]) == 0.0

    def test_empirical_exact(self, empirical_spec3, orderings3):
        d = ordering_invariance_defect(empirical_spec3, [orderings3[0], orderings3[1]])
        assert d < 1e-12

    def test_corrupted_kernel_fails(self, lattice3, uniform2, orderings3):
        spec = FddSpec(lattice3, EmpiricalKernel(2, uniform2, corrupted=True))
        d = ordering_invariance_defect(spec, [orderings3[0], orderings3[1]])
        assert d > 0.01

    def test_continuous_needs_mc(self, lattice3, grid2, orderings3):
        spec = FddSpec(lattice3, GaussianIncrementKernel(CellMeasure.counting(grid2)))
        with pytest.raises(UnsupportedKernelError):
            ordering_invariance_defect(spec, [orderings3[0], orderings3[1]])

    def test_gaussian_mc(self, lattice3, grid2, orderings3):
        spec = FddSpec(lattice3, GaussianIncrementKernel(CellMeasure.counting(grid2)))
        r = ordering_invariance_defect(spec, [orderings3[0], orderings3[1]],
                                       mc=(42, 50_000))
        assert r.sigmas < 3.0

    def test_dirichlet_mc(self, lattice3, grid2, orderings3):
        alpha = CellMeasure(grid2, [0.5, 1.0, 1.5, 1.0], "dirichlet")
        spec = FddSpec(lattice3, DirichletKernel(alpha))
        r = ordering_invariance_defect(spec, [orderings3[0], orderings3[1]],
                                       mc=(42, 50_000))
        assert r.sigmas < 3.0

    def test_all_staircase_pairs_empirical(self, lattice6, uniform4):
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4))
        orders = enumerate_consistent_orderings(lattice6)
        assert ordering_invariance_defect(spec, orders) < 1e-12

    def test_worst_pair_of_the_list(self, lattice6, uniform4):
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4, corrupted=True))
        orders = enumerate_consistent_orderings(lattice6)
        pairwise = [ordering_invariance_defect(spec, [a, b])
                    for i, a in enumerate(orders) for b in orders[i + 1:]]
        assert max(pairwise) > 1e-3 and pairwise.index(max(pairwise)) > 0
        assert ordering_invariance_defect(spec, orders) == max(pairwise)

    @pytest.mark.parametrize("case", ["empirical_staircase", "corrupted", "mixture",
                                      "compound", "poisson_initial"])
    def test_canonical_laws_match_aligned_dict_tables(self, case, invariance_cases):
        spec, orders = invariance_cases[case]
        tables = [ref_exact_fdd(spec.with_ordering(o)) for o in orders]
        lefts = [spec.with_ordering(o).lefts for o in orders]
        want = max(ref_tv(tables[i], ref_permuted(tables[j],
                                                  ref_align_variables(lefts[i], lefts[j])))
                   for i in range(len(orders)) for j in range(i + 1, len(orders)))
        got = ordering_invariance_defect(spec, orders)
        assert abs(got - want) <= 1e-15
        assert got > 0.01 if case == "corrupted" else got < 1e-12

    def test_exact_pairs_compare_row_by_row(self, monkeypatch, invariance_cases):
        # every ordering's canonical law has the same key matrix, so no pair
        # groups rows
        spec, orders = invariance_cases["poisson_initial"]

        def refuse(columns):
            raise AssertionError("a pair of canonical laws was regrouped")

        monkeypatch.setattr(construction, "group_rows", refuse)
        assert ordering_invariance_defect(spec, orders) < 1e-12


class TestSharedQuantiles:
    """The Monte Carlo ordering check computes each distinct Beta quantile
    column once: the 16 staircase orderings read one uniform stream per
    variable, and their 6 x 16 columns take 18 distinct (a, b, stream)."""

    @pytest.fixture
    def dirichlet_staircase(self):
        spec = load_config(str(CONFIGS / "dirichlet_staircase.json")).spec
        return spec, enumerate_consistent_orderings(spec.lattice)

    @staticmethod
    def count_betaincinv(monkeypatch):
        calls = []
        real = special.betaincinv

        def counted(a, b, u):
            calls.append((a, b))
            return real(a, b, u)

        monkeypatch.setattr(special, "betaincinv", counted)
        return calls

    def test_each_distinct_column_once(self, monkeypatch, dirichlet_staircase):
        spec, orders = dirichlet_staircase
        calls = self.count_betaincinv(monkeypatch)
        got = ordering_invariance_defect(spec, orders, mc=(0, 2000))
        assert len(orders) == 16 and len(calls) == 18
        assert kernels._QUANTILE_MEMO.get() is None
        calls.clear()
        want = ref_mc_ordering_invariance(spec, orders, 0, 2000)
        assert len(calls) == 96  # no sharing outside the check
        assert got == want and got.sigmas > 0

    def test_sample_shares_nothing(self, monkeypatch, dirichlet_staircase):
        spec, _ = dirichlet_staircase
        calls = self.count_betaincinv(monkeypatch)
        first = sample_increments(spec, 4, 500)
        second = sample_increments(spec, 4, 500)
        assert len(calls) == 12 and first.tobytes() == second.tobytes()

    def test_memo_dropped_when_the_check_raises(self, monkeypatch, dirichlet_staircase):
        spec, orders = dirichlet_staircase
        real = verify.aligned_increment_samples
        seen = []

        def failing(spec, ordering, seed, count):
            if len(seen) == 2:
                raise RuntimeError("sampler failed")
            seen.append(len(kernels._QUANTILE_MEMO.get()))
            return real(spec, ordering, seed, count)

        monkeypatch.setattr(verify, "aligned_increment_samples", failing)
        with pytest.raises(RuntimeError, match="sampler failed"):
            ordering_invariance_defect(spec, orders, mc=(0, 200))
        assert seen[0] == 0 and seen[1] > 0  # the memo was live during the check
        assert kernels._QUANTILE_MEMO.get() is None

    def test_memo_is_thread_local(self):
        seen = []
        with kernels.shared_quantiles():
            worker = threading.Thread(target=lambda: seen.append(kernels._QUANTILE_MEMO.get()))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert kernels._QUANTILE_MEMO.get() == {}
        assert seen == [None]


class TestSetMarkov:
    def test_covered_set_gives_zero(self, empirical_spec3, lattice3, grid2):
        # A contained in B: the increment is deterministically zero
        B = empirical_spec3.ordering.prefix_set(1)
        A = lattice3.members[0]
        r = set_markov_defect(empirical_spec3, A, B, [cells(grid2, 0), cells(grid2, 1)])
        assert r.defect == 0.0

    def test_empirical_conditional_laws_match(self, empirical_spec3, lattice3, grid2):
        B = empirical_spec3.ordering.prefix_set(1)
        A = lattice3.members[2]  # {0, 2}
        part = [cells(grid2, 0), cells(grid2, 1)]
        r = set_markov_defect(empirical_spec3, A, B, part)
        assert r.defect < 1e-10

    def test_mixture_counterexample_fails(self, mixture3, lattice3, grid2):
        B = mixture3.ordering.prefix_set(1)
        A = lattice3.members[2]
        part = [cells(grid2, 0), cells(grid2, 1)]
        r = set_markov_defect(mixture3, A, B, part)
        assert r.defect > 0.01

    def test_non_prefix_b_rejected(self, empirical_spec3, lattice3, grid2):
        with pytest.raises(ConfigError):
            set_markov_defect(empirical_spec3, lattice3.members[1], cells(grid2, 0, 3),
                              [cells(grid2, 0)])


class TestIncrementVectorIndependence:
    def test_single_set_reduces_to_set_markov(self, empirical_spec3, lattice3, grid2):
        B = empirical_spec3.ordering.prefix_set(1)
        A = lattice3.members[2]
        part = [cells(grid2, 0), cells(grid2, 1)]
        r1 = set_markov_defect(empirical_spec3, A, B, part)
        r2 = increment_vector_independence_defect(empirical_spec3, B, [A])
        assert r2.defect == pytest.approx(r1.defect, abs=1e-12)

    def test_two_sets_on_square_grid(self, grid2, uniform2):
        lat = close_under_intersection([
            cells(grid2, 0, 1), cells(grid2, 0, 2), cells(grid2, 0, 3)])
        spec = FddSpec(lat, EmpiricalKernel(2, uniform2))
        B = spec.ordering.prefix_set(1)
        r = increment_vector_independence_defect(spec, B,
                                                 [cells(grid2, 0, 2), cells(grid2, 0, 3)])
        assert r.defect < 1e-10

    def test_mixture_fails(self, mixture3):
        B = mixture3.ordering.prefix_set(1)
        a_list = [mixture3.lattice.members[2]]
        r = increment_vector_independence_defect(mixture3, B, a_list)
        assert r.defect > 0.01


class TestFlowMarkov:
    def test_chain_lattice_classical_markov(self, grid2, uniform2):
        lat = close_under_intersection([
            cells(grid2, 0), cells(grid2, 0, 1), cells(grid2, 0, 1, 2)])
        spec = FddSpec(lat, EmpiricalKernel(2, uniform2))
        flow = flow_from_ordering(spec.ordering, uniform2)
        assert flow_markov_defect(spec, flow).defect < 1e-12

    def test_single_knot_flow(self, empirical_spec3, grid2, uniform2):
        flow = DiscreteFlow((0.0,), (cells(grid2, 0),), uniform2)
        assert flow_markov_defect(empirical_spec3, flow).defect == 0.0

    def test_mixture_fails(self, mixture3, uniform2):
        flow = flow_from_ordering(mixture3.ordering, uniform2)
        assert flow_markov_defect(mixture3, flow).defect > 0.01

    def test_staircase_flows(self, lattice6, uniform4):
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4))
        for o in enumerate_consistent_orderings(lattice6)[:4]:
            flow = flow_from_ordering(o, uniform4)
            assert flow_markov_defect(spec, flow).defect < 1e-10


class TestFlowMatching:
    def test_single_leg_flows_match_trivially(self, grid2, uniform2, lattice3):
        k = EmpiricalKernel(2, uniform2)
        f = DiscreteFlow((0.0, 1.0), (cells(grid2, 0), cells(grid2, 0, 1, 2)), uniform2)
        assert flow_matching_defect(k, f, (0, 1), f, (0, 1), [0, 1, 2]) == 0.0

    def test_two_refinement_chains(self, lattice3, uniform2, orderings3):
        k = EmpiricalKernel(2, uniform2)
        f1 = flow_from_ordering(orderings3[0], uniform2)
        f2 = flow_from_ordering(orderings3[1], uniform2)
        assert flow_matching_defect(k, f1, (0, 2), f2, (0, 2), [0, 1, 2]) < 1e-12

    def test_corrupted_kernel_fails_against_refinement(self, lattice3, uniform2,
                                                       orderings3, grid2):
        k = EmpiricalKernel(2, uniform2, corrupted=True)
        coarse = DiscreteFlow((0.0, 1.0), (cells(grid2, 0), cells(grid2, 0, 1, 2)),
                              uniform2)
        fine = flow_from_ordering(orderings3[0], uniform2)
        d = flow_matching_defect(k, coarse, (0, 1), fine, (0, 2), [0, 1, 2])
        assert d > 0.01

    def test_mismatched_endpoints_rejected(self, lattice3, uniform2, orderings3, grid2):
        k = EmpiricalKernel(2, uniform2)
        f1 = flow_from_ordering(orderings3[0], uniform2)
        coarse = DiscreteFlow((0.0, 1.0), (cells(grid2, 0), cells(grid2, 0, 1)),
                              uniform2)
        with pytest.raises(ConfigError):
            flow_matching_defect(k, coarse, (0, 1), f1, (0, 2), [0])
