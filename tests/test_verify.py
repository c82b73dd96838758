import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from setmarkov import construction, kernels, suite, verify
from setmarkov.config import load_config
from setmarkov.construction import sample_increments
from setmarkov.errors import ConfigError, UnsupportedKernelError
from setmarkov.lattice import DiscreteFlow
from setmarkov.verify import (
    flow_markov_defect,
    flow_matching_defect,
    increment_vector_independence_defect,
    mc_event_probabilities,
    mc_probe_thresholds,
    ordering_invariance_defect,
    set_markov_defect,
)

from helpers import (
    ref_align_variables,
    ref_exact_fdd,
    ref_mc_event_probabilities,
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
    variable, and their 6 x 16 columns take 18 distinct (a, b, stream).
    The check opens ``kernels.shared_columns`` itself when no caller has."""

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
        assert kernels._COLUMN_MEMO.get() is None
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
            seen.append(len(kernels._COLUMN_MEMO.get()))
            return real(spec, ordering, seed, count)

        monkeypatch.setattr(verify, "aligned_increment_samples", failing)
        with pytest.raises(RuntimeError, match="sampler failed"):
            ordering_invariance_defect(spec, orders, mc=(0, 200))
        assert seen[0] == 0 and seen[1] > 0  # the memo was live during the check
        assert kernels._COLUMN_MEMO.get() is None

    def test_memo_is_thread_local(self):
        seen = []
        with kernels.shared_columns():
            worker = threading.Thread(target=lambda: seen.append(kernels._COLUMN_MEMO.get()))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert kernels._COLUMN_MEMO.get() == {}
        assert seen == [None]


class TestColumnScope:
    """``suite.run_validation_suite`` opens one column memo around a whole
    continuous run, so the ordering check and the marginal laws share every
    uniform stream and quantile column."""

    @staticmethod
    def count(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args):
            calls.append((*args[:-1], np.shape(args[-1])))
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("stem, quantile, columns", [
        ("gaussian_staircase", "ndtri", 6),
        ("dirichlet_staircase", "betaincinv", 18),
    ])
    def test_validate_draws_each_column_once(self, monkeypatch, stem, quantile, columns):
        cfg = load_config(str(CONFIGS / f"{stem}.json"))
        streams = self.count(monkeypatch, construction, "step_uniforms")
        quantiles = self.count(monkeypatch, special, quantile)
        rows = suite.run_validation_suite(cfg)
        assert {r["name"] for r in rows} >= {"ordering_invariance", "marginal_law"}
        assert len(streams) == len(set(streams)) == 6
        # a column holds one quantile per sample; the dirichlet CK rows also
        # take betaincinv at 9 deciles per probe state, which is no column
        assert sum(q[-1] == (cfg.mc_samples,) for q in quantiles) == columns
        assert kernels._COLUMN_MEMO.get() is None

    def test_memo_dropped_when_validate_raises(self, monkeypatch):
        cfg = load_config(str(CONFIGS / "gaussian_staircase.json"))
        held = []

        def failing(kernel, flow):
            held.append(len(kernels._COLUMN_MEMO.get()))
            raise RuntimeError("semigroup failed")

        monkeypatch.setattr(suite, "system_along_flow", failing)
        with pytest.raises(RuntimeError, match="semigroup failed"):
            suite.run_validation_suite(cfg)
        assert held == [12]  # 6 uniform and 6 normal quantile columns
        assert kernels._COLUMN_MEMO.get() is None

    def test_nested_scope_reuses_the_outer_memo(self, monkeypatch):
        spec = load_config(str(CONFIGS / "dirichlet_staircase.json")).spec
        orders = enumerate_consistent_orderings(spec.lattice)
        with kernels.shared_columns():
            memo = kernels._COLUMN_MEMO.get()
            got = ordering_invariance_defect(spec, orders, mc=(0, 2000))
            assert kernels._COLUMN_MEMO.get() is memo and len(memo) == 6 + 18
            streams = self.count(monkeypatch, construction, "step_uniforms")
            quantiles = self.count(monkeypatch, special, "betaincinv")
            with kernels.shared_columns():
                assert kernels._COLUMN_MEMO.get() is memo
                again = ordering_invariance_defect(spec, orders, mc=(0, 2000))
                arr = sample_increments(spec, 0, 2000)
            assert kernels._COLUMN_MEMO.get() is memo
        assert streams == [] and quantiles == [] and again == got
        assert kernels._COLUMN_MEMO.get() is None
        assert arr.tobytes() == sample_increments(spec, 0, 2000).tobytes()

    def test_memo_columns_are_read_only(self):
        spec = load_config(str(CONFIGS / "dirichlet_staircase.json")).spec
        with kernels.shared_columns():
            sample_increments(spec, 2, 100)
            memo = kernels._COLUMN_MEMO.get()
            assert len(memo) == 6 + 6
            for col in memo.values():
                with pytest.raises(ValueError, match="read-only"):
                    col[0] = 0.5

    def test_arrays_the_memo_does_not_own_are_not_shared(self, monkeypatch):
        u = np.linspace(0.1, 0.9, 9)
        quantiles = self.count(monkeypatch, special, "betaincinv")
        with kernels.shared_columns():
            first = kernels._beta_ppf(u, 0.5, 1.5)
            second = kernels._beta_ppf(u.copy(), 0.5, 1.5)
            assert kernels._COLUMN_MEMO.get() == {}
        assert len(quantiles) == 2 and first.flags.writeable
        assert first.tobytes() == second.tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_event_probabilities_match_the_mean_per_event(data):
    d = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, 500))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        # few distinct values: many rows tie with the medians and quartiles
        aligned = rng.integers(0, data.draw(st.integers(1, 4)), (count, d)).astype(float)
    else:
        aligned = rng.standard_normal((count, d))
    medians, quartiles = mc_probe_thresholds(aligned)
    if data.draw(st.booleans()):
        # thresholds read off sampled values, so rows sit exactly on them
        rows = rng.integers(0, count, (3, d))
        medians, quartiles = aligned[rows[0], range(d)], aligned[rows[1:], range(d)]
    got = mc_event_probabilities(aligned, medians, quartiles)
    want = ref_mc_event_probabilities(aligned, medians, quartiles)
    assert got.shape == ((1 << d) - 1 + 2 * d,)
    assert got.tobytes() == want.tobytes()


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
