import sys
import threading
import tracemalloc
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
from setmarkov import cli, construction, kernels, suite, verify
from setmarkov.config import load_config
from setmarkov.construction import sample_increments
from setmarkov.errors import (
    ChainEmbeddingError,
    ConfigError,
    TableSizeError,
    UnsupportedKernelError,
)
from setmarkov.lattice import ConsistentOrdering, DiscreteFlow, leading_orderings
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
    ref_aligned_increment_samples,
    ref_exact_fdd,
    ref_mc_event_probabilities,
    ref_mc_ordering_invariance,
    ref_mc_probe_thresholds,
    ref_all_pairs_flow_markov_defect,
    ref_permuted,
    ref_sub_lattice_increment_independence_defect,
    ref_sub_lattice_set_markov_defect,
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
        # the defect is the largest swap-edge TV, each edge's TV taken from the
        # dict tables of its two orderings; pairs further apart can read more
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4, corrupted=True))
        orders = enumerate_consistent_orderings(lattice6)
        tables = [ref_exact_fdd(spec.with_ordering(o)) for o in orders]
        lefts = [spec.with_ordering(o).lefts for o in orders]

        def tv(i, j):
            return ref_tv(tables[i], ref_permuted(tables[j],
                                                  ref_align_variables(lefts[i], lefts[j])))

        pairs = [(i, j) for i in range(len(orders)) for j in range(i + 1, len(orders))]
        edges = [(i, j) for i, j in pairs if _one_swap_apart(orders[i], orders[j])]
        edge_tvs = [tv(i, j) for i, j in edges]
        assert len(edges) == 24 and max(edge_tvs) > 1e-3
        assert edge_tvs.index(max(edge_tvs)) > 0
        assert abs(ordering_invariance_defect(spec, orders) - max(edge_tvs)) <= 1e-15
        assert max(tv(i, j) for i, j in pairs) > 2 * max(edge_tvs)

    def test_swap_edges_must_join_the_list(self, lattice6, uniform4):
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4, corrupted=True))
        orders = enumerate_consistent_orderings(lattice6)
        i, j, k = next((i, j, k) for i, a in enumerate(orders) for j, b in enumerate(orders)
                       for k, c in enumerate(orders)
                       if _one_swap_apart(a, b) and _one_swap_apart(b, c)
                       and _differing_slots(a, c) == 4)
        # two swaps apart, or a list cut between them: no edge joins the pair
        with pytest.raises(ConfigError, match="swap edges of the 2 listed orderings"):
            ordering_invariance_defect(spec, [orders[i], orders[k]])
        with pytest.raises(ConfigError, match="do not join them all"):
            verify.swap_edges([orders[i], orders[k], orders[i]])
        joined = [orders[i], orders[j], orders[k]]
        assert len(verify.swap_edges(joined)) == 2
        # a repeated ordering counts once
        assert verify.swap_edges(joined + [orders[j], orders[i]]) == verify.swap_edges(joined)
        assert ordering_invariance_defect(spec, joined + joined) == \
            ordering_invariance_defect(spec, joined) > 1e-3

    def test_every_staircase_ordering_and_every_cut_is_joined(self, lattice6):
        orders = enumerate_consistent_orderings(lattice6)
        assert len(verify.swap_edges(orders)) == 24
        # the first orderings of the enumeration are always joined
        for cap in range(1, len(orders) + 1):
            assert len(verify.swap_edges(orders[:cap])) >= cap - 1

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

    def test_exact_route_builds_no_joint_table(self, monkeypatch):
        # each swap edge builds two three-column laws from the running value's
        # law: none is a joint table over the orderings' variables
        spec = _bench_spec("empirical10_staircase")
        orders = enumerate_consistent_orderings(spec.lattice)
        full = len(construction.exact_fdd(spec).probs)
        built = []
        real = verify.chain_table

        def recorded(kernel, stages, start, *args):
            columns, probs = real(kernel, stages, start, *args)
            built.append((len(columns), len(probs)))
            return columns, probs

        def refuse(spec, *args):
            raise AssertionError("a joint table was built")

        monkeypatch.setattr(verify, "chain_table", recorded)
        monkeypatch.setattr(verify, "exact_fdd", refuse)
        assert ordering_invariance_defect(spec, orders) < 1e-12
        assert len(built) == 2 * 24
        assert {c for c, _ in built} == {3} and max(r for _, r in built) < full / 10


def _differing_slots(a, b) -> int:
    return sum(p != q for p, q in zip(a.positions, b.positions))


def _one_swap_apart(a, b) -> bool:
    """Whether the orderings differ only by the exchange of two adjacent slots."""
    slots = [k for k, (p, q) in enumerate(zip(a.positions, b.positions)) if p != q]
    return (len(slots) == 2 and slots[1] == slots[0] + 1
            and a.positions[slots[0]] == b.positions[slots[1]])


def _bench_spec(stem):
    return load_config(str(CONFIGS / f"{stem}.json")).spec


# the finite-state bench configs whose joint tables fit TABLE_CAP
# (``compound_staircase`` does not: see test_the_bench_agreement_cases_are_all_that_fit)
TABLE_CONFIGS = ("compound_lattice3", "corrupted_lattice3", "empirical10_staircase",
                 "empirical6_staircase", "poisson_lattice4")


def test_the_bench_agreement_cases_are_all_that_fit():
    for path in sorted(CONFIGS.glob("*.json")):
        spec = load_config(str(path)).spec
        if spec.kernel.finite_state and path.stem not in TABLE_CONFIGS:
            with pytest.raises(TableSizeError):
                construction.exact_fdd(spec)


@pytest.fixture
def agreement_cases(invariance_cases, grid4, lattice6):
    """(spec, orderings) of every case the swap-edge TVs are checked on."""
    cases = {stem: (spec, enumerate_consistent_orderings(spec.lattice))
             for stem, spec in ((s, _bench_spec(s)) for s in TABLE_CONFIGS)}
    cases.update(invariance_cases)
    orders6 = enumerate_consistent_orderings(lattice6)
    six = _bench_spec("empirical6_staircase").kernel
    cases["corrupted_staircase"] = (
        FddSpec(lattice6, EmpiricalKernel(6, six.F, corrupted=True)), orders6)
    uneven = CellMeasure(grid4, [(1 + i) / 136 for i in range(16)], "probability")
    cases["uneven_staircase"] = (FddSpec(lattice6, EmpiricalKernel(3, uneven)), orders6)
    return cases


@pytest.mark.parametrize("case", [*TABLE_CONFIGS, "empirical_staircase", "corrupted",
                                  "mixture", "compound", "poisson_initial",
                                  "corrupted_staircase", "uneven_staircase"])
def test_swap_edge_tv_is_the_full_table_tv(case, agreement_cases):
    """On every swap edge, the TV from the running value's law and the two
    exchanged steps equals the TV between the two orderings' full joint
    tables, brought to one variable order."""
    spec, orders = agreement_cases[case]
    tables = {}

    def table(o):
        if o.positions not in tables:
            law = construction.exact_fdd(spec.with_ordering(o))
            tables[o.positions] = law.permuted(verify.canonical_variable_order(o))
        return tables[o.positions]

    edges = verify.swap_edges(orders)
    worst = 0.0
    for o, k in edges:
        swapped = list(o.positions)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        other = ConsistentOrdering(o.lattice, tuple(swapped))
        assert _one_swap_apart(o, other)
        got = verify.swap_edge_tv(spec, o, k)
        assert abs(got - table(o).tv(table(other))) <= 1e-15, (o.positions, k)
        worst = max(worst, got)
    assert len(edges) >= len(orders) - 1
    assert ordering_invariance_defect(spec, orders) == worst
    assert worst > 0.01 if "corrupted" in case else worst < 1e-12


# the cases whose rows read 0: there every member union's law is one law,
# however it is built, and the two routes agree to rounding
MARKOV_AGREEMENT = (*(c for c in TABLE_CONFIGS if c != "corrupted_lattice3"),
                    "empirical_staircase", "compound", "poisson_initial")
# a corrupted kernel's sub-lattice table is not a marginal of the spec's, and
# the mixture is not Markov: there the two routes give the same verdicts
CONTROL_AGREEMENT = ("corrupted_lattice3", "corrupted", "corrupted_staircase", "mixture")
EXACT_TOL = 1e-10


@pytest.mark.parametrize("case", [*MARKOV_AGREEMENT, *CONTROL_AGREEMENT])
def test_markov_rows_agree_with_the_sub_lattice_tables(case, agreement_cases):
    """At every prefix union B, the set-Markov defect of every member A and
    the increment-independence defect of the first two members outside B,
    read from the spec's own table, against the same defects read from the
    table of the closure of B's generators and the target sets."""
    spec, _ = agreement_cases[case]
    law = construction.exact_fdd(spec)
    ordering = spec.ordering
    got, want = [], []
    for k in range(len(ordering) - 1):
        B = ordering.prefix_set(k)
        partition = [c for c in spec.lefts.sets[: k + 1] if c.mask]
        for A in spec.lattice.members:
            got.append(set_markov_defect(spec, A, B, partition, law).defect)
            want.append(ref_sub_lattice_set_markov_defect(spec, A, B, partition))
        a_list = [m for m in spec.lattice.members if m.mask & ~B.mask][:2]
        got.append(increment_vector_independence_defect(spec, B, a_list, law).defect)
        want.append(ref_sub_lattice_increment_independence_defect(spec, B, a_list))
    if case in MARKOV_AGREEMENT:
        assert max(map(abs, np.subtract(got, want))) <= 1e-12
        assert max(got) <= EXACT_TOL
    else:
        assert [g <= EXACT_TOL for g in got] == [w <= EXACT_TOL for w in want]
    if case == "mixture":
        assert min(max(got), max(want)) > 0.01


@pytest.mark.parametrize("case", [*MARKOV_AGREEMENT, *CONTROL_AGREEMENT])
def test_one_step_flow_markov_bounds_every_pair(case, agreement_cases):
    """The one-step flow defect against every knot pair's, on the canonical
    flows of the first orderings: both read 0 on the same cases, and the
    all-pairs defect stays within the one-step bound of the docstring."""
    spec, orders = agreement_cases[case]
    law = construction.exact_fdd(spec)
    # a corrupted kernel's law along another ordering is another process
    flows = [flow_from_ordering(o) for o in
             ([spec.ordering] if "corrupted" in case else orders[:4])]
    for flow in flows:
        got = flow_markov_defect(spec, flow, law).defect
        want = ref_all_pairs_flow_markov_defect(spec, flow)
        assert (got <= 1e-12) == (want <= 1e-12)
        assert got <= want + 1e-12
        assert want <= 2 * (len(flow.stages) - 1) * got + 1e-12
        if case == "mixture":
            assert min(got, want) > 0.01


def _count_tables(monkeypatch):
    """Count the outermost ``exact_fdd`` calls made through any setmarkov
    module (a mixture's table calls it once more per component)."""
    calls, depth = [], []
    real = construction.exact_fdd

    def counted(*args, **kwargs):
        if not depth:
            calls.append(args[0])
        depth.append(1)
        try:
            return real(*args, **kwargs)
        finally:
            depth.pop()

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "setmarkov" and getattr(module, "exact_fdd", None) is real:
            monkeypatch.setattr(module, "exact_fdd", counted)
    return calls


@pytest.mark.parametrize("stem", TABLE_CONFIGS)
def test_validate_builds_one_joint_table(stem, monkeypatch):
    calls = _count_tables(monkeypatch)
    suite.run_validation_suite(load_config(str(CONFIGS / f"{stem}.json")))
    assert len(calls) == 1


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


class TestAlignedSamples:
    """An aligned sample writes each slot of its ordering at the slot's
    canonical column, so it is made in place, with no gathered copy."""

    @pytest.mark.parametrize("stem", ["gaussian_staircase", "dirichlet_staircase",
                                      "empirical6_staircase"])
    def test_aligned_sample_is_the_gathered_copy(self, stem):
        spec = _bench_spec(stem)
        for o in enumerate_consistent_orderings(spec.lattice)[::5]:
            got = verify.aligned_increment_samples(spec, o, 7, 2000)
            want = ref_aligned_increment_samples(spec, o, 7, 2000)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stem", ["gaussian_staircase", "dirichlet_staircase"])
    def test_peak_is_below_two_samples(self, stem):
        # inside a scope the first call filled, every column is a memo hit:
        # the sample and the running sum are what is left, where the gathered
        # copy made two samples
        count, members = 20_000, 6
        spec = _bench_spec(stem)
        o = enumerate_consistent_orderings(spec.lattice)[3]
        with kernels.shared_columns():
            verify.aligned_increment_samples(spec, o, 0, count)
            tracemalloc.start()
            try:
                verify.aligned_increment_samples(spec, o, 0, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * count * members * 8, peak

    @pytest.mark.parametrize("keys", [[0, 0, 1, 2, 3, 4], [0, 1, 2], [1, 2, 3, 4, 5, 6]])
    def test_step_keys_must_be_a_permutation(self, keys):
        with pytest.raises(ConfigError, match="step_keys must be a permutation"):
            sample_increments(_bench_spec("gaussian_staircase"), 0, 10, step_keys=keys)


class TestStreamedOrderings:
    """The Monte Carlo ordering check reduces each ordering's sample to its
    event probabilities before it draws the next one."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("cap", [16, 2])
    @pytest.mark.parametrize("stem", ["gaussian_staircase", "dirichlet_staircase"])
    def test_streamed_defect_is_the_all_at_once_defect(self, stem, cap, seed):
        spec = _bench_spec(stem)
        orders, _ = leading_orderings(spec.lattice, cap)
        got = ordering_invariance_defect(spec, orders, mc=(seed, 2000))
        want = ref_mc_ordering_invariance(spec, orders, seed, 2000)
        assert np.array([got.defect, got.se]).tobytes() == \
            np.array([want.defect, want.se]).tobytes()

    @pytest.mark.parametrize("stem", ["gaussian_staircase", "dirichlet_staircase"])
    def test_peak_does_not_grow_with_the_ordering_count(self, stem):
        # inside a scope the first call filled, every column is a memo hit, so
        # the traced peak is what the check holds besides the shared columns:
        # about two samples of one ordering, for 4 orderings as for 16; one
        # held sample per ordering would take 16 orderings past 3x the 4
        count, members = 20_000, 6
        spec = _bench_spec(stem)
        orders = enumerate_consistent_orderings(spec.lattice)
        peaks = []
        with kernels.shared_columns():
            ordering_invariance_defect(spec, orders, mc=(0, count))
            for k in (4, 16):
                tracemalloc.start()
                try:
                    ordering_invariance_defect(spec, orders[:k], mc=(0, count))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= peaks[0] + count * members * 8 // 2, peaks

    def test_row_past_the_table_cap_is_refused_and_stated(self, monkeypatch):
        # six members: 2^6 - 1 + 12 = 75 events for each of the 16 orderings
        cfg = load_config(str(CONFIGS / "gaussian_staircase.json"))
        orders = enumerate_consistent_orderings(cfg.spec.lattice)
        today = suite.run_validation_suite(cfg)
        monkeypatch.setattr(construction, "TABLE_CAP", 1200)
        assert suite.run_validation_suite(cfg) == today
        monkeypatch.setattr(construction, "TABLE_CAP", 1199)
        # refused before anything is sampled
        with monkeypatch.context() as m:
            m.setattr(verify, "aligned_increment_samples", None)
            with pytest.raises(TableSizeError, match="needs 1200 event probabilities, "
                                                     "more than 1199"):
                ordering_invariance_defect(cfg.spec, orders, mc=(0, 2000))
        rows = suite.run_validation_suite(cfg)
        row = next(r for r in rows if r["name"] == "ordering_invariance")
        assert row["instance"] == (
            "120 ordering pairs, MC sigmas, skipped: the Monte Carlo ordering row needs "
            "1200 event probabilities, more than 1199")
        assert row["defect"] == 0.0 and row["pass"]
        assert [r for r in rows if r is not row] == \
            [r for r in today if r["name"] != "ordering_invariance"]


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

    COLUMNS = pytest.mark.parametrize("stem, quantile, columns", [
        ("gaussian_staircase", "ndtri", 6),
        ("dirichlet_staircase", "betaincinv", 18),
    ])

    @COLUMNS
    def test_validate_draws_each_column_once(self, monkeypatch, stem, quantile, columns):
        self.check_columns(monkeypatch, stem, quantile, columns, cpus=1)

    @COLUMNS
    def test_validate_splits_each_column_over_the_cpus(self, monkeypatch, stem, quantile,
                                                       columns):
        self.check_columns(monkeypatch, stem, quantile, columns, cpus=4)

    def check_columns(self, monkeypatch, stem, quantile, columns, cpus):
        cfg = load_config(str(CONFIGS / f"{stem}.json"))
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        streams = self.count(monkeypatch, construction, "step_uniforms")
        quantiles = self.count(monkeypatch, special, quantile)
        rows = suite.run_validation_suite(cfg)
        assert {r["name"] for r in rows} >= {"ordering_invariance", "marginal_law"}
        assert len(streams) == len(set(streams)) == 6
        # a column holds one quantile per sample, computed in one piece per
        # usable CPU; the dirichlet CK rows also take betaincinv at 9 deciles
        # per probe state, which is no column
        piece = (cfg.mc_samples // cpus,)
        assert sum(q[-1] == piece for q in quantiles) == columns * cpus
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


class TestColumnPool:
    """The outermost ``kernels.shared_columns`` scope owns the thread pool
    that ``kernels.in_pieces`` splits columns over; no other path makes one."""

    @staticmethod
    def pool_threads():
        return [t for t in threading.enumerate()
                if t.name.startswith(kernels.POOL_THREAD_PREFIX)]

    @pytest.fixture
    def pools(self, monkeypatch):
        """Four usable CPUs, and every pool the column scopes make."""
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 4)
        made = []

        class Counted(kernels.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(kernels, "ThreadPoolExecutor", Counted)
        return made

    COLUMN = np.linspace(0.01, 0.99, 4 * kernels.MIN_PIECE)

    @staticmethod
    def dirichlet_orderings():
        spec = load_config(str(CONFIGS / "dirichlet_staircase.json")).spec
        return spec, enumerate_consistent_orderings(spec.lattice)[:2]

    def test_threads_joined_when_the_scope_returns(self, pools):
        with kernels.shared_columns():
            got = kernels.in_pieces(special.ndtri, self.COLUMN)
            assert len(pools) == 1 and self.pool_threads()
        assert self.pool_threads() == []
        assert got.tobytes() == special.ndtri(self.COLUMN).tobytes()

    def test_threads_joined_when_the_scope_raises(self, pools):
        with pytest.raises(RuntimeError, match="inside the scope"):
            with kernels.shared_columns():
                kernels.in_pieces(special.ndtri, self.COLUMN)
                raise RuntimeError("inside the scope")
        assert len(pools) == 1 and self.pool_threads() == []

    def test_threads_joined_when_a_pool_piece_raises(self, pools):
        def fails_past_the_first_piece(v):
            if v[0] > self.COLUMN[0]:
                raise RuntimeError("piece failed")
            return special.ndtri(v)

        with pytest.raises(RuntimeError, match="piece failed"):
            with kernels.shared_columns():
                kernels.in_pieces(fails_past_the_first_piece, self.COLUMN)
        assert len(pools) == 1 and self.pool_threads() == []
        assert kernels._COLUMN_MEMO.get() is None

    def test_nested_scope_reuses_the_outer_pool(self, pools):
        with kernels.shared_columns():
            kernels.in_pieces(special.ndtri, self.COLUMN)
            with kernels.shared_columns():
                kernels.in_pieces(special.ndtri, self.COLUMN)
            assert len(pools) == 1 and self.pool_threads()
            ordering_invariance_defect(*self.dirichlet_orderings(), mc=(0, 20000))
            assert len(pools) == 1
        assert self.pool_threads() == []

    def test_no_pool_until_a_column_is_split(self, pools):
        with kernels.shared_columns():
            kernels.in_pieces(special.ndtri, self.COLUMN[:2 * kernels.MIN_PIECE - 1])
        assert pools == []

    def test_only_the_continuous_validate_makes_a_pool(self, pools, tmp_path):
        def run(command, stem, *extra):
            argv = [command, "--config", str(CONFIGS / f"{stem}.json"),
                    "--out", str(tmp_path / f"{command}-{stem}.out"), *extra]
            assert cli.main(argv) in (0, 1)

        run("sample", "dirichlet_staircase", "--n", "20000", "--workers", "2")
        run("sample", "gaussian_staircase", "--n", "20000")
        run("fdd", "poisson_lattice4")
        run("gencheck", "dirichlet_staircase")
        run("gencheck", "gaussian_staircase")
        run("validate", "corrupted_lattice3")
        assert pools == []
        run("validate", "gaussian_staircase")
        assert len(pools) == 1 and self.pool_threads() == []


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
    want_medians, want_quartiles = ref_mc_probe_thresholds(aligned)
    assert medians.tobytes() == want_medians.tobytes()
    assert quartiles.tobytes() == want_quartiles.tobytes()
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
        flow = flow_from_ordering(spec.ordering)
        assert flow_markov_defect(spec, flow).defect < 1e-12

    def test_single_knot_flow(self, empirical_spec3, grid2):
        flow = DiscreteFlow((0.0,), (cells(grid2, 0),))
        assert flow_markov_defect(empirical_spec3, flow).defect == 0.0

    def test_mixture_fails(self, mixture3):
        flow = flow_from_ordering(mixture3.ordering)
        assert flow_markov_defect(mixture3, flow).defect > 0.01

    def test_stage_not_a_union_of_members_rejected(self, empirical_spec3, grid2):
        # {1, 2} is a union of left neighbourhoods, but no member lies inside it
        flow = DiscreteFlow((0.0, 1.0), (cells(grid2, 0), cells(grid2, 0, 1, 2)))
        assert flow_markov_defect(empirical_spec3, flow).defect < 1e-12
        flow = DiscreteFlow((0.0, 1.0), (cells(grid2, 1, 2), cells(grid2, 0, 1, 2)))
        with pytest.raises(ChainEmbeddingError):
            flow_markov_defect(empirical_spec3, flow)

    def test_staircase_flows(self, lattice6, uniform4):
        spec = FddSpec(lattice6, EmpiricalKernel(2, uniform4))
        for o in enumerate_consistent_orderings(lattice6)[:4]:
            flow = flow_from_ordering(o)
            assert flow_markov_defect(spec, flow).defect < 1e-10


class TestFlowMatching:
    def test_single_leg_flows_match_trivially(self, grid2, uniform2, lattice3):
        k = EmpiricalKernel(2, uniform2)
        f = DiscreteFlow((0.0, 1.0), (cells(grid2, 0), cells(grid2, 0, 1, 2)))
        assert flow_matching_defect(k, f, (0, 1), f, (0, 1), [0, 1, 2]) == 0.0

    def test_two_refinement_chains(self, lattice3, uniform2, orderings3):
        k = EmpiricalKernel(2, uniform2)
        f1 = flow_from_ordering(orderings3[0])
        f2 = flow_from_ordering(orderings3[1])
        assert flow_matching_defect(k, f1, (0, 2), f2, (0, 2), [0, 1, 2]) < 1e-12

    def test_corrupted_kernel_fails_against_refinement(self, lattice3, uniform2,
                                                       orderings3, grid2):
        k = EmpiricalKernel(2, uniform2, corrupted=True)
        coarse = DiscreteFlow((0.0, 1.0), (cells(grid2, 0), cells(grid2, 0, 1, 2)))
        fine = flow_from_ordering(orderings3[0])
        d = flow_matching_defect(k, coarse, (0, 1), fine, (0, 2), [0, 1, 2])
        assert d > 0.01

    def test_mismatched_endpoints_rejected(self, lattice3, uniform2, orderings3, grid2):
        k = EmpiricalKernel(2, uniform2)
        f1 = flow_from_ordering(orderings3[0])
        coarse = DiscreteFlow((0.0, 1.0), (cells(grid2, 0), cells(grid2, 0, 1)))
        with pytest.raises(ConfigError):
            flow_matching_defect(k, coarse, (0, 1), f1, (0, 2), [0])
