import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    DirichletKernel,
    EmpiricalKernel,
    FddSpec,
    GaussianIncrementKernel,
    IndexedSet,
    PoissonIncrementKernel,
    ck_defect,
    cli,
    compose_kernels,
    kernel_eval,
    kernels,
    left_neighbourhoods,
    suite,
)
from setmarkov.config import load_config
from setmarkov.construction import _stream, algebra_values, sample_increments
from setmarkov.distributions import (
    BetaSegment,
    NormalLaw,
    PointMass,
    compound_poisson_laws,
    pmf_ppf,
    tv_distance,
)
from setmarkov.errors import ConfigError, UnsupportedKernelError
from setmarkov.generators import (
    DirichletFlowSemigroup,
    EmpiricalFlowSemigroup,
    GaussianFlowSemigroup,
    JumpFlowSemigroup,
)
from setmarkov.grid import measure_of
from setmarkov.kernels import PMF_TAIL
from setmarkov.lattice import DiscreteFlow

from helpers import ref_binom_ppf, ref_poisson_ppf

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def cells(g, *idx):
    return IndexedSet.from_cells(g, idx)


@pytest.fixture
def sets2(grid2):
    return {
        "s0": cells(grid2, 0),
        "s01": cells(grid2, 0, 1),
        "s02": cells(grid2, 0, 2),
        "s012": cells(grid2, 0, 1, 2),
        "full": cells(grid2, 0, 1, 2, 3),
    }


class TestIdentityLaw:
    def test_every_kind_is_point_mass_at_equal_sets(self, grid2, uniform2, sets2):
        lam = CellMeasure.counting(grid2)
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        kernels = [
            EmpiricalKernel(2, uniform2),
            GaussianIncrementKernel(lam),
            PoissonIncrementKernel(lam),
            CompoundPoissonKernel(lam, (1, 2), (0.5, 0.5)),
            DirichletKernel(alpha),
        ]
        for k in kernels:
            law = kernel_eval(k, sets2["s01"], sets2["s01"], 0.5)
            assert isinstance(law, PointMass)
            assert law.value == 0.5


def _all_kinds(grid2, uniform2):
    lam = CellMeasure(grid2, [0.5, 1.0, 1.5, 2.0])
    alpha = CellMeasure(grid2, [0.5, 1.0, 1.5, 2.0], "dirichlet")
    return [
        (EmpiricalKernel(3, uniform2), uniform2, EmpiricalFlowSemigroup),
        (GaussianIncrementKernel(lam), lam, GaussianFlowSemigroup),
        (PoissonIncrementKernel(lam), lam, JumpFlowSemigroup),
        (CompoundPoissonKernel(lam, (1, 2), (0.5, 0.5)), lam, JumpFlowSemigroup),
        (DirichletKernel(alpha), alpha, DirichletFlowSemigroup),
    ]


class TestKernelProtocol:
    def test_measure_and_grid(self, grid2, uniform2):
        for k, measure, _ in _all_kinds(grid2, uniform2):
            assert k.measure is measure and k.grid == grid2

    def test_probe_states_round_trip_through_internal_states(self, grid2, uniform2):
        for k, _, _ in _all_kinds(grid2, uniform2):
            for x in k.probe_states():
                assert k.display(k.to_state(x)) == x

    def test_display_is_elementwise_on_arrays(self, grid2, uniform2):
        counts = np.array([[0, 1], [2, 3]])
        for k, _, _ in _all_kinds(grid2, uniform2):
            for states in (counts, counts.astype(float), np.array([-0.0, 2.5])):
                got = k.display(states)
                assert isinstance(got, np.ndarray) and got.dtype == np.float64
                want = [float(k.display(v)) for v in states.ravel().tolist()]
                assert got.ravel().tobytes() == np.array(want).tobytes()
            floats = counts.astype(float)
            if k.kind != "empirical":
                assert k.display(floats) is floats

    def test_ppfs_are_vectorised_and_monotone_in_u(self, grid2, uniform2, sets2):
        u = np.linspace(0.01, 0.99, 50)
        for k, _, _ in _all_kinds(grid2, uniform2):
            x = k.initial_ppf(sets2["s0"], u)
            inc = k.increment_ppf(sets2["s0"], sets2["s01"], np.zeros_like(u), u)
            assert x.shape == inc.shape == u.shape
            assert np.all(np.diff(x) >= 0) and np.all(np.diff(inc) >= 0)
            # every probe state in one call: monotone in u state by state
            states = np.array([k.to_state(z) for z in k.probe_states()], dtype=float)
            xs, us = np.tile(states, len(u)), np.repeat(u, len(states))
            mixed = k.increment_ppf(sets2["s0"], sets2["s01"], xs, us)
            assert mixed.shape == us.shape
            for state in states:
                assert np.all(np.diff(mixed[xs == state]) >= 0)

    def test_flow_semigroup_per_kind(self, grid2, uniform2, sets2):
        flow = DiscreteFlow((0.0, 1.0, 2.0), (sets2["s0"], sets2["s01"], sets2["s012"]))
        for k, measure, cls in _all_kinds(grid2, uniform2):
            sg = k.flow_semigroup(flow)
            assert isinstance(sg, cls)
            assert sg.trace(2.0) == pytest.approx(measure.weights[:3].sum())

    def test_monte_carlo_route_is_dirichlet_only(self, grid2, uniform2, sets2):
        for k, _, _ in _all_kinds(grid2, uniform2)[:4]:
            with pytest.raises(UnsupportedKernelError):
                ck_defect(k, sets2["s0"], sets2["s01"], sets2["s012"], [0.0], mc=(1, 100))


def _uniforms(count=100_000, key=0):
    """Clipped Philox uniforms: the column ``sample_increments`` reads."""
    return _stream(11, key, 0, count)


class TestFiniteStateSampler:
    """The finite-state kinds sample by inverting their memoised pmfs."""

    @pytest.mark.parametrize("p", [0.0, 0.05, 1 / 6, 0.5, 0.9, 1.0])
    def test_empirical_draws_equal_scipy_binomial(self, grid2, p):
        F = CellMeasure(grid2, [p, 1.0 - p, 0.0, 0.0], "probability")
        u = _uniforms()
        for n in range(1, 11):
            got = EmpiricalKernel(n, F).initial_ppf(cells(grid2, 0), u)
            assert got.tobytes() == ref_binom_ppf(u, n, p).tobytes(), n

    @pytest.mark.parametrize("mean", [0.0, 0.05, 0.7, 2.0, 5.0])
    def test_poisson_draws_equal_scipy_poisson(self, grid2, sets2, mean):
        k = PoissonIncrementKernel(CellMeasure(grid2, [mean, mean, 0.0, 0.0]))
        u = _uniforms()
        want = ref_poisson_ppf(u, mean).tobytes()
        assert k.initial_ppf(sets2["s0"], u).tobytes() == want
        assert k.increment_ppf(sets2["s0"], sets2["s01"], np.zeros_like(u), u).tobytes() == want

    def test_empirical_states_drawn_together_equal_row_by_row(self, grid2, uniform2, sets2):
        n = 4
        k = EmpiricalKernel(n, uniform2)
        x = np.arange(3000) % (n + 1.0)  # every state, n (no point left) included
        u = _uniforms(3000, key=5)
        for prev, cur in ((sets2["s0"], sets2["s012"]), (sets2["s01"], sets2["s01"])):
            got = k.increment_ppf(prev, cur, x, u)
            rows = [pmf_ppf(k.increment_pmf(prev, cur, s), u[i:i + 1])[0]
                    for i, s in enumerate(x)]
            assert got.tobytes() == np.array(rows).tobytes()
        p = k.success_probability(sets2["s0"], sets2["s012"])
        got = k.increment_ppf(sets2["s0"], sets2["s012"], x, u)
        assert got.tobytes() == ref_binom_ppf(u, n - x, p).tobytes()
        assert not got[x == n].any()
        assert not k.increment_ppf(sets2["s01"], sets2["s01"], x, u).any()

    @pytest.mark.parametrize("n, p", [(1001, 0.5), (2000, 0.05), (2000, 1.0), (20000, 0.3)])
    def test_large_empirical_tables_are_short_and_equal_scipy(self, grid2, n, p):
        # past DIRECT_BINOMIAL_TRIALS comb(n, n // 2) may overflow a float;
        # a table holds the counts within 12 sd + 70 of the mean
        F = CellMeasure(grid2, [p, (1.0 - p) / 2, (1.0 - p) / 2, 0.0], "probability")
        k, B, B2 = EmpiricalKernel(n, F), cells(grid2, 0), cells(grid2, 0, 1)
        u = _uniforms(20_000)
        x = k.initial_ppf(B, u)
        assert x.tobytes() == ref_binom_ppf(u, n, p).tobytes()
        assert len(k.initial_pmf_for(B)) <= 24 * math.sqrt(n * p * (1 - p)) + 142
        v = _uniforms(20_000, key=1)
        got = k.increment_ppf(B, B2, x, v)
        want = ref_binom_ppf(v, n - x, k.success_probability(B, B2))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mean", [144.0, 1e3, 1e5])
    def test_large_poisson_tables_are_short_and_equal_scipy(self, grid2, sets2, mean):
        # from a mean of 144 the counts below mean - 12 sqrt(mean) are cut
        k = PoissonIncrementKernel(CellMeasure(grid2, [mean, 0.0, 0.0, 0.0]))
        u = _uniforms(20_000)
        assert k.initial_ppf(sets2["s0"], u).tobytes() == ref_poisson_ppf(u, mean).tobytes()
        assert len(k.initial_pmf_for(sets2["s0"])) <= 20 * math.sqrt(mean) + 40

    def test_ties_draw_the_next_atom_and_the_cut_tail_the_largest(self, grid2, uniform2,
                                                                   sets2):
        lam = CellMeasure(grid2, [0.5, 1.0, 1.5, 2.0])
        for k in (EmpiricalKernel(3, uniform2), PoissonIncrementKernel(lam),
                  CompoundPoissonKernel(lam, (1, 2), (0.5, 0.5))):
            B, B2 = sets2["s0"], sets2["s01"]
            vals, probs = zip(*sorted(k.increment_pmf(B, B2, 0).items()))
            cum = np.cumsum(probs)
            ties = k.increment_ppf(B, B2, np.zeros(len(cum) - 1), cum[:-1])
            assert ties.tolist() == list(vals[1:]), k.kind
            if k.kind == "compound_poisson":
                # Panjer's table keeps the values of up to K jumps with all
                # their paths: the mass it leaves out does not show in floats
                assert cum[-1] >= 1.0
                continue
            if k.kind == "poisson":
                assert cum[-1] < 1.0 - 1e-16  # the table is cut: a tail is left
            tail = np.array([np.nextafter(cum[-1], 2.0), 1.0 - 1e-16])
            assert k.increment_ppf(B, B2, np.zeros(2), tail).tolist() == [vals[-1]] * 2


class _WholeSetPoisson(PoissonIncrementKernel):
    """Mutant: the step from B to B' adds a poisson count of mean lam(B'),
    not lam(B' minus B).  The exact tables and the sampler both read
    ``increment_pmf``, so this one override breaks both."""

    def increment_pmf(self, B, B2, state=0):
        return self._memo((B.mask, B2.mask),
                          lambda: self._mean_pmf(measure_of(self.lam, B2)))


def test_poisson_mutant_breaks_samples_and_validate():
    cfg = load_config(str(CONFIGS / "poisson_lattice4.json"))
    real = cfg.spec
    cfg.spec = FddSpec(real.lattice, _WholeSetPoisson(real.kernel.lam), real.ordering)
    assert not np.array_equal(sample_increments(real, 0, 2000),
                              sample_increments(cfg.spec, 0, 2000))
    rows = {r["name"]: r["pass"] for r in suite.run_validation_suite(cfg)}
    # the generator rows read the semigroup's own pmf of the mean, and the
    # mutant is still a process with independent increments
    assert {name for name, ok in rows.items() if not ok} == {
        "chapman_kolmogorov", "ordering_invariance", "flow_matching"}


class _SwappedJumpCompound(CompoundPoissonKernel):
    """Mutant: the exact tables and the sampler read the jump law with its
    probabilities swapped; the generator still reads the real jump law."""

    def _pmfs_of_means(self, means):
        return compound_poisson_laws(means, self.jump_values, self.jump_probs[::-1])


def test_compound_mutant_breaks_samples_and_validate():
    cfg = load_config(str(CONFIGS / "compound_lattice3.json"))
    real = cfg.spec
    k = real.kernel
    cfg.spec = FddSpec(real.lattice, _SwappedJumpCompound(k.lam, k.jump_values, k.jump_probs),
                       real.ordering)
    assert not np.array_equal(sample_increments(real, 0, 2000),
                              sample_increments(cfg.spec, 0, 2000))
    rows = {r["name"]: r["pass"] for r in suite.run_validation_suite(cfg)}
    # the mutant is still a process with independent increments, so only
    # the rows that hold its semigroup against its generator see it
    assert {name for name, ok in rows.items() if not ok} == {
        "integral_identity", "generator_fd_order"}


class _WholeSetGaussian(GaussianIncrementKernel):
    """Mutant: the step from B to B' is normal with variance lam(B'), not
    lam(B' minus B), both in its law and in the sampler's quantile column;
    its flow semigroup still reads the real variances."""

    def law(self, B, B2, x):
        return NormalLaw(float(x), measure_of(self.lam, B2))

    def increment_ppf(self, prev, cur, x, u):
        return kernels._normal_ppf(u) * np.sqrt(measure_of(self.lam, cur))


def test_gaussian_mutant_breaks_samples_and_validate(tmp_path, monkeypatch):
    path = str(CONFIGS / "gaussian_staircase.json")
    cfg = load_config(path)
    real = cfg.spec
    cfg.spec = FddSpec(real.lattice, _WholeSetGaussian(real.kernel.lam), real.ordering)
    assert not np.array_equal(sample_increments(real, 0, 2000),
                              sample_increments(cfg.spec, 0, 2000))
    monkeypatch.setattr(cli, "load_config", lambda _: cfg)
    out = tmp_path / "report.json"
    assert cli.main(["validate", "--config", path, "--out", str(out)]) == 1
    rows = {r["name"]: r["pass"] for r in json.loads(out.read_text())["checks"]}
    # integral_identity and generator_fd_order read the flow semigroup, which
    # keeps the real variances
    assert {name for name, ok in rows.items() if not ok} == {
        "chapman_kolmogorov", "ordering_invariance", "marginal_law"}


class _ShortComplementDirichlet(DirichletKernel):
    """Mutant: the step from B to B' is x + (1 - x) Beta(alpha(B' minus B),
    alpha(B complement)), not alpha(B' complement), in its law, in the
    sampler's quantile column and in the Monte Carlo CK draws; its flow
    semigroup still reads the real complement masses."""

    def law(self, B, B2, x):
        if float(x) >= 1.0:
            return PointMass(1.0)
        return BetaSegment(measure_of(self.alpha, B2 - B),
                           measure_of(self.alpha, B.complement()), lo=float(x))

    def increment_ppf(self, prev, cur, x, u):
        return (1.0 - x) * kernels._beta_ppf(u, measure_of(self.alpha, cur - prev),
                                             measure_of(self.alpha, prev.complement()))

    def _beta_steps(self, rng, B, B2, x):
        a = measure_of(self.alpha, B2 - B)
        if a == 0:
            return x
        out = np.ones_like(x)
        live = x < 1.0
        b = measure_of(self.alpha, B.complement())
        out[live] = x[live] + (1.0 - x[live]) * rng.beta(a, b, size=int(live.sum()))
        return out


def test_dirichlet_mutant_breaks_samples_and_validate(tmp_path, monkeypatch):
    path = str(CONFIGS / "dirichlet_staircase.json")
    cfg = load_config(path)
    real = cfg.spec
    cfg.spec = FddSpec(real.lattice, _ShortComplementDirichlet(real.kernel.alpha),
                       real.ordering)
    assert not np.array_equal(sample_increments(real, 0, 2000),
                              sample_increments(cfg.spec, 0, 2000))
    monkeypatch.setattr(cli, "load_config", lambda _: cfg)
    out = tmp_path / "report.json"
    assert cli.main(["validate", "--config", path, "--out", str(out)]) == 1
    rows = {r["name"]: r["pass"] for r in json.loads(out.read_text())["checks"]}
    # integral_identity and generator_fd_order read the flow semigroup, which
    # keeps the real complement masses; the Monte Carlo ordering_invariance
    # row reads 0.9 sigma against it
    assert {name for name, ok in rows.items() if not ok} == {
        "chapman_kolmogorov", "marginal_law"}


def _stats_beta_ppf(a, b, levels):
    return np.array([stats.beta.ppf(q, a, b) for q in levels])


def test_betaincinv_is_the_stats_beta_ppf_at_the_deciles():
    levels = np.linspace(0.1, 0.9, 9)
    params = (0.05, 0.5, 1.0, 2.5, 8.0, 40.0)
    for a, b in itertools.product(params, params):
        assert (special.betaincinv(a, b, levels).tobytes()
                == _stats_beta_ppf(a, b, levels).tobytes()), (a, b)


class _CheckedBetaQuantiles:
    """``scipy.special`` whose ``betaincinv`` also takes ``stats.beta.ppf``
    level by level, the call the CK deciles made before, and records
    whether the two agree bit for bit."""

    def __init__(self):
        self.agree = []

    def __getattr__(self, name):
        return getattr(special, name)

    def betaincinv(self, a, b, levels):
        out = special.betaincinv(a, b, levels)
        self.agree.append(out.tobytes() == _stats_beta_ppf(a, b, levels).tobytes())
        return out


def test_ck_deciles_are_the_stats_beta_quantiles_bit_for_bit(monkeypatch):
    cfg = load_config(str(CONFIGS / "dirichlet_staircase.json"))
    k, o = cfg.spec.kernel, cfg.spec.ordering
    spy = _CheckedBetaQuantiles()
    monkeypatch.setattr(kernels, "special", spy)
    last = len(o) - 1
    for i, j, m in [(0, 1, last), (1, 2, last), (0, 3, last)]:
        ck_defect(k, o.prefix_set(i), o.prefix_set(j), o.prefix_set(m), k.probe_states(),
                  mc=(0, 4000))
    assert spy.agree and all(spy.agree)


@pytest.mark.parametrize("seed", [0, 10, 27])
def test_ks_statistic_is_the_stats_kstest_statistic_bit_for_bit(seed):
    # seed 27 is one of the dirichlet marginal_law false alarms (ROADMAP item 2)
    cfg = load_config(str(CONFIGS / "dirichlet_staircase.json"))
    alpha = cfg.spec.kernel.measure
    arr = sample_increments(cfg.spec, seed, cfg.mc_samples)
    lefts = left_neighbourhoods(cfg.spec.ordering)
    for m in cfg.lattice.members:
        vals = algebra_values(lefts, arr, [m])[:, 0]
        a = measure_of(alpha, m)
        b = alpha.total - a
        want = stats.kstest(vals, lambda z: stats.beta.cdf(z, a, b)).statistic
        got = suite.ks_statistic(vals, BetaSegment(a, b).cdf)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _read_only_column(n):
    """n clipped uniforms of one stream, read only, as the column memo holds them."""
    u = _stream(11, 3, 0, n)
    u.flags.writeable = False
    return u


class TestInPieces:
    """``kernels.in_pieces`` gives the bits of the single call whatever the
    number of pieces, since every function it splits is elementwise.  The
    piece count is forced through the CPU-count lookup."""

    FUNCTIONS = {
        "betaincinv": lambda v: special.betaincinv(0.5, 2.5, v),
        "ndtri": lambda v: special.ndtri(v),
        "beta_segment_cdf": BetaSegment(1.5, 3.5, lo=0.25).cdf,
    }
    MIN = kernels.MIN_PIECE

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, MIN - 1, MIN, 2 * MIN + 1, 20000])
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_bits_of_the_single_call(self, monkeypatch, name, n, cpus):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        f = self.FUNCTIONS[name]
        x = _read_only_column(n)
        sizes = []

        def counted(v):
            sizes.append(len(v))
            return f(v)

        with kernels.shared_columns():
            got = kernels.in_pieces(counted, x)
        want = f(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert sum(sizes) == n and len(sizes) == max(1, min(cpus, n // self.MIN))
        assert len(sizes) == 1 or min(sizes) >= self.MIN

    def test_outside_a_scope_the_single_call(self, monkeypatch):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 4)
        calls = []

        def f(v):
            calls.append(special.ndtri(v))
            return calls[-1]

        assert kernels.in_pieces(f, _read_only_column(20000)) is calls[0]
        assert len(calls) == 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_ks_statistic_in_pieces(self, monkeypatch, cpus):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        vals = special.betaincinv(1.5, 3.5, _read_only_column(20000))
        cdf = BetaSegment(1.5, 3.5).cdf
        want = suite.ks_statistic(vals, cdf)
        with kernels.shared_columns():
            got = suite.ks_statistic(vals, cdf)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestEmpiricalKernel:
    def test_binomial_step(self, grid2, uniform2, sets2):
        k = EmpiricalKernel(2, uniform2)
        law = kernel_eval(k, sets2["s0"], sets2["s01"], 0.0)
        got = law.as_dict()
        # success probability 0.25 / 0.75 = 1/3 on displayed states {0, 1/2, 1}
        assert got[0.0] == pytest.approx(4 / 9, abs=1e-15)
        assert got[0.5] == pytest.approx(4 / 9, abs=1e-15)
        assert got[1.0] == pytest.approx(1 / 9, abs=1e-15)

    def test_exhausted_mass_forces_point_mass(self, grid2, sets2):
        F = CellMeasure(grid2, [1.0, 0.0, 0.0, 0.0], "probability")
        k = EmpiricalKernel(2, F)
        law = kernel_eval(k, sets2["s0"], sets2["s012"], 1.0)
        assert law.as_dict() == {1.0: 1.0}

    def test_non_nested_rejected(self, grid2, uniform2, sets2):
        k = EmpiricalKernel(2, uniform2)
        with pytest.raises(ConfigError):
            kernel_eval(k, sets2["s01"], sets2["s02"], 0.0)

    def test_state_must_be_multiple(self, grid2, uniform2, sets2):
        k = EmpiricalKernel(2, uniform2)
        with pytest.raises(ConfigError):
            kernel_eval(k, sets2["s0"], sets2["s01"], 0.3)

    def test_marginal_pushforward_is_binomial(self, grid2, uniform2, sets2):
        # push the initial law through the kernel: must stay binomial(n, F(A))
        k = EmpiricalKernel(3, uniform2)
        from setmarkov.distributions import binomial_pmf
        init = k.initial_pmf_for(cells(grid2, 0))
        out: dict = {}
        for x, p in init.items():
            for y, q in k.step_pmf(cells(grid2, 0), sets2["s012"], x).items():
                out[y] = out.get(y, 0.0) + p * q
        want = binomial_pmf(3, 0.75).as_dict()
        assert tv_distance(out, want) < 1e-12


class TestIidIncrementKernels:
    def test_gaussian_instantiation(self, grid2, sets2):
        lam = CellMeasure(grid2, [0.1, 0.25, 0.3, 0.35])
        k = GaussianIncrementKernel(lam)
        law = kernel_eval(k, sets2["s0"], sets2["s01"], 1.0)
        assert isinstance(law, NormalLaw)
        assert law.mean == 1.0 and law.var == pytest.approx(0.25)

    def test_increment_depends_only_on_difference_measure(self, grid2, sets2):
        lam = CellMeasure(grid2, [0.5, 0.25, 0.25, 0.5])
        k = GaussianIncrementKernel(lam)
        a = kernel_eval(k, sets2["s0"], sets2["s01"], 0.0)
        b = kernel_eval(k, sets2["s0"], sets2["s02"], 0.0)
        assert a.var == pytest.approx(b.var)
        kp = PoissonIncrementKernel(lam)
        assert kernel_eval(kp, sets2["s0"], sets2["s01"], 0.0).as_dict() == \
            kernel_eval(kp, sets2["s0"], sets2["s02"], 0.0).as_dict()

    def test_poisson_law(self, grid2, sets2):
        lam = CellMeasure.counting(grid2)
        k = PoissonIncrementKernel(lam)
        law = kernel_eval(k, sets2["s0"], sets2["s012"], 1.0)
        # 1 + Poisson(2), renormalised over the atoms the PMF_TAIL cut kept
        assert law.values == tuple(1.0 + j for j in range(len(law.values)))
        assert law.probs[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert sum(law.probs) == pytest.approx(1.0, abs=1e-15)

    def test_poisson_law_cdf_is_stats_poisson_cdf(self, grid2, sets2):
        for weight in (0.05, 1.0, 3.7, 40.0):
            k = PoissonIncrementKernel(CellMeasure(grid2, [weight] * 4))
            mean = 2.0 * weight
            for x in (0.0, 3.0):
                law = kernel_eval(k, sets2["s0"], sets2["s012"], x)
                for z in np.arange(x - 1.0, x + mean + 12.0 * math.sqrt(mean) + 20.0, 0.5):
                    want = stats.poisson.cdf(math.floor(z - x), mean)
                    assert abs(law.cdf(z) - want) <= PMF_TAIL

    def test_every_finite_law_is_its_renormalised_step_pmf(self, grid2, sets2):
        lam = CellMeasure(grid2, [0.3, 1.1, 0.7, 2.0])
        skewed = CellMeasure(grid2, [0.4, 0.3, 0.2, 0.1], "probability")
        kernels = [(EmpiricalKernel(4, skewed), 0.25),
                   (PoissonIncrementKernel(lam), 2.0),
                   (CompoundPoissonKernel(lam, (1, 2.5), (0.6, 0.4)), 3.5)]
        for k, x in kernels:
            for B2 in ("s01", "s012", "full"):
                law = k.law(sets2["s0"], sets2[B2], x)
                pmf = k.step_pmf(sets2["s0"], sets2[B2], k.to_state(x))
                total = sum(pmf.values())
                want = {k.display(v): p / total for v, p in pmf.items()}
                assert law.as_dict() == pytest.approx(want, rel=1e-15, abs=0.0)
                assert sorted(law.as_dict()) == sorted(want)

    def test_compound_poisson_step_pmf(self, grid2, sets2):
        lam = CellMeasure.counting(grid2)
        k = CompoundPoissonKernel(lam, (1, 3), (0.75, 0.25))
        pmf = k.step_pmf(sets2["s0"], sets2["s01"], 0.0)
        assert pmf[0.0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert pmf[1.0] == pytest.approx(math.exp(-1.0) * 0.75, abs=1e-12)


class TestDirichletKernel:
    def test_beta_step(self, grid2, sets2):
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        k = DirichletKernel(alpha)
        law = kernel_eval(k, sets2["s0"], sets2["s01"], 0.0)
        assert isinstance(law, BetaSegment)
        assert (law.a, law.b, law.lo) == (1.0, 2.0, 0.0)
        # closed-form Beta(1,2) cdf: 1 - (1 - z)^2
        assert law.cdf(0.5) == pytest.approx(0.75, abs=1e-12)

    def test_saturated_state_stays_at_one(self, grid2, sets2):
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        k = DirichletKernel(alpha)
        assert kernel_eval(k, sets2["s0"], sets2["s01"], 1.0) == PointMass(1.0)

    def test_full_grid_forces_total_mass_one(self, grid2, sets2):
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        k = DirichletKernel(alpha)
        law = kernel_eval(k, sets2["s0"], sets2["full"], 0.25)
        assert law.cdf(1.0) == pytest.approx(1.0)
        assert law.cdf(0.999) == 0.0  # point mass at the upper endpoint

    def test_states_stay_monotone_in_unit_interval(self, grid2, sets2):
        alpha = CellMeasure(grid2, [0.5, 1.0, 1.5, 1.0], "dirichlet")
        k = DirichletKernel(alpha)
        u = np.random.default_rng(5).random((3, 200))
        x = k.initial_ppf(cells(grid2, 0), u[0])
        y = x + k.increment_ppf(cells(grid2, 0), cells(grid2, 0, 1), x, u[1])
        z = y + k.increment_ppf(cells(grid2, 0, 1), cells(grid2, 0, 1, 2), y, u[2])
        assert np.all((0.0 <= x) & (x <= y) & (y <= z) & (z <= 1.0))


class TestComposition:
    def test_identity_composition(self, grid2, uniform2, sets2):
        k = EmpiricalKernel(2, uniform2)
        law = compose_kernels(k, sets2["s0"], sets2["s0"], sets2["s0"], 0.5)
        assert law.as_dict() == {0.5: 1.0}

    def test_empirical_composition_equals_direct(self, grid2, uniform2, sets2):
        k = EmpiricalKernel(1, uniform2)
        comp = compose_kernels(k, sets2["s0"], sets2["s01"], sets2["s012"], 0.0)
        direct = kernel_eval(k, sets2["s0"], sets2["s012"], 0.0)
        assert tv_distance(comp.as_dict(), direct.as_dict()) < 1e-15

    def test_zero_measure_leg_returns_other_leg_exactly(self, grid2, sets2):
        lam = CellMeasure(grid2, [1.0, 0.0, 2.0, 1.0])
        k = GaussianIncrementKernel(lam)
        # the second leg adds nothing, the first leg adds only a null cell
        assert compose_kernels(k, sets2["s0"], sets2["s012"], sets2["s012"], 0.5) == \
            NormalLaw(0.5, 2.0)
        assert compose_kernels(k, sets2["s0"], sets2["s01"], sets2["s012"], 0.5) == \
            NormalLaw(0.5, 2.0)

    def test_gaussian_variances_add(self, grid2, sets2):
        lam = CellMeasure(grid2, [0.5, 0.25, 0.75, 0.5])
        k = GaussianIncrementKernel(lam)
        v1 = kernel_eval(k, sets2["s0"], sets2["s01"], 0.0).var
        v2 = kernel_eval(k, sets2["s01"], sets2["s012"], 0.0).var
        direct = kernel_eval(k, sets2["s0"], sets2["s012"], 0.0).var
        assert v1 + v2 == pytest.approx(direct)


class TestChapmanKolmogorov:
    def test_empirical_exact(self, grid2, uniform2, sets2):
        k = EmpiricalKernel(3, uniform2)
        states = [j / 3 for j in range(4)]
        r = ck_defect(k, sets2["s0"], sets2["s01"], sets2["s012"], states)
        assert r.defect < 1e-12

    def test_gaussian_quadrature_cdf(self, grid2, sets2):
        lam = CellMeasure.counting(grid2)
        k = GaussianIncrementKernel(lam)
        r = ck_defect(k, sets2["s0"], sets2["s01"], sets2["s012"], [0.0, 1.0])
        assert r.defect < 1e-6

    def test_gaussian_composition_to_machine_precision(self, grid2, sets2):
        lam = CellMeasure(grid2, [2.0] * 4)
        k = GaussianIncrementKernel(lam)
        for B1 in (sets2["s01"], sets2["s012"]):
            r = ck_defect(k, sets2["s0"], B1, sets2["s012"], k.probe_states())
            assert r.defect < 1e-14

    def test_dirichlet_monte_carlo_matches_scalar_draws(self, grid2, sets2):
        # the vectorised route draws the same Philox stream, in the same
        # order, as one scalar beta draw per path and leg
        alpha = CellMeasure(grid2, [0.5, 1.0, 1.5, 1.0], "dirichlet")
        k = DirichletKernel(alpha)
        B, B1, B2 = sets2["s0"], sets2["s01"], sets2["s012"]
        seed, count, x = 9, 500, 0.25
        rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
        ys = [x + (1 - x) * float(rng.beta(1.0, 2.5)) for _ in range(count)]
        zs = np.sort([y + (1 - y) * float(rng.beta(1.5, 1.0)) for y in ys])
        levels = np.linspace(0.1, 0.9, 9)
        probes = [x + (1 - x) * stats.beta.ppf(q, 2.5, 1.0) for q in levels]
        emp = np.searchsorted(zs, probes, side="right") / count
        ses = np.sqrt(levels * (1 - levels) / count)
        i = int(np.argmax(np.abs(emp - levels) / ses))
        r = ck_defect(k, B, B1, B2, [x], mc=(seed, count))
        assert (r.defect, r.se) == (abs(emp[i] - levels[i]), ses[i])

    def test_dirichlet_monte_carlo(self, grid2, sets2):
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        k = DirichletKernel(alpha)
        r = ck_defect(k, sets2["s0"], sets2["s01"], sets2["s012"], [0.0, 0.25],
                      mc=(2024, 100_000))
        assert r.se is not None
        assert r.sigmas < 3.0

    def test_dirichlet_monte_carlo_skips_point_mass_direct_law(self, grid2, sets2):
        # B -> B2 adds only a cell of zero weight: the direct law is a point
        # mass at x, exact on both routes, and must not score a defect
        alpha = CellMeasure(grid2, [1.0, 0.0, 1.0, 1.0], "dirichlet")
        k = DirichletKernel(alpha)
        r = ck_defect(k, sets2["s0"], sets2["s01"], sets2["s01"], [0.0, 0.25],
                      mc=(3, 2000))
        assert r.defect == 0.0

    def test_corrupted_kernel_breaks_composition(self, grid2, uniform2, sets2):
        k = EmpiricalKernel(2, uniform2, corrupted=True)
        states = [0.0, 0.5, 1.0]
        r = ck_defect(k, sets2["s0"], sets2["s01"], sets2["s012"], states)
        assert r.defect > 0.01

    def test_compound_poisson_exact(self, grid2, sets2):
        lam = CellMeasure(grid2, [0.3, 0.4, 0.5, 0.2])
        k = CompoundPoissonKernel(lam, (1, 2), (0.6, 0.4))
        r = ck_defect(k, sets2["s0"], sets2["s01"], sets2["s012"], [0.0, 1.0])
        assert r.defect < 1e-10

    def test_compound_poisson_float_jumps_exact(self, grid2, sets2):
        lam = CellMeasure(grid2, [0.4] * 4)
        k = CompoundPoissonKernel(lam, (0.5, 1.7), (0.7, 0.3))
        r = ck_defect(k, sets2["s0"], sets2["s01"], sets2["s012"], [0.0])
        assert r.defect < 1e-10

    def test_dirichlet_quadrature_composition(self, grid2, sets2):
        # quadrature route of the composed cdf against the direct beta cdf
        alpha = CellMeasure(grid2, [1.0] * 4, "dirichlet")
        k = DirichletKernel(alpha)
        comp = compose_kernels(k, sets2["s0"], sets2["s01"], sets2["s012"], 0.0)
        direct = kernel_eval(k, sets2["s0"], sets2["s012"], 0.0)
        for z in (0.2, 0.5, 0.8):
            assert comp.cdf(z) == pytest.approx(direct.cdf(z), abs=1e-6)


@pytest.mark.parametrize("name", ["empirical10_staircase", "poisson_lattice4",
                                  "compound_lattice3", "corrupted_lattice3"])
def test_degenerate_prefix_triples_read_exactly_0(name):
    # the composition row skips the prefix triples with a leg that does not
    # move: both chains are then the same chain, and ck_defect reads 0.0
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    kernel = cfg.spec.kernel
    orders, _, _ = suite._orderings(cfg)
    degenerate = set()
    for o in orders:
        masks = o.prefix_masks
        for i, j, k in itertools.combinations_with_replacement(range(len(masks)), 3):
            key = (masks[i], masks[j], masks[k])
            if (masks[i] == masks[j] or masks[j] == masks[k]) and key not in degenerate:
                degenerate.add(key)
                r = ck_defect(kernel, o.prefix_set(i), o.prefix_set(j), o.prefix_set(k),
                              kernel.probe_states())
                assert r.defect == 0.0
    assert degenerate
