import math

import numpy as np
import pytest
from scipy import stats

from setmarkov.distributions import (
    BetaSegment,
    FinitePmf,
    NormalLaw,
    PointMass,
    TwoStage,
    binomial_coefficients,
    binomial_pmf,
    compound_poisson_dict,
    pmf_ppf,
    tv_distance,
)
from setmarkov.errors import ConfigError


def test_binomial_pmf_exact():
    pmf = binomial_pmf(2, 1.0 / 3.0)
    assert pmf.as_dict()[0] == pytest.approx(4 / 9, abs=1e-15)
    assert pmf.as_dict()[1] == pytest.approx(4 / 9, abs=1e-15)
    assert pmf.as_dict()[2] == pytest.approx(1 / 9, abs=1e-15)


def test_binomial_coefficients_are_the_float_of_math_comb():
    # every row up to 300 trials, and sampled rows and ranges at 1000
    for n in range(301):
        assert binomial_coefficients(n, range(n + 1)) == [float(math.comb(n, j))
                                                         for j in range(n + 1)]
    for n, counts in [(1000, range(1001)), (999, range(400, 600)), (1000, range(1000, 1001)),
                      (997, range(0, 1)), (1000, range(480, 521))]:
        assert binomial_coefficients(n, counts) == [float(math.comb(n, j)) for j in counts]


def test_finite_pmf_validation():
    with pytest.raises(ConfigError):
        FinitePmf([0, 1], [0.6, 0.6])
    with pytest.raises(ConfigError):
        FinitePmf([0, 1], [1.2, -0.2])


def test_finite_pmf_cdf_and_sampling():
    pmf = FinitePmf([0.0, 1.0, 2.0], [0.2, 0.5, 0.3])
    assert pmf.cdf(-0.5) == 0.0
    assert pmf.cdf(1.0) == pytest.approx(0.7)
    draws = pmf_ppf(pmf.as_dict(), np.random.default_rng(0).random(4000))
    assert np.mean(draws == 0.0) == pytest.approx(0.2, abs=0.03)
    assert np.mean(draws == 2.0) == pytest.approx(0.3, abs=0.03)


def test_point_mass():
    d = PointMass(1.5)
    assert d.cdf(1.4) == 0.0 and d.cdf(1.5) == 1.0
    assert np.all(pmf_ppf(d.as_dict(), np.array([1e-300, 0.5, 1.0 - 1e-16])) == 1.5)


def test_normal_law():
    d = NormalLaw(1.0, 0.25)
    assert d.cdf(1.0) == pytest.approx(0.5)
    assert d.cdf(1.5) == pytest.approx(0.841344746, abs=1e-8)
    degenerate = NormalLaw(2.0, 0.0)
    assert degenerate.cdf(1.99) == 0.0 and degenerate.cdf(2.0) == 1.0


def test_beta_segment_cdf():
    # Beta(1, 2) on [0, 1]: cdf(z) = 1 - (1 - z)^2
    d = BetaSegment(1.0, 2.0, 0.0)
    assert d.cdf(0.5) == pytest.approx(0.75, abs=1e-12)
    shifted = BetaSegment(1.0, 2.0, 0.5)
    assert shifted.cdf(0.75) == pytest.approx(0.75, abs=1e-12)


def test_beta_segment_degenerate_endpoints():
    assert BetaSegment(2.0, 0.0, 0.3).cdf(0.999) == 0.0  # point mass at 1
    assert BetaSegment(0.0, 2.0, 0.3).cdf(0.3) == 1.0    # no mass to add
    full = BetaSegment(1.0, 1.0, 1.0)  # started at 1: stays there
    assert full.cdf(0.999) == 0.0 and full.cdf(1.0) == 1.0


@pytest.mark.parametrize("lo", [0.0, 0.2, 0.75])
@pytest.mark.parametrize("a, b", [(0.5, 0.5), (1.5, 2.5), (0.05, 30.0), (7.5, 0.3), (2.0, 1.0)])
def test_beta_segment_cdf_is_the_stats_beta_cdf_bit_for_bit(a, b, lo):
    # betainc on y clipped into [0, 1], against the stats.beta.cdf it replaced
    # (0 below the support, 1 above it, betainc inside)
    seg = BetaSegment(a, b, lo)
    probes = np.concatenate([
        [-np.inf, -1.0, lo - 1e-12, np.nextafter(lo, -1.0), lo, np.nextafter(lo, 2.0)],
        np.linspace(lo, 1.0, 41)[1:-1],
        [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, np.inf]])
    want = stats.beta.cdf((probes - lo) / (1.0 - lo), a, b)
    assert seg.cdf(probes).tobytes() == want.tobytes()
    for z, w in zip(probes, want):
        got = seg.cdf(float(z))
        assert type(got) is float and np.float64(got).tobytes() == w.tobytes()


@pytest.mark.parametrize("a, b, lo, atom", [(0.0, 2.0, 0.3, 0.3), (0.0, 0.0, 0.3, 0.3),
                                            (2.0, 0.0, 0.3, 1.0), (1.5, 2.5, 1.0, 1.0)])
def test_degenerate_beta_segment_cdf_is_its_point_mass_bit_for_bit(a, b, lo, atom):
    probes = np.array([-1.0, 0.0, np.nextafter(atom, -1.0), atom, np.nextafter(atom, 2.0), 2.0])
    seg, mass = BetaSegment(a, b, lo), PointMass(atom)
    assert seg.cdf(probes).tobytes() == mass.cdf(probes).tobytes()
    assert [seg.cdf(float(z)) for z in probes] == [mass.cdf(float(z)) for z in probes]


def test_two_stage_gaussian_cdf_matches_convolution():
    first = NormalLaw(0.0, 1.0)
    comp = TwoStage(first, lambda y: NormalLaw(y, 0.5))
    direct = NormalLaw(0.0, 1.5)
    for z in (-1.0, 0.0, 0.7, 2.0):
        assert comp.cdf(z) == pytest.approx(direct.cdf(z), abs=1e-7)


@pytest.mark.parametrize("second_var", [4.0, 1.0, 0.25, 0.1, 0.01])
def test_two_stage_gaussian_cdf_any_leg_ratio(second_var):
    # a second stage much narrower than the first turns its cdf too sharply
    # for the Gauss-Hermite nodes; the composition must stay exact anyway
    comp = TwoStage(NormalLaw(0.0, 1.0), lambda y: NormalLaw(y, second_var))
    direct = NormalLaw(0.0, 1.0 + second_var)
    worst = max(abs(comp.cdf(z) - direct.cdf(z)) for z in np.linspace(-4.0, 4.0, 81))
    assert worst < 1e-9


def test_two_stage_point_mass_stages_compose_exactly():
    comp = TwoStage(PointMass(1.0), lambda y: NormalLaw(y, 0.0))
    assert comp.cdf(0.999) == 0.0 and comp.cdf(1.0) == 1.0


def test_pmf_ppf_inverts_the_cdf():
    # u at an atom's cdf value already maps to the next atom; the mass a
    # tail truncation lost goes to the last atom
    u = np.array([0.1, 0.49, 0.5, 0.97])
    assert pmf_ppf({1: 0.45, 0: 0.5}, u).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_compound_poisson_dict():
    d = compound_poisson_dict(0.5, [1.0, 2.0], [0.5, 0.5])
    assert d[0.0] == pytest.approx(math.exp(-0.5), abs=1e-14)
    # one jump of size 1: e^-l * l * 0.5
    assert d[1.0] == pytest.approx(math.exp(-0.5) * 0.5 * 0.5, abs=1e-14)
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)


def test_tv_distance():
    assert tv_distance({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert tv_distance({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
    assert tv_distance({0: 0.6, 1: 0.4}, {0: 0.4, 1: 0.6}) == pytest.approx(0.2)


# the four laws whose cdf is elementwise over an array of probes; each
# TwoStage route: Gauss-Hermite, the narrow-second-leg quad fallback, a
# BetaSegment first stage (quad on [lo, 1]) and a point-mass first stage
ARRAY_CDF_LAWS = {
    "point_mass": (PointMass(0.25), np.linspace(-1.0, 1.0, 9)),
    "normal": (NormalLaw(0.5, 2.0), np.linspace(-4.0, 5.0, 37)),
    "normal_zero_var": (NormalLaw(0.5, 0.0), np.array([0.0, 0.5, 0.5000001, 2.0])),
    "beta": (BetaSegment(1.5, 2.5, 0.2), np.linspace(-0.1, 1.1, 25)),
    "beta_degenerate": (BetaSegment(2.0, 0.0, 0.3), np.array([0.3, 0.999, 1.0])),
    "two_stage_hermite": (TwoStage(NormalLaw(0.3, 1.0), lambda y: NormalLaw(y, 0.5)),
                          np.linspace(-4.0, 4.0, 33)),
    "two_stage_narrow_leg": (TwoStage(NormalLaw(0.0, 1.0), lambda y: NormalLaw(y, 0.01)),
                             np.linspace(-3.0, 3.0, 7)),
    "two_stage_beta_first": (TwoStage(BetaSegment(0.8, 1.7, 0.1),
                                      lambda y: BetaSegment(0.6, 1.1, y)),
                             np.array([0.2, 0.9])),
    "two_stage_point_mass_first": (TwoStage(PointMass(0.5), lambda y: NormalLaw(y, 0.3)),
                                   np.linspace(-1.0, 2.0, 13)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CDF_LAWS))
def test_array_cdf_matches_scalar_loop_bit_for_bit(name):
    law, probes = ARRAY_CDF_LAWS[name]
    out = law.cdf(probes)
    assert isinstance(out, np.ndarray) and out.shape == probes.shape
    loop = [law.cdf(float(z)) for z in probes]
    assert all(type(v) is float for v in loop)
    assert out.tobytes() == np.array(loop).tobytes()
    grid = probes.reshape(1, -1)  # any array shape comes back in that shape
    assert law.cdf(grid).tobytes() == out.tobytes() and law.cdf(grid).shape == grid.shape
