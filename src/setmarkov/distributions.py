"""One-dimensional laws used by the transition kernels.

A finite law is a ``GridLaw``: a probability vector over consecutive
indices of a value grid, index i standing for ``canonical_value(i *
step)`` (``grid_values``; ``grid_step`` finds the step of a set of values,
``jump_step`` that of a jump law), which reads as a read-only dict pmf.
``FinitePmf`` serves the kernels' ``law``; the closed-form families carry a
cdf.  The cut count tables live here, each with its cut policy:
``binomial_pmf``, ``poisson_pmf`` and ``compound_poisson_dict`` (Panjer's
recursion on the grid); ``binomial_coefficients`` gives the coefficients to
``binomial_pmf`` and to the empirical flow semigroup alike.
``TwoStage`` represents the composition of two kernels for the continuous
families and evaluates its cdf by quadrature over the intermediate value (a
64-node Gauss-Hermite rule when both stages are normal and the second is not
much narrower, adaptive quadrature otherwise).  The cdfs of ``PointMass``,
``NormalLaw``, ``BetaSegment`` and ``TwoStage`` are elementwise over a float
array of probes, with the bits of the scalar call at every probe; a scalar
probe gives a Python float.  Sampling lives in the kernels' vectorised
inverse cdfs; ``pmf_ppf`` serves the grid laws and the dict pmfs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import special

from .errors import ConfigError, TableSizeError
from .quadrature import hermite

PMF_TOTAL_TOL = 1e-12
# the poisson count tables are cut where their right tail drops below this
PMF_TAIL = 1e-13
# binomial_pmf takes comb(trials, j) p^j q^(trials - j) in floats up to this
# many trials; from 1030 on, comb(trials, trials // 2) overflows a float, so
# larger counts take stats.binom.pmf, imported there: no smaller table loads
# scipy.stats
DIRECT_BINOMIAL_TRIALS = 1000
COMPOSE_CDF_TOL = 1e-8
# The Gauss-Hermite rule resolves a normal second stage whose variance is at
# least this share of the first stage's: its error is about 2e-13 at a
# quarter and 1e-7 at a ninth, where the second-stage cdf turns too sharply
# for the node spacing.  Narrower second stages go to adaptive quadrature.
HERMITE_MIN_VAR_SHARE = 0.25
_KEY_DECIMALS = 12


def canonical_value(v: float) -> float:
    """Canonical float key so that equal sums reached differently still merge."""
    return round(float(v), _KEY_DECIMALS)


_key = canonical_value


def _like(values, z):
    """``values`` as a Python float for a scalar probe z, else as an array."""
    return float(values) if np.ndim(z) == 0 else values


@dataclass(frozen=True)
class PointMass:
    value: float

    def cdf(self, z):
        return _like(np.where(np.asarray(z) >= self.value, 1.0, 0.0), z)

    def as_dict(self):
        return {_key(self.value): 1.0}


class FinitePmf:
    """Exact pmf on a finite set of real support points."""

    def __init__(self, values, probs):
        pairs = sorted(zip(values, probs))
        self.values = tuple(v for v, _ in pairs)
        self.probs = tuple(float(p) for _, p in pairs)
        if any(p < -PMF_TOTAL_TOL for p in self.probs):
            raise ConfigError("pmf has a negative weight")
        total = sum(self.probs)
        if abs(total - 1.0) > PMF_TOTAL_TOL:
            raise ConfigError(f"pmf sums to {total}, not 1")

    def as_dict(self):
        return dict(zip(self.values, self.probs))

    def cdf(self, z):
        return float(sum(p for v, p in zip(self.values, self.probs) if v <= z))

    def __repr__(self):
        return f"FinitePmf({dict(zip(self.values, self.probs))})"


def binomial_pmf(trials: int, p: float) -> FinitePmf:
    """Exact binomial pmf over the counts within 12 standard deviations + 70
    of the mean: all of 0..trials up to 70 trials.  By Bernstein's
    inequality each tail left out has mass below exp(-72) < 1e-31, and a
    table keeps O(sqrt(trials)) atoms."""
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise ConfigError(f"binomial success probability {p} outside [0, 1]")
    p = min(p, 1.0)
    q = 1.0 - p
    mean, reach = trials * p, 12.0 * math.sqrt(trials * p * q) + 70
    counts = range(max(int(mean - reach), 0), min(int(mean + reach), trials) + 1)
    if trials > DIRECT_BINOMIAL_TRIALS:
        from scipy import stats
        return FinitePmf(counts, stats.binom.pmf(np.array(counts), trials, p).tolist())
    return FinitePmf(counts, [c * p**j * q ** (trials - j)
                              for j, c in zip(counts, binomial_coefficients(trials, counts))])


def binomial_coefficients(trials: int, counts: range) -> list[float]:
    """float(comb(trials, j)) for each j of the step-1 range ``counts``,
    each coefficient from the last by exact integer arithmetic: one
    multiplication and one division per count, where ``math.comb`` would
    start afresh."""
    out, comb = [], math.comb(trials, counts.start)
    for j in counts:
        out.append(float(comb))
        comb = comb * (trials - j) // (j + 1)  # exact: comb(trials, j + 1)
    return out


@dataclass(frozen=True)
class NormalLaw:
    mean: float
    var: float

    def __post_init__(self):
        if self.var < 0:
            raise ConfigError("variance must be nonnegative")

    def cdf(self, z):
        if self.var == 0:
            return PointMass(self.mean).cdf(z)
        # ndtr is what stats.norm.cdf evaluates, without its per-call overhead
        return _like(special.ndtr((z - self.mean) / math.sqrt(self.var)), z)

    def pdf(self, y):
        if self.var == 0:
            return 0.0
        sd = math.sqrt(self.var)
        t = (y - self.mean) / sd
        return math.exp(-0.5 * t * t) / (sd * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class BetaSegment:
    """lo + (1-lo) * Beta(a, b): a law on [lo, 1].

    b == 0 degenerates to a point mass at the upper endpoint 1; a == 0 to a
    point mass at lo (no mass left to add).
    """

    a: float
    b: float
    lo: float = 0.0

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ConfigError("beta parameters must be nonnegative")
        if not 0.0 <= self.lo <= 1.0:
            raise ConfigError("beta segment start must lie in [0, 1]")

    def _degenerate(self):
        if self.lo >= 1.0 or self.a == 0:
            return PointMass(1.0 if self.lo >= 1.0 else self.lo)
        if self.b == 0:
            return PointMass(1.0)
        return None

    def cdf(self, z):
        d = self._degenerate()
        if d is not None:
            return d.cdf(z)
        y = (np.asarray(z) - self.lo) / (1.0 - self.lo)
        # stats.beta.cdf evaluates betainc inside (0, 1) and places 0 below
        # and 1 above it; clipped into [0, 1], betainc gives those bits too
        return _like(special.betainc(self.a, self.b, np.clip(y, 0.0, 1.0)), z)

    def pdf(self, z):
        d = self._degenerate()
        if d is not None:
            return 0.0
        from scipy import stats  # only TwoStage._quad reads a beta density
        y = (z - self.lo) / (1.0 - self.lo)
        return float(stats.beta.pdf(y, self.a, self.b) / (1.0 - self.lo))


class TwoStage:
    """Composition of two continuous kernels: y from ``first``, then the
    final value from ``second_of(y)``.  The cdf integrates the second-stage
    cdf against the first-stage law: Gauss-Hermite when both stages are
    normal and the second is not much narrower than the first, adaptive
    quadrature (abs tol 1e-8) otherwise, point masses exactly.  A normal
    first stage has positive variance: ``compose_kernels`` returns early on a
    leg of zero measure.

    Over an array of probes the Gauss-Hermite route builds its 64
    second-stage laws once and sums each probe's row with ``np.dot``, as the
    scalar call does; adaptive quadrature runs once per probe."""

    def __init__(self, first, second_of):
        self.first = first
        self.second_of = second_of

    def cdf(self, z):
        first = self.first
        if isinstance(first, PointMass):
            return self.second_of(first.value).cdf(z)
        if isinstance(first, NormalLaw):
            second = self.second_of(first.mean)
            if isinstance(second, NormalLaw) and second.var >= HERMITE_MIN_VAR_SHARE * first.var:
                nodes, weights = hermite()
                ys = first.mean + math.sqrt(first.var) * nodes
                probes = np.ravel(z)
                # one contiguous row per probe: np.dot sums it as the scalar call does
                rows = np.empty((probes.size, ys.size))
                for i, y in enumerate(ys):
                    rows[:, i] = self.second_of(y).cdf(probes)
                sums = [np.dot(weights, row) for row in rows]
                return _like(np.reshape(sums, np.shape(z)), z)
            return self._quad(z, -np.inf, np.inf)
        if isinstance(first, BetaSegment):
            d = first._degenerate()
            if d is not None:
                return self.second_of(d.value).cdf(z)
            return self._quad(z, first.lo, 1.0, points=[first.lo, 1.0])
        raise ConfigError(f"cannot integrate against {type(first).__name__}")

    def _quad(self, z, lo, hi, **kw):
        """Adaptive quadrature of the second-stage cdf against the first
        stage's density, one integral per probe."""
        from scipy import integrate
        pdf = self.first.pdf
        vals = [integrate.quad(lambda y: self.second_of(y).cdf(zj) * pdf(y), lo, hi,
                               epsabs=COMPOSE_CDF_TOL, limit=200, **kw)[0]
                for zj in np.ravel(z)]
        return _like(np.reshape(vals, np.shape(z)), z)


def poisson_tail_count(mean: float, tail: float) -> int:
    """Smallest k >= 0 with P(Poisson(mean) > k) <= tail: where the exact
    pmfs truncate the count.  One vectorised sf over a range of counts that
    is doubled until the tail drops below ``tail``; ``special.pdtrc`` is the
    function ``stats.poisson.sf`` evaluates, without its argument checks.
    The search starts at floor(mean), which is at most the median, so for
    ``tail`` < 1/2 no count below it qualifies and a large mean costs
    O(sqrt(mean)) evaluations."""
    lo = int(mean)
    hi = int(mean + 12.0 * math.sqrt(mean)) + 32
    while True:
        below = np.flatnonzero(special.pdtrc(np.arange(lo, hi), mean) <= tail)
        if below.size:
            return lo + int(below[0])
        hi *= 2


@dataclass(frozen=True, eq=False)
class GridLaw(Mapping):
    """A finite law on the value grid of ``step``: ``probs[k]`` is the
    probability of grid index ``first + k``, index i standing for the value
    ``canonical_value(i * step)`` (``grid_values``).  The vector is read
    only and shared by every caller.  Its atoms are its nonzero entries; a
    zero entry between two atoms is a value the law does not reach.  Read
    as a mapping, it is the read-only dict pmf {value: probability} over
    its atoms, in ascending value."""

    first: int
    probs: np.ndarray
    step: Fraction = Fraction(1)

    def __post_init__(self):
        self.probs.flags.writeable = False

    @property
    def last(self) -> int:
        return self.first + len(self.probs) - 1

    def shifted(self, by: int) -> "GridLaw":
        """The law of (index + ``by``)."""
        return GridLaw(self.first + by, self.probs, self.step)

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(grid indices, probabilities) of the nonzero entries, ascending."""
        at = np.flatnonzero(self.probs)
        return self.first + at, self.probs[at]

    def __iter__(self):
        return iter(grid_values(self.atoms[0], self.step).tolist())

    def __len__(self) -> int:
        return len(self.atoms[0])

    def __getitem__(self, value) -> float:
        i = round(float(value) * self.step.denominator / self.step.numerator)
        if self.first <= i <= self.last and self.probs[i - self.first] and \
                grid_values(i, self.step) == value:
            return float(self.probs[i - self.first])
        raise KeyError(value)


def grid_step(values) -> Fraction:
    """The largest step of which every value (a float, or a step) is a whole
    multiple: the greatest common divisor of their shortest decimals (1 when
    all are 0).  0.5 for {1, 2.5}, 0.1 for {0.1, 0.2}."""
    decimals = [Decimal(repr(float(v))).as_integer_ratio() for v in values if v]
    if not decimals:
        return Fraction(1)
    scale = math.lcm(*(d for _, d in decimals))
    return Fraction(math.gcd(*(n * (scale // d) for n, d in decimals)), scale)


def grid_values(index, step: Fraction) -> np.ndarray:
    """``canonical_value(i * step)`` of each grid index i, as floats.  A
    step of at most ``_KEY_DECIMALS`` decimals gives values whose exact
    decimals have that many places, so the correctly rounded quotient of
    two integers is the canonical value; a finer step rounds each value."""
    index = np.asarray(index, dtype=np.int64)
    if 10**_KEY_DECIMALS % step.denominator == 0:
        return index * step.numerator / step.denominator
    return np.array([canonical_value(i * float(step)) for i in index.ravel().tolist()],
                    dtype=float).reshape(index.shape)


def poisson_pmf(mean: float) -> GridLaw:
    """The Poisson(mean) count law on the integers, the one table both jump
    kinds read.  Cut on the right where the tail drops below ``PMF_TAIL``
    (``poisson_tail_count``) and, from a mean of 144 on, on the left below
    mean - 12 sqrt(mean), which holds less than exp(-72) of the mass
    (Chernoff): a table keeps O(sqrt(mean)) atoms.  The weights are taken in
    log space, so none underflows at a large mean."""
    if mean == 0:
        return GridLaw(0, np.ones(1))
    k = np.arange(max(int(mean - 12.0 * math.sqrt(mean)), 0),
                  poisson_tail_count(mean, PMF_TAIL) + 1)
    # the expression stats.poisson.pmf evaluates, without its argument checks
    return GridLaw(int(k[0]), np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean))


def _check_length(length: int, step: Fraction):
    """Refuse a step law of more grid points than ``construction.TABLE_CAP``."""
    from . import construction  # read at call time, as the table cap is

    if length > construction.TABLE_CAP:
        raise TableSizeError(f"a step law on the value grid of step {float(step):g} needs "
                             f"{length} grid points, more than {construction.TABLE_CAP}")


def _panjer(rates: dict, mean: float, tail: float, step: Fraction) -> GridLaw:
    """Law of a Poisson(mean) number of iid positive jumps on the grid of
    ``step``, jump v at rate ``rates[v]``, by Panjer's (1981) recursion
    x f(x) = sum_v v rates[v] f(x - v) from f(0) = exp(-mean).  It keeps the
    values that at most ``poisson_tail_count(mean, tail)`` jumps reach, so at
    most ``tail`` of the mass is left out, and cuts the left tail as
    ``poisson_pmf`` does.

    The grid is walked upwards and each value passes its terms on, so each
    sum takes its terms from its predecessors in ascending value (the
    largest jump first) and starts from the first of them.  f is held times
    2**e: e lifts exp(-mean) into the float range past a mean of 700, and
    2**512 is shed, from every pending sum too, when f passes it."""
    most = poisson_tail_count(mean, tail)
    floor = max(int(mean - 12.0 * math.sqrt(mean)), 0) * min(rates)
    jumps = [(round(v * step.denominator / step.numerator), v * r) for v, r in rates.items()]
    size = most * max(j for j, _ in jumps) + 1
    _check_length(size, step)
    x = grid_values(range(size), step).tolist()
    e = max(math.ceil((mean - 700.0) / math.log(2.0)), 0)
    ahead, fewest = [0.0] * size, [most + 1] * size
    ahead[0], fewest[0] = math.exp(e * math.log(2.0) - mean), 0
    out = [0.0] * size
    for i in range(size):
        if (n := fewest[i]) > most:
            continue  # not reached, or only by more than ``most`` jumps
        if (g := ahead[i] / (x[i] or 1.0)) > 2.0 ** 512:
            g, e = math.ldexp(g, -512), e - 512
            ahead[i + 1:] = [math.ldexp(t, -512) for t in ahead[i + 1:]]
        if x[i] >= floor:
            out[i] = math.ldexp(g, -e)
        for j, vr in jumps:
            if (y := i + j) < size:
                ahead[y] += vr * g
                if fewest[y] > n:
                    fewest[y] = n + 1
    first = next(i for i, p in enumerate(out) if p)
    last = size - next(i for i, p in enumerate(reversed(out)) if p)
    return GridLaw(first, np.array(out[first:last]), step)


def _mirrored(law: GridLaw, step: Fraction) -> GridLaw:
    """The law of minus the index, on the grid of ``step``."""
    return GridLaw(-law.last, law.probs[::-1].copy(), step)


def compound_poisson_dict(lam: float, jump_values, jump_probs) -> GridLaw:
    """Law of a Poisson(lam) number of iid jumps, on the grid of
    ``jump_step(jump_values, jump_probs)``: a ``GridLaw``, which reads as a
    dict pmf {value: probability}.

    One nonzero jump size v reads ``poisson_pmf``, count k at index k (or -k
    for v < 0).  Otherwise the jumps of each sign make a ``_panjer`` table of
    their sizes, cut at ``PMF_TAIL`` over the number of signs and mirrored
    back, and two signs are convolved once, each sum taking its terms in
    ascending value of its positive part.  A zero or negative jump thins
    each sign's intensity to the sum of its rates; positive jumps keep
    ``lam``.  A law whose grid would hold more than ``construction.TABLE_CAP``
    points raises ``TableSizeError`` before it is built.
    """
    if lam < 0:
        raise ConfigError("compound poisson intensity must be nonnegative")
    base = {_key(v): float(p) for v, p in zip(jump_values, jump_probs)}
    if abs(sum(base.values()) - 1.0) > PMF_TOTAL_TOL:
        raise ConfigError("jump pmf must sum to 1")
    nonzero = {v: p for v, p in base.items() if v and p > 0}
    step = jump_step(jump_values, jump_probs)
    if not nonzero:
        return GridLaw(0, np.ones(1), step)
    if len(nonzero) == 1:
        ((v, p),) = nonzero.items()
        counts = poisson_pmf(lam if min(base) > 0 else lam * p)
        return GridLaw(counts.first, counts.probs, step) if v > 0 else _mirrored(counts, step)
    sides = [(sign, rates) for sign in (1.0, -1.0)
             if (rates := {sign * v: lam * p for v, p in nonzero.items() if sign * v > 0})]
    laws = [_panjer(rates, lam if min(base) > 0 else math.fsum(rates.values()),
                    PMF_TAIL / len(sides), step) for _, rates in sides]
    if len(laws) == 1:
        return laws[0] if sides[0][0] > 0 else _mirrored(laws[0], step)
    up, down = laws[0].probs, _mirrored(laws[1], step)
    _check_length(len(up) + len(down.probs) - 1, step)
    out = np.zeros(len(up) + len(down.probs) - 1)
    for k in np.flatnonzero(up).tolist():
        out[k: k + len(down.probs)] += up[k] * down.probs
    return GridLaw(laws[0].first + down.first, out, step)


def jump_step(jump_values, jump_probs) -> Fraction:
    """The value grid of a jump law: ``grid_step`` of the jumps it takes."""
    return grid_step(_key(v) for v, p in zip(jump_values, jump_probs) if p > 0)


def pmf_ppf(pmf, u: np.ndarray) -> np.ndarray:
    """Inverse cdf of a ``GridLaw`` or a dict pmf at each uniform in ``u``,
    as values.  A uniform equal to the cdf at an atom draws the next atom,
    and mass lost to a tail truncation goes to the largest entry."""
    if isinstance(pmf, GridLaw):
        return grid_values(pmf.first + _ppf_positions(pmf.probs, u), pmf.step)
    vals = np.fromiter(pmf.keys(), float, len(pmf))
    order = np.argsort(vals, kind="stable")  # the keys are distinct
    probs = np.fromiter(pmf.values(), float, len(pmf))[order]
    return vals[order][_ppf_positions(probs, u)]


def _ppf_positions(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)
    return np.searchsorted(cum, u, side="right").clip(max=len(probs) - 1)


def tv_distance(a: dict, b: dict) -> float:
    """Total variation distance between two dict pmfs (sup over events)."""
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
