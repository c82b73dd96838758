"""One-dimensional laws used by the transition kernels.

Finite pmfs are exact (dict-backed); the closed-form families carry a cdf.
The cut count tables live here, each with its cut policy: ``binomial_pmf``,
``poisson_pmf`` and ``compound_poisson_dict`` (Panjer's recursion);
``binomial_coefficients`` gives the coefficients to ``binomial_pmf`` and to
the empirical flow semigroup alike.
``TwoStage`` represents the composition of two kernels for the continuous
families and evaluates its cdf by quadrature over the intermediate value (a
64-node Gauss-Hermite rule when both stages are normal and the second is not
much narrower, adaptive quadrature otherwise).  The cdfs of ``PointMass``,
``NormalLaw``, ``BetaSegment`` and ``TwoStage`` are elementwise over a float
array of probes, with the bits of the scalar call at every probe; a scalar
probe gives a Python float.  Sampling lives in the kernels' vectorised
inverse cdfs; ``pmf_ppf`` serves the pmf tables.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigError
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


def poisson_pmf(mean: float) -> dict:
    """The Poisson(mean) count law as a dict pmf over increasing counts, the
    one table both jump kinds read.  Cut on the right where the tail drops
    below ``PMF_TAIL`` (``poisson_tail_count``) and, from a mean of 144 on, on
    the left below mean - 12 sqrt(mean), which holds less than exp(-72) of the
    mass (Chernoff): a table keeps O(sqrt(mean)) atoms.  The weights are taken
    in log space, so none underflows at a large mean."""
    if mean == 0:
        return {0: 1.0}
    k = np.arange(max(int(mean - 12.0 * math.sqrt(mean)), 0),
                  poisson_tail_count(mean, PMF_TAIL) + 1)
    # the expression stats.poisson.pmf evaluates, without its argument checks
    probs = np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean)
    return dict(zip(k.tolist(), probs.tolist()))


def _panjer(rates: dict, mean: float, tail: float) -> dict:
    """Law of a Poisson(mean) number of iid positive jumps, jump v at rate
    ``rates[v]``, by Panjer's (1981) recursion x f(x) = sum_v v rates[v]
    f(x - v) from f(0) = exp(-mean).  It keeps the values that at most
    ``poisson_tail_count(mean, tail)`` jumps reach, so at most ``tail`` of the
    mass is left out, and cuts the left tail as ``poisson_pmf`` does."""
    most = poisson_tail_count(mean, tail)
    floor = max(int(mean - 12.0 * math.sqrt(mean)), 0) * min(rates)
    # ahead[x] = [the terms of x f(x) so far, the fewest jumps to x]; the least
    # pending value is final.  f is held times 2**e: e lifts exp(-mean) into
    # the float range past a mean of 700, and 2**512 is shed on passing it
    e = max(math.ceil((mean - 700.0) / math.log(2.0)), 0)
    ahead, pending, out = {0.0: [math.exp(e * math.log(2.0) - mean), 0]}, [0.0], {}
    while pending:
        x = heapq.heappop(pending)
        g, n = ahead.pop(x)
        if n > most:
            continue
        if (g := g / (x or 1.0)) > 2.0 ** 512:
            g, e = math.ldexp(g, -512), e - 512
            for t in ahead.values():
                t[0] = math.ldexp(t[0], -512)
        if x >= floor and (p := math.ldexp(g, -e)):
            out[x] = p
        for v, r in rates.items():
            if (t := ahead.get(y := _key(x + v))) is None:
                ahead[y] = [v * r * g, n + 1]
                heapq.heappush(pending, y)
            else:
                t[0], t[1] = t[0] + v * r * g, min(t[1], n + 1)
    return out


def compound_poisson_dict(lam: float, jump_values, jump_probs) -> dict:
    """Law of a Poisson(lam) number of iid jumps, as a dict pmf.

    One nonzero jump size v reads ``poisson_pmf`` at k v, value for value.
    Otherwise the jumps of each sign make a ``_panjer`` table of their sizes,
    cut at ``PMF_TAIL`` over the number of signs and signed back, and two
    signs are convolved once.  A zero or negative jump thins each sign's
    intensity to the sum of its rates; positive jumps keep ``lam``.
    """
    if lam < 0:
        raise ConfigError("compound poisson intensity must be nonnegative")
    base = {_key(v): float(p) for v, p in zip(jump_values, jump_probs)}
    if abs(sum(base.values()) - 1.0) > PMF_TOTAL_TOL:
        raise ConfigError("jump pmf must sum to 1")
    nonzero = {v: p for v, p in base.items() if v and p > 0}
    if len(nonzero) == 1:
        ((v, p),) = nonzero.items()
        counts = poisson_pmf(lam if min(base) > 0 else lam * p)
        return {_key(k * v) + 0.0: q for k, q in counts.items()}  # + 0.0: no -0.0 key
    sides = [(sign, rates) for sign in (1.0, -1.0)
             if (rates := {sign * v: lam * p for v, p in nonzero.items() if sign * v > 0})]
    laws = [{sign * x + 0.0: p for x, p in _panjer(
                rates, lam if min(base) > 0 else math.fsum(rates.values()),
                PMF_TAIL / len(sides)).items()} for sign, rates in sides]
    if len(laws) < 2:
        return laws[0] if laws else {0.0: 1.0}
    out: dict[float, float] = {}
    for a, p in laws[0].items():
        for b, q in laws[1].items():
            out[_key(a + b)] = out.get(_key(a + b), 0.0) + p * q
    return out


def pmf_ppf(pmf: dict, u: np.ndarray) -> np.ndarray:
    """Inverse cdf of a dict pmf at each uniform in ``u``; mass lost to a
    tail truncation goes to the largest atom."""
    vals = np.fromiter(pmf.keys(), float, len(pmf))
    order = np.argsort(vals, kind="stable")  # the keys are distinct
    vals = vals[order]
    cum = np.cumsum(np.fromiter(pmf.values(), float, len(pmf))[order])
    cum[-1] = max(cum[-1], 1.0)
    return vals[np.searchsorted(cum, u, side="right").clip(max=len(vals) - 1)]


def tv_distance(a: dict, b: dict) -> float:
    """Total variation distance between two dict pmfs (sup over events)."""
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
