"""One-dimensional laws used by the transition kernels.

A finite law is a ``GridLaw``: a probability vector over consecutive
indices of a value grid, index i standing for ``canonical_value(i *
step)`` (``grid_values``; ``grid_step`` finds the step of a set of values,
``jump_step`` that of a jump law), which reads as a read-only dict pmf.
``FinitePmf`` serves the kernels' ``law``; the closed-form families carry a
cdf.  The cut count tables live here, each with its cut policy, and each is
built for many trial counts or means in one call: ``binomial_band``,
``poisson_laws`` (over the tail counts of ``poisson_tail_counts``) and
``compound_poisson_laws`` (Panjer's recursion on the grid, one walk for all
the means); ``binomial_pmf``, ``poisson_pmf``, ``poisson_tail_count`` and
``compound_poisson_dict`` are their one-row cases.
``binomial_coefficients`` and ``binomial_terms`` give the coefficients and
the terms to ``binomial_band`` and to the empirical flow semigroup alike.
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
    table keeps O(sqrt(trials)) atoms.  The one-row case of
    ``binomial_band``."""
    (first,), (last,), band = binomial_band([trials], p)
    return FinitePmf(range(first, last + 1), band[0].tolist())


def binomial_band(trials, p: float) -> tuple[list[int], list[int], np.ndarray]:
    """The binomial(t, p) count laws of the trial counts t of ``trials``,
    one row each, cut as ``binomial_pmf`` cuts them: (first, last, band),
    with ``band[r, k]`` the probability of count ``first[r] + k`` up to the
    count ``last[r]``, and 0 past it.  Up to ``DIRECT_BINOMIAL_TRIALS``
    trials an entry is comb(t, j) p^j q^(t - j), all such rows by one
    ``binomial_terms`` call, each row's coefficients from
    ``binomial_coefficients``; rows of more trials take
    ``stats.binom.pmf``, all in one call."""
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise ConfigError(f"binomial success probability {p} outside [0, 1]")
    p = min(p, 1.0)
    q = 1.0 - p
    cuts = []
    for t in trials:
        mean, reach = t * p, 12.0 * math.sqrt(t * p * q) + 70
        cuts.append((t, max(int(mean - reach), 0), min(int(mean + reach), t)))
    t, first, last = (np.array(c) for c in zip(*cuts))
    counts = first[:, None] + np.arange(int((last - first).max()) + 1)
    inside = counts <= last[:, None]
    direct = t <= DIRECT_BINOMIAL_TRIALS
    if direct.all():
        width = counts.shape[1]
        coef = np.array([c for n, lo, hi in cuts for c in binomial_coefficients(
            n, range(lo, hi + 1)) + [0.0] * (width - 1 - hi + lo)]).reshape(counts.shape)
        # a count past the last has coefficient 0 and both exponents 0
        band = binomial_terms(coef, [p], np.where(inside, counts, 0),
                              np.where(inside, t[:, None] - counts, 0))[0]
        return first.tolist(), last.tolist(), band
    band = np.zeros(counts.shape)
    if direct.any():
        part = binomial_band(t[direct].tolist(), p)[2]
        band[direct, :part.shape[1]] = part
    # comb(t, t // 2) overflows a float from 1030 trials on
    from scipy import stats
    large = ~direct
    band[large] = np.where(inside[large], stats.binom.pmf(counts[large], t[large, None], p), 0.0)
    return first.tolist(), last.tolist(), band


def binomial_terms(coef: np.ndarray, ps, counts: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """coef * p^counts * q^tails, q = 1 - p, for each success probability p
    of ``ps``, one leading row per p, elementwise over the coefficients
    ``coef`` and the integer exponents ``counts`` and ``tails``: the
    binomial terms of the empirical step laws and of the empirical flow
    semigroup alike.  The powers are Python's float pow, one vector per p;
    numpy's ``power`` may round them otherwise."""
    top = range(max(int(counts.max()), int(tails.max())) + 1)
    p_pow = np.array([p**j for p in ps for j in top]).reshape(len(ps), -1)
    q_pow = np.array([q**j for q in [1.0 - p for p in ps] for j in top]).reshape(len(ps), -1)
    return coef * p_pow[:, counts] * q_pow[:, tails]


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
    pmfs truncate the count.  The one-mean case of
    ``poisson_tail_counts``."""
    return int(poisson_tail_counts([mean], tail)[0])


def poisson_tail_counts(means, tail: float) -> np.ndarray:
    """``poisson_tail_count`` of each mean of ``means``: the first count of
    its search range with ``special.pdtrc`` (the function
    ``stats.poisson.sf`` evaluates, without its argument checks) at most
    ``tail``.  A mean's range runs from floor(mean), which is at most the
    median, so for ``tail`` < 1/2 no count below it qualifies, to
    mean + 12 sqrt(mean) + 32, doubled until it holds such a count: a large
    mean costs O(sqrt(mean)) evaluations.  The ranges of all the means are
    laid end to end for one vectorised sf."""
    means = np.asarray(means, dtype=float)
    lo = means.astype(np.int64)
    hi = (means + 12.0 * np.sqrt(means)).astype(np.int64) + 32
    out = np.empty(len(means), dtype=np.int64)
    todo = np.arange(len(means))
    while todo.size:
        sizes = hi[todo] - lo[todo]
        ends = np.cumsum(sizes)
        k = np.arange(int(ends[-1])) + np.repeat(lo[todo] - (ends - sizes), sizes)
        hits = np.flatnonzero(special.pdtrc(k, np.repeat(means[todo], sizes)) <= tail)
        # the first hit at or past each range's start; past the last count if none
        first = np.append(hits, len(k))[np.searchsorted(hits, ends - sizes)]
        found = first < ends
        out[todo[found]] = k[first[found]]
        todo = todo[~found]
        hi[todo] *= 2
    return out


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


def _left_cut(means: np.ndarray) -> np.ndarray:
    """max(int(mean - 12 sqrt(mean)), 0) of each mean: the count below which
    a poisson table holds less than exp(-72) of the mass (Chernoff); 0 below
    a mean of 144."""
    return np.maximum((means - 12.0 * np.sqrt(means)).astype(np.int64), 0)


def poisson_pmf(mean: float) -> GridLaw:
    """The Poisson(mean) count law on the integers, the one table both jump
    kinds read: the one-row case of ``poisson_laws``."""
    return poisson_laws([mean])[0]


def poisson_laws(means) -> list[GridLaw]:
    """The Poisson(mean) count law on the integers of each mean of
    ``means``.  Each is cut on the right where the tail drops below
    ``PMF_TAIL`` (``poisson_tail_counts``, one search for all) and, from a
    mean of 144 on, on the left below mean - 12 sqrt(mean) (``_left_cut``):
    a table keeps O(sqrt(mean)) atoms.  The weights are taken in log space,
    so none underflows at a large mean, and the tables' counts are laid end
    to end for one broadcast of the expression ``stats.poisson.pmf``
    evaluates, without its argument checks; each table is a view of its
    piece."""
    means = np.asarray(means, dtype=float)
    laws = [None if mean else GridLaw(0, np.ones(1)) for mean in means.tolist()]
    live = np.flatnonzero(means)
    if not live.size:
        return laws
    first = _left_cut(means[live])
    sizes = poisson_tail_counts(means[live], PMF_TAIL) + 1 - first
    ends = np.cumsum(sizes)
    k = np.arange(int(ends[-1])) + np.repeat(first - (ends - sizes), sizes)
    mean = np.repeat(means[live], sizes)
    probs = np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean)
    for i, lo, a, b in zip(live.tolist(), first.tolist(), (ends - sizes).tolist(), ends.tolist()):
        laws[i] = GridLaw(lo, probs[a:b])
    return laws


def _check_length(length: int, step: Fraction):
    """Refuse a step law of more grid points than ``construction.TABLE_CAP``."""
    from . import construction  # read at call time, as the table cap is

    if length > construction.TABLE_CAP:
        raise TableSizeError(f"a step law on the value grid of step {float(step):g} needs "
                             f"{length} grid points, more than {construction.TABLE_CAP}")


def _panjer(rates: dict, means: np.ndarray, tail: float, step: Fraction) -> list[GridLaw]:
    """Laws of a Poisson(mean) number of iid positive jumps on the grid of
    ``step``, one per mean of ``means``, jump v at rate ``rates[v][i]`` for
    the i-th mean, by Panjer's (1981) recursion x f(x) = sum_v v rates[v]
    f(x - v) from f(0) = exp(-mean).  Each keeps the values that at most
    ``poisson_tail_count(mean, tail)`` jumps reach, so at most ``tail`` of
    its mass is left out, and cuts the left tail as ``poisson_laws`` does.

    The grid is walked upwards once for all the means, one column each, and
    each value passes its terms on, so each sum takes its terms from its
    predecessors in ascending value (the largest jump first) and starts
    from the first of them: every column holds the bits of a walk of its
    mean alone.  A value that only more jumps than a mean's cut reach (the
    fewest jumps to each value are the same for every mean) passes 0 on in
    that column.  f is held times 2**e: e lifts exp(-mean) into the float
    range past a mean of 700, and 2**512 is shed, from every pending sum of
    the column too, when f passes it."""
    most = poisson_tail_counts(means, tail)
    floor = _left_cut(means) * min(rates)
    jumps = [(round(v * step.denominator / step.numerator), v * r) for v, r in rates.items()]
    size = int(most.max()) * max(j for j, _ in jumps) + 1
    _check_length(size, step)
    x = grid_values(range(size), step)
    fewest = [0] + [size] * (size - 1)
    for i in range(size):
        for j, _ in jumps:
            if i + j < size and fewest[i + j] > fewest[i] + 1:
                fewest[i + j] = fewest[i] + 1
    dead = np.array(fewest)[:, None] > most
    # f at a value a mean's walk does not reach divides to 0
    divisor = np.where(dead, np.inf, np.where(x == 0.0, 1.0, x)[:, None])
    skipped = dead.all(axis=1).tolist()
    e = np.array([max(math.ceil((m - 700.0) / math.log(2.0)), 0) for m in means.tolist()])
    # one pending row per value, and a spare row past the last for each jump
    ahead = np.zeros((size + max(j for j, _ in jumps), len(means)))
    ahead[0] = [math.exp(k * math.log(2.0) - m) for k, m in zip(e.tolist(), means.tolist())]
    f = np.zeros((size, len(means)))  # f times 2**e, e as it stands at each value
    shed = np.zeros(f.shape, dtype=np.int64)
    pending, held = list(ahead), list(f)
    # an unlifted f is a probability, far below 2**512
    lifted = bool(e.any())
    for i in range(size):
        if skipped[i]:
            continue
        g = np.divide(pending[i], divisor[i], out=held[i])
        if lifted and g.max() > 2.0 ** 512:
            big = g > 2.0 ** 512
            g[big] = np.ldexp(g[big], -512)
            ahead[i + 1:, big] = np.ldexp(ahead[i + 1:, big], -512)
            shed[i, big] = 512
        for j, vr in jumps:
            pending[i + j] += vr * g
    out = np.ldexp(f, np.cumsum(shed, axis=0) - e)
    out[x[:, None] < floor] = 0.0
    atoms = out != 0.0
    firsts = atoms.argmax(axis=0).tolist()
    ends = (size - atoms[::-1].argmax(axis=0)).tolist()
    return [GridLaw(a, column[a:b], step)
            for column, a, b in zip(np.ascontiguousarray(out.T), firsts, ends)]


def _mirrored(law: GridLaw, step: Fraction) -> GridLaw:
    """The law of minus the index, on the grid of ``step``."""
    return GridLaw(-law.last, law.probs[::-1].copy(), step)


def _convolved(up: GridLaw, down: GridLaw, step: Fraction) -> GridLaw:
    """The law of the sum of two independent indices, each sum taking its
    terms in ascending index of ``up``."""
    _check_length(len(up.probs) + len(down.probs) - 1, step)
    out = np.zeros(len(up.probs) + len(down.probs) - 1)
    for k in np.flatnonzero(up.probs).tolist():
        out[k: k + len(down.probs)] += up.probs[k] * down.probs
    return GridLaw(up.first + down.first, out, step)


def compound_poisson_dict(lam: float, jump_values, jump_probs) -> GridLaw:
    """Law of a Poisson(lam) number of iid jumps, on the grid of
    ``jump_step(jump_values, jump_probs)``: a ``GridLaw``, which reads as a
    dict pmf {value: probability}.  The one-row case of
    ``compound_poisson_laws``."""
    return compound_poisson_laws([lam], jump_values, jump_probs)[0]


def compound_poisson_laws(lams, jump_values, jump_probs) -> list[GridLaw]:
    """Laws of a Poisson(lam) number of iid jumps, one per intensity of
    ``lams``, on the grid of ``jump_step(jump_values, jump_probs)``.

    One nonzero jump size v reads ``poisson_laws``, count k at index k (or
    -k for v < 0).  Otherwise the jumps of each sign make one ``_panjer``
    walk of their sizes for all the intensities, cut at ``PMF_TAIL`` over
    the number of signs and mirrored back, and two signs are convolved once
    per intensity, each sum taking its terms in ascending value of its
    positive part.  A zero or negative jump thins each sign's intensity to
    the sum of its rates; positive jumps keep ``lam``.  A law whose grid
    would hold more than ``construction.TABLE_CAP`` points raises
    ``TableSizeError`` before it is built.
    """
    lams = np.asarray(lams, dtype=float)
    if (lams < 0).any():
        raise ConfigError("compound poisson intensity must be nonnegative")
    base = {_key(v): float(p) for v, p in zip(jump_values, jump_probs)}
    if abs(sum(base.values()) - 1.0) > PMF_TOTAL_TOL:
        raise ConfigError("jump pmf must sum to 1")
    nonzero = {v: p for v, p in base.items() if v and p > 0}
    step = jump_step(jump_values, jump_probs)
    if not nonzero:
        return [GridLaw(0, np.ones(1), step) for _ in range(len(lams))]
    thinned = min(base) <= 0
    if len(nonzero) == 1:
        ((v, p),) = nonzero.items()
        counts = poisson_laws(lams * p if thinned else lams)
        return [GridLaw(c.first, c.probs, step) if v > 0 else _mirrored(c, step)
                for c in counts]
    sides = [(sign, rates) for sign in (1.0, -1.0)
             if (rates := {sign * v: lams * p for v, p in nonzero.items() if sign * v > 0})]
    laws = [_panjer(rates, np.array([math.fsum(r) for r in zip(*rates.values())])
                    if thinned else lams, PMF_TAIL / len(sides), step) for _, rates in sides]
    if len(laws) == 1:
        return laws[0] if sides[0][0] > 0 else [_mirrored(law, step) for law in laws[0]]
    return [_convolved(up, _mirrored(down, step), step) for up, down in zip(*laws)]


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
