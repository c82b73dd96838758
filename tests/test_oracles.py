"""Closed-form oracles for the exact laws.

The jump kinds have independent increments, so the increments over the
left neighbourhoods C0, ..., Ck of any consistent ordering are independent,
each the law of a Poisson(lam(Ci)) number of iid jumps (C0 the minimal set,
a point mass at 0 under the ``zero`` initial law).  The oracle builds each
column's law from ``stats.poisson.pmf`` weights and a direct convolution of
the jump law, and ``exact_fdd`` must equal the product law on every
consistent ordering.

The size-n empirical process counts n iid points of F, so its increments,
the counts in the disjoint C0, ..., Ck, are multinomial(n; F(C0), ...,
F(Ck), 1 - F(C0 u ... u Ck)).

The measures are uneven, so a column read against the wrong cell would show.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    EmpiricalKernel,
    FddSpec,
    GroundGrid,
    IndexedSet,
    PoissonIncrementKernel,
    close_under_intersection,
    enumerate_consistent_orderings,
    exact_fdd,
)

ORACLE_TOL = 1e-12
# (kind, jump values, jump probs)
JUMP_LAWS = (("poisson", (1,), (1.0,)),
             ("compound", (1, 2), (0.6, 0.4)),
             ("compound", (1, 2.5), (0.6, 0.4)),
             ("compound", (-1, 0, 2.5), (0.3, 0.2, 0.5)),
             ("compound", (-1, -2), (0.3, 0.7)))


def _key(v) -> float:
    return round(float(v), 9)


def oracle_column(mean: float, values, probs) -> dict:
    """Law of a Poisson(mean) number of iid jumps, to well past any cut."""
    counts = np.arange(int(mean + 12.0 * math.sqrt(mean)) + 30)
    weights = stats.poisson.pmf(counts, mean)
    out: dict[float, float] = {}
    power = {0.0: 1.0}
    for k, w in zip(counts.tolist(), weights.tolist()):
        if k > 0:
            step: dict[float, float] = {}
            for v, p in power.items():
                for jump, q in zip(values, probs):
                    to = _key(v + jump)
                    step[to] = step.get(to, 0.0) + p * q
            power = step
        for v, p in power.items():
            out[v] = out.get(v, 0.0) + w * p
    return out


def product_law_tv(law, columns) -> float:
    """TV distance between an exact joint law and the product of the column
    laws; the product's mass off the exact support is 1 minus its mass on it."""
    q = np.ones(len(law.probs))
    for j, col in enumerate(columns):
        q *= [col.get(_key(v), 0.0) for v in law.keys[:, j].tolist()]
    return 0.5 * (float(np.abs(law.probs - q).sum()) + max(1.0 - float(q.sum()), 0.0))


def _lattice(draw, grid):
    """Two or three generators, each holding cell 0 so that no intersection
    is empty, closed under intersection."""
    cells = grid.cell_count
    generators = draw(st.lists(st.sets(st.integers(1, cells - 1), max_size=cells - 1),
                               min_size=2, max_size=3))
    return close_under_intersection(
        [IndexedSet.from_cells(grid, [0, *g]) for g in generators])


@st.composite
def jump_processes(draw):
    side = draw(st.sampled_from((2, 3)))
    grid = GroundGrid((side, side))
    cells = side * side
    # uneven intensities, small enough to keep every joint table short
    weights = draw(st.lists(st.floats(0.01, 0.6 / side), min_size=cells, max_size=cells))
    lattice = _lattice(draw, grid)
    kind, values, probs = draw(st.sampled_from(JUMP_LAWS))
    zero = draw(st.booleans())
    lam = CellMeasure(grid, weights)
    if kind == "poisson":
        kernel = PoissonIncrementKernel(lam, initial="zero" if zero else "poisson")
    else:
        kernel = CompoundPoissonKernel(lam, values, probs,
                                       initial="zero" if zero else "compound")
    return FddSpec(lattice, kernel), weights, values, probs, zero


@settings(max_examples=25, derandomize=True, deadline=None)
@given(jump_processes())
def test_jump_kinds_match_the_independent_increment_product_law(process):
    spec, weights, values, probs, zero = process
    for ordering in enumerate_consistent_orderings(spec.lattice):
        law = exact_fdd(spec.with_ordering(ordering))
        columns = []
        for j, cell_set in enumerate(law.sets):
            mean = math.fsum(weights[c] for c in cell_set.cells())
            columns.append({0.0: 1.0} if j == 0 and zero
                           else oracle_column(mean, values, probs))
        assert product_law_tv(law, columns) <= ORACLE_TOL


def multinomial_pmf(counts, n: int, probs, rest_prob: float) -> float:
    """P(counts) under multinomial(n; probs, rest_prob), the rest cell last."""
    rest = n - sum(counts)
    if rest < 0:
        return 0.0
    ways = math.factorial(n) // math.prod(math.factorial(k) for k in (*counts, rest))
    return ways * math.prod(p**k for p, k in zip((*probs, rest_prob), (*counts, rest)))


@st.composite
def empirical_processes(draw):
    side = draw(st.sampled_from((2, 3)))
    grid = GroundGrid((side, side))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=side * side, max_size=side * side))
    weights = [w / math.fsum(raw) for w in raw]
    n = draw(st.integers(1, 6))
    return FddSpec(_lattice(draw, grid), EmpiricalKernel(n, CellMeasure(grid, weights,
                                                                        "probability"))), weights


@settings(max_examples=25, derandomize=True, deadline=None)
@given(empirical_processes())
def test_empirical_kind_matches_the_multinomial_law(process):
    spec, weights = process
    n = spec.kernel.n
    for ordering in enumerate_consistent_orderings(spec.lattice):
        law = exact_fdd(spec.with_ordering(ordering))
        probs = [math.fsum(weights[c] for c in s.cells()) for s in law.sets]
        covered = set().union(*(s.cells() for s in law.sets))
        rest_prob = math.fsum(w for c, w in enumerate(weights) if c not in covered)
        q = np.array([multinomial_pmf(row, n, probs, rest_prob)
                      for row in law.keys.astype(int).tolist()])
        # the oracle's mass off the exact support is 1 minus its mass on it
        tv = 0.5 * (float(np.abs(law.probs - q).sum()) + max(1.0 - float(q.sum()), 0.0))
        assert tv <= ORACLE_TOL
