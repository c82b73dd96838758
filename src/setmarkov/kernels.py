"""Transition systems between nested set unions, behind one kernel protocol.

A kernel maps (B, B', x) with B a subset of B' to the conditional law of the
process value at B' given value x at B.  Five built-in families:

* independent-increment kinds, whose law depends on (B, B') only through
  the intensity of B' minus B: gaussian, and compound poisson, one kernel
  whose subclass poisson only names the unit jump;
* the size-n empirical process (binomial steps, states stored as integer
  counts and displayed as count/n);
* the Dirichlet process (beta steps on [0, 1]).

Construction, sampling, the checks and the flow semigroups call only the
methods of ``TransitionKernel`` (listed there); none of them switches on
``kind``.  The finite-state kinds hold their laws as vectors on a value
grid (``distributions.GridLaw``), and the exact composition checks chain
them as rows over the grid indices the laws reach (``step_rows``,
``chain_rows``, ``rows_tv``).  The empirical kernel has a ``corrupted``
switch that drops the conditioning denominator from the success
probability; it deliberately violates the composition law and is used to
show the checks have power.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import special

from .distributions import (
    DIRECT_BINOMIAL_TRIALS,
    PMF_TAIL,  # noqa: F401  (importable from here too)
    BetaSegment,
    FinitePmf,
    GridLaw,
    NormalLaw,
    PointMass,
    TwoStage,
    binomial_pmf,
    compound_poisson_dict,
    grid_values,
    jump_step,
    pmf_ppf,
)
from .errors import ConfigError, UnsupportedKernelError
from .generators import (
    DirichletFlowSemigroup,
    EmpiricalFlowSemigroup,
    GaussianFlowSemigroup,
    JumpFlowSemigroup,
    empirical_success,
)
from .grid import CellMeasure, GroundGrid, measure_of
from .lattice import IndexedSet, Trace

PROBE_POINTS = 101
_UNIT_STEP = Fraction(1)
_NO_MOVE = GridLaw(0, np.ones(1))


def _require_nested(B: IndexedSet, B2: IndexedSet):
    if not B.issubset(B2):
        raise ConfigError("kernel evaluation needs B contained in B'")


def _binomial_law(trials: int, p: float) -> GridLaw:
    """``binomial_pmf`` on the integer grid: its counts are one range."""
    pmf = binomial_pmf(trials, p)
    return GridLaw(pmf.values[0], np.array(pmf.probs))


@dataclass(frozen=True)
class TransitionKernel:
    """The kernel protocol every layer calls.

    Values are *internal states* (integer counts for the empirical kernel,
    reals otherwise).  A kind implements ``measure``, ``flow_semigroup``
    and ``describe_initial``; finite-state kinds add the exact pmfs, which
    the default ``law`` renormalises and the default ``initial_ppf`` and
    ``increment_ppf`` invert with ``pmf_ppf`` (a uniform equal to the cdf
    at an atom draws the next atom; one above the total of a table cut at
    ``PMF_TAIL`` draws the largest entry), and continuous kinds add
    ``law``, ``cdf_probes`` and their own ppfs.  The defaults of
    ``to_state``, ``display`` and ``probe_states`` suit real-valued states.

    A finite kind's states lie on its value grid: internal state
    ``i * value_step`` at grid index i (``values``, ``index_of``).
    ``increment_pmf``, ``step_rows``, the exact tables and the flow
    semigroups take grid indices; values are made only at input and output
    (``step_pmf``, ``law``, the samplers).  The pmfs are ``GridLaw`` vectors
    over grid indices, which read as read-only dict pmfs {state:
    probability}.  They are memoised on the instance in one array memo
    (``_pmfs``; the empirical kind keeps no step of more than
    ``DIRECT_BINOMIAL_TRIALS`` points left) and shared by every caller: the
    increment and initial pmfs, for the jump kinds the pmf of each
    intensity, a compound kind's grid step, and the leg matrices of
    ``step_rows``.  The step law from an index is its increment pmf shifted
    by the index.  Nothing is cached beyond the instance.
    """

    _pmfs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    kind = "abstract"
    finite_state = False

    def _memo(self, key, compute):
        """The value under ``key``, computed on first use."""
        got = self._pmfs.get(key)
        if got is None:
            # setdefault: a sampler thread that lost a race gets the stored value
            got = self._pmfs.setdefault(key, compute())
        return got

    @property
    def value_step(self) -> Fraction:
        """The step of the value grid: internal state i * step at index i."""
        return _UNIT_STEP

    def values(self, index) -> np.ndarray:
        """The internal states of grid indices, as floats."""
        return grid_values(index, self.value_step)

    def index_of(self, state):
        """The grid index of an internal state on the value grid, elementwise
        on an array of states."""
        step = self.value_step
        index = np.rint(np.asarray(state, dtype=float) * step.denominator
                        / step.numerator).astype(np.int64)
        return index if index.ndim else int(index)

    @property
    def measure(self) -> CellMeasure:
        """The cell measure that drives the kernel."""
        raise NotImplementedError

    @property
    def grid(self) -> GroundGrid:
        return self.measure.grid

    def to_state(self, x):
        """Internal state of the display value x."""
        return float(x)

    def display(self, state):
        """Display value (user units) of an internal state; elementwise on an
        ndarray of states, which comes back as a float array."""
        if isinstance(state, np.ndarray):
            return state.astype(float, copy=False)
        return float(state)

    def probe_states(self) -> tuple:
        """Display states from which the composition law is checked."""
        return (0.0, 1.0, 2.0)

    def cdf_probes(self, B, B2, x) -> np.ndarray:
        """Points where composed and direct cdfs of B -> B2 from x are compared."""
        raise NotImplementedError

    def initial_ppf(self, min_set, u: np.ndarray) -> np.ndarray:
        """Inverse cdf of the initial value (internal units) at uniforms u:
        by default ``pmf_ppf`` of the initial pmf."""
        return pmf_ppf(self.initial_pmf_for(min_set), u)

    def increment_ppf(self, prev, cur, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse cdf of (value at cur) - (value at prev) given internal
        states x at prev, one uniform of u per state: by default ``pmf_ppf``
        of the increment pmf of each distinct state, on that state's rows."""
        # one stable sort groups the rows by state, so each row is read once;
        # the distinct states become grid indices in one call
        order = np.argsort(x, kind="stable")
        states, starts = np.unique(x[order], return_index=True)
        out = np.empty_like(u)
        for index, rows in zip(self.index_of(states).tolist(), np.split(order, starts[1:])):
            out[rows] = pmf_ppf(self.increment_pmf(prev, cur, index), u[rows])
        return out

    def flow_semigroup(self, flow):
        """The one-parameter semigroup of this kernel transported by a flow."""
        raise NotImplementedError

    def step_pmf(self, B, B2, state) -> GridLaw:
        """Law of the value at B2 given the value ``state`` at B: the
        increment pmf of the state's grid index, shifted by it."""
        index = self.index_of(state)
        return self.increment_pmf(B, B2, index).shifted(index)

    def step_rows(self, B, B2, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The step laws from B to B2 of the ascending grid indices ``index``
        as the rows of one matrix over the grid indices they reach:
        (columns, rows), ``rows[i, j]`` the probability of ``columns[j]``
        from ``index[i]``, read only and memoised.  The columns are the
        grid indices the laws reach, so a sparse reach (jumps {1, 1.001}, or
        {1, 1000}) costs its atoms, not its range, and each row is placed by
        its law's atoms."""
        def build():
            laws = [(i, self.increment_pmf(B, B2, i)) for i in index.tolist()]
            columns = np.unique(np.concatenate([i + law.atoms[0] for i, law in laws]))
            rows = np.zeros((len(laws), len(columns)))
            for row, (i, law) in zip(rows, laws):
                at, probs = law.atoms
                row[np.searchsorted(columns, i + at)] = probs
            rows.flags.writeable = False
            return columns, rows

        return self._memo(("rows", B.mask, B2.mask, index.tobytes()), build)

    def grid_law(self, pmf: dict) -> GridLaw:
        """A dict pmf {internal state: probability} as a law on the value
        grid; a state off the grid raises ``ConfigError``."""
        states = np.array(list(pmf), dtype=float)
        index = self.index_of(states)
        if not np.allclose(self.values(index), states, rtol=0.0, atol=1e-9):
            raise ConfigError(f"a state of {sorted(pmf)} is not on the value grid "
                              f"of step {float(self.value_step):g}")
        probs = np.zeros(int(index.max() - index.min()) + 1)
        probs[index - index.min()] = list(pmf.values())
        return GridLaw(int(index.min()), probs, self.value_step)

    def increment_pmf(self, B, B2, state) -> GridLaw:
        """Law of (value at B2) - (value at B) given the value at B, at grid
        index ``state``."""
        raise UnsupportedKernelError(f"{self.kind} kernel is not finite-state")

    def initial_pmf_for(self, min_set) -> GridLaw:
        raise UnsupportedKernelError(f"{self.kind} kernel has no finite initial pmf")

    def ck_monte_carlo(self, B, B1, B2, states, seed: int, count: int) -> "Defect":
        raise UnsupportedKernelError(
            f"{self.kind} kernel has no Monte Carlo composition check")

    def law(self, B, B2, x):
        """Law of the value at B2 given the display value x at B, in display
        units: for a finite-state kind the step pmf from ``to_state(x)``,
        renormalised over the atoms a tail cut kept."""
        index, probs = self.step_pmf(B, B2, self.to_state(x)).atoms
        return FinitePmf(self.display(self.values(index)).tolist(), probs / probs.sum())

    def describe_initial(self, min_set=None) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class EmpiricalKernel(TransitionKernel):
    """n points drawn iid from F; the state at B counts the points inside B."""

    n: int
    F: CellMeasure
    corrupted: bool = False

    kind = "empirical"
    finite_state = True

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("empirical size must be >= 1")
        if self.F.kind != "probability":
            raise ConfigError("empirical kernel needs a probability measure")

    @property
    def measure(self):
        return self.F

    def display(self, state):
        return state / self.n

    def to_state(self, x) -> int:
        k = int(round(x * self.n))
        if not 0 <= k <= self.n or abs(x * self.n - k) > 1e-9:
            raise ConfigError(f"{x} is not a multiple of 1/{self.n} in [0, 1]")
        return k

    def probe_states(self):
        return tuple(j / self.n for j in range(self.n + 1))

    def success_probability(self, B, B2) -> float:
        return empirical_success(measure_of(self.F, B2 - B), measure_of(self.F, B),
                                 self.corrupted)

    def increment_pmf(self, B, B2, state):
        _require_nested(B, B2)
        if B.mask == B2.mask:
            return _NO_MOVE
        rest = self.n - int(state)

        def build():
            return _binomial_law(rest, self.success_probability(B, B2))

        if rest > DIRECT_BINOMIAL_TRIALS:
            # a step meets O(sqrt(n)) such tables of O(sqrt(n)) atoms: not kept
            return build()
        return self._memo((B.mask, B2.mask, rest), build)

    def initial_pmf_for(self, min_set: IndexedSet):
        return self._memo(("initial", min_set.mask), lambda: _binomial_law(
            self.n, measure_of(self.F, min_set)))

    def flow_semigroup(self, flow):
        if self.n > DIRECT_BINOMIAL_TRIALS:
            # its matrices take comb(n - k, j) p^j q^(n-k-j) in floats
            raise ConfigError(f"the empirical flow semigroup needs n <= "
                              f"{DIRECT_BINOMIAL_TRIALS}, where comb(n, k) fits a "
                              f"float; n is {self.n}")
        return EmpiricalFlowSemigroup(self.n, Trace.along_flow(self.F, flow),
                                      corrupted=self.corrupted)

    def describe_initial(self, min_set=None) -> str:
        p = "F(min)" if min_set is None else f"{measure_of(self.F, min_set):.6g}"
        return f"binomial(n={self.n}, p={p}) / n"


@dataclass(frozen=True)
class GaussianIncrementKernel(TransitionKernel):
    """Independent gaussian increments with variance measure ``lam``."""

    lam: CellMeasure
    initial: str = "normal"  # or "zero"

    kind = "gaussian"
    finite_state = False

    def __post_init__(self):
        if self.initial not in ("normal", "zero"):
            raise ConfigError("gaussian initial law must be 'normal' or 'zero'")

    @property
    def measure(self):
        return self.lam

    def probe_states(self):
        return (0.0, 1.0, -0.5)

    def cdf_probes(self, B, B2, x):
        half = 5.0 * math.sqrt(max(measure_of(self.lam, B2 - B), 1e-12))
        return np.linspace(x - half, x + half, PROBE_POINTS)

    def law(self, B, B2, x):
        _require_nested(B, B2)
        var = measure_of(self.lam, B2 - B)
        if var == 0:
            return PointMass(float(x))
        return NormalLaw(float(x), var)

    def initial_ppf(self, min_set, u):
        if self.initial == "zero":
            return np.zeros_like(u)
        return _normal_ppf(u) * np.sqrt(measure_of(self.lam, min_set))

    def increment_ppf(self, prev, cur, x, u):
        return _normal_ppf(u) * np.sqrt(measure_of(self.lam, cur - prev))

    def flow_semigroup(self, flow):
        return GaussianFlowSemigroup(Trace.along_flow(self.lam, flow))

    def describe_initial(self, min_set=None) -> str:
        if self.initial == "zero":
            return "point mass at 0"
        return "normal(0, intensity(min))"


@dataclass(frozen=True)
class CompoundPoissonKernel(TransitionKernel):
    """Independent compound-poisson increments with intensity measure
    ``lam``: a poisson number of iid jumps from the finite jump pmf
    (``jump_values``, ``jump_probs``), on the value grid of the jumps'
    common step (``distributions.jump_step``).  The increment over
    intensity ``mean`` is ``_pmf_of_mean(mean)``, cut at ``PMF_TAIL``; the
    kernel memoises it per mean (``_mean_pmf``), and its tables and its flow
    semigroup both read the memo.  ``_law_name`` names the law in texts and
    ``_initial_name`` its non-zero initial law."""

    lam: CellMeasure
    jump_values: tuple[float, ...]
    jump_probs: tuple[float, ...]
    initial: str = "compound"  # or "zero"

    kind = "compound_poisson"
    finite_state = True  # exact tables use a tail truncation
    _law_name = "compound poisson"
    _initial_name = "compound"

    def __post_init__(self):
        if len(self.jump_values) != len(self.jump_probs) or not self.jump_values:
            raise ConfigError("jump pmf needs matching nonempty values and probs")
        if abs(sum(self.jump_probs) - 1.0) > 1e-12:
            raise ConfigError("jump pmf must sum to 1")
        if self.initial not in (self._initial_name, "zero"):
            raise ConfigError(f"{self._law_name} initial law must be "
                              f"'{self._initial_name}' or 'zero'")

    @property
    def measure(self):
        return self.lam

    @property
    def value_step(self) -> Fraction:
        return self._memo("step", lambda: jump_step(self.jump_values, self.jump_probs))

    def _pmf_of_mean(self, mean: float) -> GridLaw:
        return compound_poisson_dict(mean, self.jump_values, self.jump_probs)

    def _mean_pmf(self, mean: float) -> GridLaw:
        """``_pmf_of_mean(mean)``, memoised per mean: steps over cells of
        equal intensity share one table."""
        return self._memo(("mean", mean), lambda: self._pmf_of_mean(mean))

    def increment_pmf(self, B, B2, state=0):
        _require_nested(B, B2)
        return self._memo((B.mask, B2.mask),
                          lambda: self._mean_pmf(measure_of(self.lam, B2 - B)))

    def initial_pmf_for(self, min_set):
        # the zero initial law is the increment over no cells
        empty = IndexedSet(self.grid, 0)
        return self.increment_pmf(empty, empty if self.initial == "zero" else min_set)

    def increment_ppf(self, prev, cur, x, u):
        return pmf_ppf(self.increment_pmf(prev, cur), u)

    def flow_semigroup(self, flow):
        trace = Trace.along_flow(self.lam, flow)
        start_mass_cap = self.initial_pmf_for(flow.stages[0]).last
        if any(int(v) != v or v < 1 for v in self.jump_values):
            raise ConfigError("flow semigroup needs positive integer jumps")
        # a jump of probability 0 is left out: off the grid of the others,
        # its rounded index could be a jump taken
        taken = [(v, p) for v, p in zip(self.jump_values, self.jump_probs) if p > 0]
        return JumpFlowSemigroup(trace, self._mean_pmf, self.index_of([v for v, _ in taken]),
                                 [p for _, p in taken], start_mass_cap=start_mass_cap)

    def describe_initial(self, min_set=None) -> str:
        if self.initial == "zero":
            return "point mass at 0"
        return f"{self._law_name}(intensity(min))"


@dataclass(frozen=True)
class PoissonIncrementKernel(CompoundPoissonKernel):
    """Independent poisson increments with mean measure ``lam``: compound
    poisson with the unit jump."""

    jump_values: tuple[float, ...] = field(default=(1,), init=False)
    jump_probs: tuple[float, ...] = field(default=(1.0,), init=False)
    initial: str = "poisson"  # or "zero"

    kind = "poisson"
    _law_name = _initial_name = "poisson"


@dataclass(frozen=True)
class DirichletKernel(TransitionKernel):
    """Dirichlet random probability measure with parameter measure ``alpha``;
    states live in [0, 1] and the value at the whole grid is 1."""

    alpha: CellMeasure

    kind = "dirichlet"
    finite_state = False

    def __post_init__(self):
        if self.alpha.kind != "dirichlet":
            raise ConfigError("dirichlet kernel needs a dirichlet parameter measure")

    @property
    def measure(self):
        return self.alpha

    def probe_states(self):
        return (0.0, 0.25, 0.5)

    def cdf_probes(self, B, B2, x):
        return np.linspace(0.0, 1.0, PROBE_POINTS)

    def law(self, B, B2, x):
        _require_nested(B, B2)
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise ConfigError("dirichlet state must lie in [0, 1]")
        if x >= 1.0:
            return PointMass(1.0)
        a = measure_of(self.alpha, B2 - B)
        b = measure_of(self.alpha, B2.complement())
        if a == 0 and b == 0:
            return PointMass(x)
        return BetaSegment(a, b, lo=x)

    def initial_ppf(self, min_set, u):
        a = measure_of(self.alpha, min_set)
        return _beta_ppf(u, a, self.alpha.total - a)

    def increment_ppf(self, prev, cur, x, u):
        a = measure_of(self.alpha, cur - prev)
        b = measure_of(self.alpha, cur.complement())
        return (1.0 - x) * _beta_ppf(u, a, b)

    def flow_semigroup(self, flow):
        return DirichletFlowSemigroup(Trace.along_flow(self.alpha, flow),
                                      self.alpha.total)

    def _beta_steps(self, rng, B, B2, x: np.ndarray) -> np.ndarray:
        """x + (1 - x) Beta(alpha(B2 - B), alpha(B2 complement)), one draw
        per state below 1, in order; a degenerate leg draws nothing."""
        a = measure_of(self.alpha, B2 - B)
        if a == 0:
            return x
        out = np.ones_like(x)
        b = measure_of(self.alpha, B2.complement())
        live = x < 1.0
        if b > 0:
            out[live] = x[live] + (1.0 - x[live]) * rng.beta(a, b, size=int(live.sum()))
        return out

    def ck_monte_carlo(self, B, B1, B2, states, seed, count):
        """Two-stage draws against the direct cdf, compared at the direct
        law's deciles (exact reference probabilities, so each probe has a
        known binomial standard error); keeps the state with the most
        sigmas.  A state whose direct law is a point mass is skipped: both
        routes are exact there."""
        worst, worst_se, worst_sigmas = 0.0, None, -1.0
        for x in states:
            direct = kernel_eval(self, B, B2, x)
            if not isinstance(direct, BetaSegment) or direct._degenerate() is not None:
                continue
            rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 7]))
            ys = self._beta_steps(rng, B, B1, np.full(count, float(x)))
            zs = self._beta_steps(rng, B1, B2, ys)
            levels = np.linspace(0.1, 0.9, 9)
            # betaincinv gives the bits of stats.beta.ppf at these levels
            probes = direct.lo + (1.0 - direct.lo) * special.betaincinv(direct.a, direct.b, levels)
            emp = np.searchsorted(np.sort(zs), probes, side="right") / count
            gaps = np.abs(emp - levels)
            ses = np.sqrt(levels * (1 - levels) / count)
            i = int(np.argmax(gaps / ses))
            if gaps[i] / ses[i] > worst_sigmas:
                worst_sigmas = float(gaps[i] / ses[i])
                worst, worst_se = float(gaps[i]), float(ses[i])
        return Defect(worst, worst_se)

    def describe_initial(self, min_set=None) -> str:
        return "beta(alpha(min), alpha(min complement))"


def kernel_eval(kernel: TransitionKernel, B: IndexedSet, B2: IndexedSet, x):
    """Conditional law of the value at B2 given value x at B, in display units."""
    _require_nested(B, B2)
    if B.mask == B2.mask:
        return PointMass(float(x))
    return kernel.law(B, B2, x)


# the fewest values a piece of a split column holds: on a 2-CPU x86-64 VM,
# 8,192 values of ``special.ndtri``, the cheapest function split, took about
# as long in two pieces as in one call (0.95-1.04x), and 4,096 values took
# longer (0.82-0.93x); ``special.betainc`` gained from two pieces of 2,048
MIN_PIECE = 4096
POOL_THREAD_PREFIX = "setmarkov-columns"


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


class _Columns(dict):
    """Read-only columns by key; ``key_of`` maps the id of each column held
    back to its key.  The memo keeps every column it holds alive, so an id
    it finds there is never that of an array it does not own.  ``threads``
    is the pool's size, read when ``pieces`` is first asked, and ``pool()``
    the scope's thread pool, made on first use."""

    def __init__(self):
        super().__init__()
        self.key_of: dict[int, tuple] = {}
        self.threads: int | None = None
        self._pool: ThreadPoolExecutor | None = None

    def pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.threads,
                                            thread_name_prefix=POOL_THREAD_PREFIX)
        return self._pool

    def pieces(self, n: int) -> int:
        """How many pieces ``in_pieces`` cuts n values into: one per usable
        CPU at most, each of at least ``MIN_PIECE`` values."""
        if self.threads is None:
            self.threads = _usable_cpus() - 1
        return max(1, min(self.threads + 1, n // MIN_PIECE))

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


_COLUMN_MEMO: ContextVar[_Columns | None] = ContextVar("column_memo", default=None)


@contextmanager
def shared_columns():
    """Within the block, the current thread computes each sampled column
    once and then shares it, read only: the clipped uniform column of each
    stream, keyed by (seed, stream key, start, count), and each quantile
    column derived from one, keyed by its parameters and that stream's key.
    Orderings sampled from the same streams meet the same columns again.

    The block also owns a pool of one thread fewer than the CPUs the
    process may use, made when ``in_pieces`` first splits a column, so each
    quantile column and each cdf column ``in_pieces`` takes is computed on
    every usable CPU.  The functions split are elementwise: a column holds
    the same bits whatever the CPU count.

    A nested block reuses the memo and pool already open; the outermost
    block drops the memo and joins the pool's threads on exit, raising or
    not.  Outside any block nothing is memoised or split."""
    if _COLUMN_MEMO.get() is not None:
        yield
        return
    memo = _Columns()
    token = _COLUMN_MEMO.set(memo)
    try:
        yield
    finally:
        _COLUMN_MEMO.reset(token)
        memo.close()


def in_pieces(f, x: np.ndarray) -> np.ndarray:
    """``f(x)`` for a function f elementwise on the 1-d array x.  Inside
    ``shared_columns`` x is cut into contiguous pieces (``_Columns.pieces``):
    the calling thread computes the first and the scope's pool the others,
    and the results are joined into one array, which holds the bits of
    ``f(x)``.  Outside a block, ``f(x)`` itself."""
    memo = _COLUMN_MEMO.get()
    pieces = 1 if memo is None else memo.pieces(len(x))
    if pieces == 1:
        return f(x)
    cuts = [len(x) * i // pieces for i in range(pieces + 1)]
    rest = [memo.pool().submit(f, x[a:b]) for a, b in zip(cuts[1:-1], cuts[2:])]
    first = f(x[:cuts[1]])
    return np.concatenate([first, *(piece.result() for piece in rest)])


def shared_column(key: tuple, compute) -> np.ndarray:
    """``compute()``, a fresh array; inside ``shared_columns`` the column
    stored under ``key``, computed on first use and then read only."""
    memo = _COLUMN_MEMO.get()
    if memo is None:
        return compute()
    col = memo.get(key)
    if col is None:
        col = memo[key] = compute()
        col.flags.writeable = False
        memo.key_of[id(col)] = key
    return col


def _quantile_column(law: tuple, u: np.ndarray, ppf) -> np.ndarray:
    """``ppf(u)``, the quantiles of ``law`` at the uniforms u, elementwise:
    shared under (*law, key of u) when u is a column of the open memo and
    computed ``in_pieces``, and computed afresh otherwise."""
    memo = _COLUMN_MEMO.get()
    stream = None if memo is None else memo.key_of.get(id(u))
    if stream is None:
        return ppf(u)
    return shared_column((*law, stream), lambda: in_pieces(ppf, u))


def _normal_ppf(u: np.ndarray) -> np.ndarray:
    return _quantile_column(("normal",), u, special.ndtri)


def _beta_ppf(u: np.ndarray, a: float, b: float) -> np.ndarray:
    if a == 0:
        return np.zeros_like(u)
    if b == 0:
        return np.ones_like(u)
    return _quantile_column(("beta", a, b), u, lambda v: special.betaincinv(a, b, v))


def _placed(columns: np.ndarray, lo: int):
    """Where the entries over ``columns`` sit in a row over the grid indices
    lo, lo + 1, ...: one slice when the columns are one range."""
    if columns[-1] - columns[0] == len(columns) - 1:
        return slice(int(columns[0]) - lo, int(columns[-1]) - lo + 1)
    return columns - lo


def chain_rows(kernel, stages, states) -> tuple[np.ndarray, np.ndarray]:
    """Exact laws of the internal state at stages[-1] after chaining the
    kernel through the consecutive stages, one row per internal state of
    ``states`` at stages[0]: (columns, rows), ``rows[i, j]`` the probability
    of grid index ``columns[j]``.  The start is one-hot rows over the
    states' distinct grid indices, so a single leg gives its step laws bit
    for bit."""
    index = kernel.index_of(states)
    columns = np.unique(index)
    return _push_rows(kernel, stages, columns, (index[:, None] == columns).astype(float))


def chain_law(kernel, stages, start: GridLaw) -> GridLaw:
    """Law of the internal state at stages[-1] when the chain starts from
    the law ``start`` at stages[0], by the rows of ``chain_rows`` from one
    start row over the atoms of ``start``."""
    columns, probs = start.atoms
    columns, rows = _push_rows(kernel, stages, columns, probs[None, :])
    probs = np.zeros(int(columns[-1] - columns[0]) + 1)
    probs[_placed(columns, int(columns[0]))] = rows[0]
    return GridLaw(int(columns[0]), probs, start.step)


def _push_rows(kernel, stages, columns: np.ndarray,
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Laws at stages[0] over the grid indices ``columns`` carried to
    stages[-1]: each leg is the kernel's ``step_rows`` from the columns the
    chain has reached, and the legs are multiplied."""
    for a, b in zip(stages, stages[1:]):
        if a.mask != b.mask:
            columns, leg = kernel.step_rows(a, b, columns)
            rows = rows @ leg
    return columns, rows


def rows_tv(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Total variation distance between matching rows of two (columns,
    rows) laws, over the range of grid indices the two span."""
    (ca, ra), (cb, rb) = a, b
    lo = int(min(ca[0], cb[0]))
    gap = np.zeros((len(ra), int(max(ca[-1], cb[-1])) - lo + 1))
    gap[:, _placed(ca, lo)] = ra
    gap[:, _placed(cb, lo)] -= rb
    return 0.5 * np.abs(gap).sum(axis=1)


def chains_tv(kernel, stages1, stages2, states) -> float:
    """Largest total variation distance, over the internal ``states``,
    between the kernel's chain along ``stages1`` and along ``stages2``: two
    ``chain_rows`` laws, each built once for all states."""
    gaps = rows_tv(chain_rows(kernel, stages1, states), chain_rows(kernel, stages2, states))
    return float(gaps.max(initial=0.0))


def compose_kernels(kernel, B, B1, B2, x):
    """Chain the kernel through an intermediate set: B -> B1 -> B2.

    Exact pmf composition for finite-state kinds.  For the continuous kinds
    a leg over a set of zero measure is the identity, so the other leg's law
    is returned exactly; otherwise a quadrature ``TwoStage`` law.
    """
    _require_nested(B, B1)
    _require_nested(B1, B2)
    if kernel.finite_state:
        columns, rows = chain_rows(kernel, (B, B1, B2), [kernel.to_state(x)])
        at = np.flatnonzero(rows[0])
        return FinitePmf(kernel.display(kernel.values(columns[at])).tolist(),
                         rows[0, at] / rows[0, at].sum())
    if measure_of(kernel.measure, B2 - B1) == 0:
        return kernel_eval(kernel, B, B1, x)
    if measure_of(kernel.measure, B1 - B) == 0:
        return kernel_eval(kernel, B1, B2, x)
    return TwoStage(kernel_eval(kernel, B, B1, x), lambda y: kernel_eval(kernel, B1, B2, y))


@dataclass
class Defect:
    """A defect (the Chapman-Kolmogorov one of ``ck_defect``, or a Monte
    Carlo probability gap), with its standard error when sampled."""

    defect: float
    se: float | None = None

    @property
    def sigmas(self) -> float | None:
        if self.se is None:
            return None
        return self.defect / max(self.se, 1e-300)


def ck_defect(kernel, B, B1, B2, states, mc: tuple[int, int] | None = None) -> Defect:
    """Deviation of the two-step composition from the direct kernel.

    Finite-state kinds: exact total-variation distance, maximized over
    ``states``.  Continuous kinds: sup over the kernel's ``cdf_probes`` of
    the quadrature cdf of the composition against the direct cdf.  With
    ``mc=(seed, count)`` the kernel's Monte Carlo route instead (dirichlet
    only), reported with a binomial standard error.
    """
    if mc is not None:
        return kernel.ck_monte_carlo(B, B1, B2, states, *mc)
    if kernel.finite_state:
        return Defect(chains_tv(kernel, (B, B1, B2), (B, B2),
                                [kernel.to_state(x) for x in states]))
    worst = 0.0
    for x in states:
        direct = kernel_eval(kernel, B, B2, x)
        composed = compose_kernels(kernel, B, B1, B2, x)
        probes = kernel.cdf_probes(B, B2, x)
        worst = max(worst, float(np.max(np.abs(composed.cdf(probes) - direct.cdf(probes)))))
    return Defect(worst)
