"""Transition systems between nested set unions, behind one kernel protocol.

A kernel maps (B, B', x) with B a subset of B' to the conditional law of the
process value at B' given value x at B.  Five built-in families:

* independent-increment kinds (gaussian / poisson / compound poisson), whose
  law depends on (B, B') only through the intensity of B' minus B;
* the size-n empirical process (binomial steps, states stored as integer
  counts and displayed as count/n);
* the Dirichlet process (beta steps on [0, 1]).

Construction, sampling, the checks and the flow semigroups call only the
methods of ``TransitionKernel`` (listed there); none of them switches on
``kind``.  The empirical kernel has a ``corrupted`` switch that drops the
conditioning denominator from the success probability; it deliberately
violates the composition law and is used to show the checks have power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy import special, stats

from .distributions import (
    BetaSegment,
    FinitePmf,
    NormalLaw,
    PointMass,
    ShiftedPoisson,
    TwoStage,
    binomial_pmf,
    canonical_value,
    compound_poisson_dict,
    pmf_ppf,
    poisson_tail_count,
    tv_distance,
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
# the poisson count is truncated where its tail drops below this
PMF_TAIL = 1e-13
_NO_MOVE = MappingProxyType({0: 1.0})
_NO_MOVE_REAL = MappingProxyType({0.0: 1.0})


def _require_nested(B: IndexedSet, B2: IndexedSet):
    if not B.issubset(B2):
        raise ConfigError("kernel evaluation needs B contained in B'")


def _start_cap(kernel, flow) -> int:
    """Largest state of the initial law at the flow's first stage."""
    return int(max(kernel.initial_pmf_for(flow.stages[0])))


@dataclass(frozen=True)
class TransitionKernel:
    """The kernel protocol every layer calls.

    Internal machinery works on *internal states* (integer counts for the
    empirical kernel, reals otherwise).  A kind implements ``measure``,
    ``law``, ``initial_ppf``, ``increment_ppf``, ``flow_semigroup`` and
    ``describe_initial``; finite-state kinds add the exact pmfs, continuous
    kinds add ``cdf_probes``.  The defaults of ``to_state``, ``display`` and
    ``probe_states`` suit real-valued states.

    Finite-state kinds memoise their pmfs on the instance (``_pmfs``) and
    return them as read-only mappings shared by every caller.
    """

    _pmfs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    kind = "abstract"
    finite_state = False

    def _memo(self, key, compute) -> MappingProxyType:
        """The pmf stored under ``key``, computed on first use."""
        pmf = self._pmfs.get(key)
        if pmf is None:
            # setdefault: a sampler thread that lost a race gets the stored pmf
            pmf = self._pmfs.setdefault(key, MappingProxyType(compute()))
        return pmf

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
        """Inverse cdf of the initial value (internal units) at uniforms u."""
        raise NotImplementedError

    def increment_ppf(self, prev, cur, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Inverse cdf of (value at cur) - (value at prev) given internal
        states x at prev, one uniform of u per state."""
        raise NotImplementedError

    def flow_semigroup(self, flow):
        """The one-parameter semigroup of this kernel transported by a flow."""
        raise NotImplementedError

    def step_pmf(self, B, B2, state) -> dict:
        """Law of the value at B2 given the value ``state`` at B."""
        return {state + j: p for j, p in self.increment_pmf(B, B2, state).items()}

    def increment_pmf(self, B, B2, state) -> dict:
        """Law of (value at B2) - (value at B) given the value at B."""
        raise UnsupportedKernelError(f"{self.kind} kernel is not finite-state")

    def initial_pmf_for(self, min_set) -> dict:
        raise UnsupportedKernelError(f"{self.kind} kernel has no finite initial pmf")

    def ck_monte_carlo(self, B, B1, B2, states, seed: int, count: int) -> "CkResult":
        raise UnsupportedKernelError(
            f"{self.kind} kernel has no Monte Carlo composition check")

    def law(self, B, B2, x):
        raise NotImplementedError

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
        return self._memo((B.mask, B2.mask, rest), lambda: binomial_pmf(
            rest, self.success_probability(B, B2)).as_dict())

    def initial_pmf_for(self, min_set: IndexedSet):
        return self._memo(("initial", min_set.mask), lambda: binomial_pmf(
            self.n, measure_of(self.F, min_set)).as_dict())

    def initial_ppf(self, min_set, u):
        return stats.binom.ppf(u, self.n, measure_of(self.F, min_set))

    def increment_ppf(self, prev, cur, x, u):
        p = self.success_probability(prev, cur) if prev.mask != cur.mask else 0.0
        return stats.binom.ppf(u, self.n - x, p)

    def flow_semigroup(self, flow):
        return EmpiricalFlowSemigroup(self.n, Trace.along_flow(self.F, flow),
                                      corrupted=self.corrupted)

    def law(self, B, B2, x):
        pmf = self.step_pmf(B, B2, self.to_state(x))
        return FinitePmf([self.display(v) for v in pmf], list(pmf.values()))

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
        return special.ndtri(u) * np.sqrt(measure_of(self.lam, min_set))

    def increment_ppf(self, prev, cur, x, u):
        return special.ndtri(u) * np.sqrt(measure_of(self.lam, cur - prev))

    def flow_semigroup(self, flow):
        return GaussianFlowSemigroup(Trace.along_flow(self.lam, flow))

    def describe_initial(self, min_set=None) -> str:
        if self.initial == "zero":
            return "point mass at 0"
        return "normal(0, intensity(min))"


@dataclass(frozen=True)
class PoissonIncrementKernel(TransitionKernel):
    """Independent poisson increments with mean measure ``lam``."""

    lam: CellMeasure
    initial: str = "poisson"  # or "zero"

    kind = "poisson"
    finite_state = True  # integer states; exact tables use a tail truncation

    def __post_init__(self):
        if self.initial not in ("poisson", "zero"):
            raise ConfigError("poisson initial law must be 'poisson' or 'zero'")

    @property
    def measure(self):
        return self.lam

    def law(self, B, B2, x):
        _require_nested(B, B2)
        mean = measure_of(self.lam, B2 - B)
        if mean == 0:
            return PointMass(float(x))
        return ShiftedPoisson(float(x), mean)

    def increment_pmf(self, B, B2, state=0):
        _require_nested(B, B2)
        return self._memo((B.mask, B2.mask),
                          lambda: _poisson_pmf(measure_of(self.lam, B2 - B)))

    def initial_pmf_for(self, min_set):
        if self.initial == "zero" or measure_of(self.lam, min_set) == 0:
            return _NO_MOVE
        return self.increment_pmf(IndexedSet(self.grid, 0), min_set, 0)

    def initial_ppf(self, min_set, u):
        if self.initial == "zero":
            return np.zeros_like(u)
        return stats.poisson.ppf(u, measure_of(self.lam, min_set))

    def increment_ppf(self, prev, cur, x, u):
        mean = measure_of(self.lam, cur - prev)
        return stats.poisson.ppf(u, mean) if mean > 0 else np.zeros_like(u)

    def flow_semigroup(self, flow):
        return JumpFlowSemigroup(Trace.along_flow(self.lam, flow), _poisson_pmf,
                                 start_mass_cap=_start_cap(self, flow))

    def describe_initial(self, min_set=None) -> str:
        if self.initial == "zero":
            return "point mass at 0"
        return "poisson(intensity(min))"


@dataclass(frozen=True)
class CompoundPoissonKernel(TransitionKernel):
    """Independent compound-poisson increments: a poisson number of iid jumps
    from a finite jump pmf, intensity measure ``lam``."""

    lam: CellMeasure
    jump_values: tuple[float, ...]
    jump_probs: tuple[float, ...]
    initial: str = "compound"  # or "zero"

    kind = "compound_poisson"
    finite_state = True

    def __post_init__(self):
        if len(self.jump_values) != len(self.jump_probs) or not self.jump_values:
            raise ConfigError("jump pmf needs matching nonempty values and probs")
        if abs(sum(self.jump_probs) - 1.0) > 1e-12:
            raise ConfigError("jump pmf must sum to 1")
        if self.initial not in ("compound", "zero"):
            raise ConfigError("compound poisson initial law must be 'compound' or 'zero'")

    @property
    def measure(self):
        return self.lam

    def step_pmf(self, B, B2, state) -> dict:
        _require_nested(B, B2)
        # canonical float keys so composed sums merge with direct ones
        return {canonical_value(state + v): p
                for v, p in self.increment_pmf(B, B2, state).items()}

    def increment_pmf(self, B, B2, state=0.0):
        _require_nested(B, B2)
        return self._memo((B.mask, B2.mask),
                          lambda: self._pmf_of_mean(measure_of(self.lam, B2 - B)))

    def _pmf_of_mean(self, mean: float) -> dict:
        if mean == 0:
            return {0.0: 1.0}
        return compound_poisson_dict(mean, self.jump_values, self.jump_probs,
                                     tail=PMF_TAIL)

    def initial_pmf_for(self, min_set):
        if self.initial == "zero":
            return _NO_MOVE_REAL
        return self.increment_pmf(IndexedSet(self.grid, 0), min_set)

    def law(self, B, B2, x):
        pmf = self.step_pmf(B, B2, float(x))
        vals = list(pmf.keys())
        probs = np.array(list(pmf.values()))
        probs = probs / probs.sum()  # renormalize truncation for the public law
        return FinitePmf(vals, probs)

    def initial_ppf(self, min_set, u):
        return pmf_ppf(self.initial_pmf_for(min_set), u)

    def increment_ppf(self, prev, cur, x, u):
        return pmf_ppf(self.increment_pmf(prev, cur), u)

    def flow_semigroup(self, flow):
        return JumpFlowSemigroup(Trace.along_flow(self.lam, flow), self._pmf_of_mean,
                                 self.jump_values, self.jump_probs,
                                 start_mass_cap=_start_cap(self, flow))

    def describe_initial(self, min_set=None) -> str:
        if self.initial == "zero":
            return "point mass at 0"
        return "compound poisson(intensity(min))"


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
            probes = np.asarray([direct.lo + (1.0 - direct.lo) *
                                 stats.beta.ppf(q, direct.a, direct.b)
                                 for q in levels])
            emp = np.searchsorted(np.sort(zs), probes, side="right") / count
            gaps = np.abs(emp - levels)
            ses = np.sqrt(levels * (1 - levels) / count)
            i = int(np.argmax(gaps / ses))
            if gaps[i] / ses[i] > worst_sigmas:
                worst_sigmas = float(gaps[i] / ses[i])
                worst, worst_se = float(gaps[i]), float(ses[i])
        return CkResult(worst, worst_se)

    def describe_initial(self, min_set=None) -> str:
        return "beta(alpha(min), alpha(min complement))"


def _poisson_pmf(mean: float) -> dict:
    if mean == 0:
        return {0: 1.0}
    kmax = poisson_tail_count(mean, PMF_TAIL)
    probs = stats.poisson.pmf(np.arange(kmax + 1), mean)
    return {j: float(probs[j]) for j in range(kmax + 1)}


def kernel_eval(kernel: TransitionKernel, B: IndexedSet, B2: IndexedSet, x):
    """Conditional law of the value at B2 given value x at B, in display units."""
    _require_nested(B, B2)
    if B.mask == B2.mask:
        return PointMass(float(x))
    return kernel.law(B, B2, x)


def _beta_ppf(u: np.ndarray, a: float, b: float) -> np.ndarray:
    if a == 0:
        return np.zeros_like(u)
    if b == 0:
        return np.ones_like(u)
    return special.betaincinv(a, b, u)


def chain_pmf(kernel, stages, state) -> dict:
    """Exact pmf of the internal state at stages[-1] after chaining the
    kernel through the consecutive stages, from ``state`` at stages[0]."""
    pmf = {state: 1.0}
    for a, b in zip(stages, stages[1:]):
        if a.mask == b.mask:
            continue
        out: dict = {}
        for y, p in pmf.items():
            for z, q in kernel.step_pmf(a, b, y).items():
                out[z] = out.get(z, 0.0) + p * q
        pmf = out
    return pmf


def compose_kernels(kernel, B, B1, B2, x):
    """Chain the kernel through an intermediate set: B -> B1 -> B2.

    Exact pmf composition for finite-state kinds.  For the continuous kinds
    a leg over a set of zero measure is the identity, so the other leg's law
    is returned exactly; otherwise a quadrature ``TwoStage`` law.
    """
    _require_nested(B, B1)
    _require_nested(B1, B2)
    if kernel.finite_state:
        out = chain_pmf(kernel, (B, B1, B2), kernel.to_state(x))
        total = sum(out.values())
        return FinitePmf([kernel.display(v) for v in out], [p / total for p in out.values()])
    if measure_of(kernel.measure, B2 - B1) == 0:
        return kernel_eval(kernel, B, B1, x)
    if measure_of(kernel.measure, B1 - B) == 0:
        return kernel_eval(kernel, B1, B2, x)
    return TwoStage(kernel_eval(kernel, B, B1, x), lambda y: kernel_eval(kernel, B1, B2, y))


@dataclass
class CkResult:
    """Chapman-Kolmogorov defect, with Monte Carlo error bars when sampled."""

    defect: float
    se: float | None = None

    @property
    def sigmas(self) -> float | None:
        if self.se is None:
            return None
        return self.defect / max(self.se, 1e-300)


def ck_defect(kernel, B, B1, B2, states, mc: tuple[int, int] | None = None) -> CkResult:
    """Deviation of the two-step composition from the direct kernel.

    Finite-state kinds: exact total-variation distance, maximized over
    ``states``.  Continuous kinds: sup over the kernel's ``cdf_probes`` of
    the quadrature cdf of the composition against the direct cdf.  With
    ``mc=(seed, count)`` the kernel's Monte Carlo route instead (dirichlet
    only), reported with a binomial standard error.
    """
    if mc is not None:
        return kernel.ck_monte_carlo(B, B1, B2, states, *mc)
    worst = 0.0
    for x in states:
        if kernel.finite_state:
            state = kernel.to_state(x)
            d = tv_distance(chain_pmf(kernel, (B, B1, B2), state),
                            kernel.step_pmf(B, B2, state))
        else:
            direct = kernel_eval(kernel, B, B2, x)
            composed = compose_kernels(kernel, B, B1, B2, x)
            d = max(abs(composed.cdf(z) - direct.cdf(z))
                    for z in kernel.cdf_probes(B, B2, x))
        worst = max(worst, d)
    return CkResult(worst)
