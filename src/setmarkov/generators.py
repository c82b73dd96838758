"""One-parameter semigroups along flows, their closed-form generators, and
the operator identities that tie the two together.

A flow turns the set-indexed kernel into a one-parameter family of
transition operators driven entirely by the measure trace t -> m(f(t))
(piecewise linear between knots, ``lattice.Trace``), which each kernel
takes of its own measure when it builds its semigroup (``flow_semigroup``).
Finite-state kinds are represented by matrices on one (row, jump) band,
built afresh as one stack for many times at once (all Gauss nodes of a
segment, in pieces of at most ``construction.TABLE_CAP`` entries); the
empirical kind's binomial coefficients come from
``distributions.binomial_coefficients``, as ``binomial_pmf``'s do.  The gaussian and dirichlet kinds are represented by
quadrature (the Gauss-Hermite, resp. Gauss-Jacobi rules of ``quadrature``)
applied to test functions that are elementwise on float64 arrays, one array
call per rule.

Checks provided:

* finite-difference convergence of (T_{s,s+eps}h - h)/eps to the generator;
* the integral identity  T_{st}h - h = integral_s^t G_v T_{vt} h dv;
* matching of the generator integrals of two flows with shared endpoints;
* the permutation identities relating transport along two consistent
  orderings of the same lattice, in both transition-operator form (exact)
  and generator-integral form (quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import binomial_coefficients
from .errors import ConfigError, TableSizeError, UnsupportedKernelError
from .lattice import ConsistentOrdering, DiscreteFlow, Trace, flow_from_ordering
from .quadrature import gauss_segment, hermite, jacobi01, jacobi01_raw

GAUSS_NODES = 32
JACOBI_ORDER = 48
GAUSS_STENCIL = 1.0 / 512.0
# an empirical stage leaves no point outside it once this little mass is left
EMPTY_REST = 1e-15


class MatrixSemigroup:
    """Transition and generator matrices acting on state vectors, along the
    measure trace of a flow, on the grid indices 0..cap.

    A subclass builds stacks: ``matrices(ss, t)`` gives T_{s_i,t} for each
    time of the array ``ss``, and ``generator_matrices(vs, side)`` gives
    G_{v_i}, built afresh on every call; ``matrix`` and ``generator_matrix``
    are their one-time calls.  Every entry a matrix may fill lies on one
    band, (row, row + jump) for each row and jump with row + jump <= cap,
    and ``_banded`` writes one value per band entry of every matrix of a
    stack at once, at flat positions set up here.  ``tail_cut`` is None when
    the transition matrices hold their step laws whole; a semigroup whose
    step laws are cut at a tail sets it to the largest mass any matrix it
    built so far dropped.  Matrices of more than ``construction.TABLE_CAP``
    entries raise ``ConfigError`` unbuilt, with the count, and ``chunks``
    splits the times of a stack so that no stack holds more."""

    tail_cut: float | None = None

    def __init__(self, trace: Trace, states: np.ndarray):
        from . import construction  # read at call time, as the table cap is
        entries = len(states) ** 2
        if entries > construction.TABLE_CAP:
            raise ConfigError(f"the flow semigroup's matrices on {len(states)} states need "
                              f"{entries} entries, more than {construction.TABLE_CAP}")
        self.trace = trace
        self.states = states
        self._rows, self._jumps = np.nonzero(np.add.outer(states, states) <= states[-1])
        self._flat = self._rows * (len(states) + 1) + self._jumps

    def _banded(self, values: np.ndarray) -> np.ndarray:
        """The stack of matrices with ``values[k, i]`` at the i-th band entry
        of the k-th, row by row and jump by jump, and 0 off the band."""
        dim = len(self.states)
        M = np.zeros((len(values), dim * dim))
        M[:, self._flat] = values
        return M.reshape(-1, dim, dim)

    def chunks(self, times: np.ndarray) -> list[np.ndarray]:
        """``times`` in order, in pieces whose stacks of matrices hold at most
        ``construction.TABLE_CAP`` entries (one time a piece at the least)."""
        from . import construction
        size = max(1, construction.TABLE_CAP // len(self.states) ** 2)
        return [times[i: i + size] for i in range(0, len(times), size)]

    def matrix(self, s: float, t: float) -> np.ndarray:
        return self.matrices(np.array([s], dtype=float), t)[0]

    def generator_matrix(self, s: float, side: str = "+") -> np.ndarray:
        return self.generator_matrices(np.array([s], dtype=float), side)[0]

    def apply(self, s, t, h):
        return self.matrix(s, t) @ np.asarray(h, dtype=float)

    def apply_generator(self, s, h, side="+"):
        return self.generator_matrix(s, side) @ np.asarray(h, dtype=float)

    def generator_terms(self, vs: np.ndarray, end: float, h):
        """G_v T_{v,end} h read at the probe states, for each time v of
        ``vs`` in order: two batched products per chunk of times."""
        h = np.asarray(h, dtype=float)
        columns = h.reshape(len(h), -1)  # a vector h as one column
        for chunk in self.chunks(vs):
            for term in self.generator_matrices(chunk) @ (self.matrices(chunk, end) @ columns):
                yield self.values(term.reshape(h.shape))

    def values(self, h):
        return np.asarray(h, dtype=float)[self.probe_states]

    def basis(self):
        """The identity: one column per state, so every function of the state."""
        return np.eye(len(self.states))

    def exhausted(self, t: float) -> bool:
        """Whether the stage at time t leaves no mass outside it."""
        return False


class QuadratureSemigroup:
    """Operators acting on test functions that are elementwise on float64
    arrays of any shape, like numpy ufuncs, read off at fixed probe points.
    ``apply`` and ``apply_generator`` return such functions: they broadcast
    the argument over a trailing node axis and contract it with the weights."""

    def generator_terms(self, vs: np.ndarray, end: float, h):
        """G_v T_{v,end} h read at the probe points, for each time v of
        ``vs`` in order, one time at a time."""
        for v in vs:
            yield self.values(self.apply_generator(v, self.apply(v, end, h)))

    def values(self, h):
        return h(self.probes)

    def exhausted(self, t: float) -> bool:
        """Whether the stage at time t leaves no mass outside it."""
        return False


def empirical_success(gain: float, covered: float, corrupted: bool) -> float:
    """Chance that an empirical point outside mass ``covered`` lands in a
    growth of mass ``gain``, for the kernel's steps and the flow semigroup
    alike; ``corrupted`` is the broken rule that skips the denominator."""
    gain = max(gain, 0.0)
    if corrupted:
        return min(gain, 1.0)
    rest = 1.0 - covered
    if rest <= EMPTY_REST:  # the set holds all the mass: no point is left outside
        return 0.0
    return min(gain / rest, 1.0)


class EmpiricalFlowSemigroup(MatrixSemigroup):
    """Binomial transition matrices along a flow of a size-n empirical process.

    The trace G(t) is the sampling probability of the flow stage; the success
    probability between s and t is ``empirical_success(G(t)-G(s), G(s))``.
    """

    def __init__(self, n: int, trace: Trace, corrupted: bool = False):
        super().__init__(trace, np.arange(n + 1))
        self.n = n
        self.corrupted = corrupted
        self.probe_states = self.states
        # band entry (k, k + j) of a transition matrix is comb(n - k, j) p^j q^(n-k-j)
        self._tails = n - self._rows - self._jumps
        self._comb = np.array([c for m in range(n, -1, -1)
                               for c in binomial_coefficients(m, range(m + 1))])

    def matrices(self, ss: np.ndarray, t: float) -> np.ndarray:
        gt, gs = self.trace(t), self.trace(ss).tolist()
        ps = [empirical_success(gt - g, g, self.corrupted) for g in gs]
        # powers by Python's float pow, as distributions.binomial_pmf takes them
        p_pow = np.array([[p**j for j in range(self.n + 1)] for p in ps])
        q_pow = np.array([[(1.0 - p)**j for j in range(self.n + 1)] for p in ps])
        return self._banded(self._comb * p_pow[:, self._jumps] * q_pow[:, self._tails])

    def exhausted(self, t):
        # the corrupted rule never divides by the mass left outside
        return not self.corrupted and 1.0 - self.trace(t) <= EMPTY_REST

    def generator_matrices(self, vs: np.ndarray, side: str = "+") -> np.ndarray:
        slope = self.trace.slope(vs, side)
        rest = np.ones_like(slope) if self.corrupted else 1.0 - self.trace(vs)
        if ((slope != 0.0) & (rest == 0.0)).any():
            raise ConfigError("generator undefined where a stage that holds all the mass "
                              "still grows")
        # a stage that does not grow moves nothing, even when it holds all the mass
        rate = np.divide(slope, rest, out=np.zeros_like(slope), where=slope != 0.0)
        # out of state k at rate (n - k) * rate, up by one
        stay, up = self._jumps == 0, self._jumps == 1
        values = np.zeros((len(vs), len(self._rows)))
        values[:, stay] = np.multiply.outer(rate, self._rows[stay] - self.n)
        values[:, up] = np.multiply.outer(rate, self.n - self._rows[up])
        return self._banded(values)


class JumpFlowSemigroup(MatrixSemigroup):
    """Poisson / compound-poisson transition matrices along a flow, on the
    grid indices 0..cap of the kernel's value grid.

    ``step_law(mean)`` is the kernel's own law of the increment over trace
    mass ``mean`` -- the ``GridLaw`` its exact tables use, cut at the same
    tail -- so a row of ``matrix`` is the kernel's step law; ``jumps`` are
    the grid indices, each at least 1, of the jumps it takes, which the
    kernel checks.  The cap is ``start_mass_cap``, the initial law's last
    index, plus the step law's over the whole trace.
    The matrices are the exactly killed (sub-stochastic) restriction, so
    the generator/semigroup identities hold to machine precision on states
    that cannot reach the cap.  ``matrices`` places each step law's vector
    by jump index, one slice, and reads it onto the band by jump; ``tail_cut``
    records the mass the tail cut left out of that vector (1 minus its
    sum), the largest over the matrices built so far.
    """

    def __init__(self, trace: Trace, step_law, jumps=(1,), jump_probs=(1.0,),
                 start_mass_cap: int = 0):
        self.step_law = step_law
        self.jumps = tuple(int(j) for j in jumps)
        self.jump_probs = tuple(float(p) for p in jump_probs)
        law = step_law(max(float(trace.values[-1] - trace.values[0]), 1e-9))
        self.cap = start_mass_cap + law.last
        super().__init__(trace, np.arange(self.cap + 1))
        self.probe_states = np.arange(start_mass_cap + 1)
        self.tail_cut = 0.0

    def matrices(self, ss: np.ndarray, t: float) -> np.ndarray:
        gt, values = self.trace(t), []
        for gs in self.trace(ss).tolist():
            law = self.step_law(max(gt - gs, 0.0))
            by_jump = np.zeros(max(self.cap, law.last) + 1)
            by_jump[law.first: law.last + 1] = law.probs
            self.tail_cut = max(self.tail_cut, 1.0 - float(by_jump.sum()))
            values.append(by_jump[self._jumps])
        return self._banded(np.array(values))

    def generator_matrices(self, vs: np.ndarray, side: str = "+") -> np.ndarray:
        rate = self.trace.slope(vs, side)
        by_jump = np.zeros((len(vs), max(self.cap, *self.jumps) + 1))
        np.add.at(by_jump, (slice(None), [0, *self.jumps]),
                  np.multiply.outer(rate, [-1.0, *self.jump_probs]))
        return self._banded(by_jump[:, self._jumps])


class GaussianFlowSemigroup(QuadratureSemigroup):
    """Heat semigroup along a flow: convolution with a centered normal whose
    variance is the trace increment.  Transition operators act on array test
    functions via Gauss-Hermite quadrature; the generator is half the trace
    slope times a centered second difference with a fixed fine stencil."""

    def __init__(self, trace: Trace):
        self.trace = trace
        sd = math.sqrt(max(float(trace.values[-1]), 1e-9))
        self.probes = np.linspace(-3.0 * sd, 3.0 * sd, 13)

    def apply(self, s, t, h):
        var = max(self.trace(t) - self.trace(s), 0.0)
        if var == 0.0:
            return h
        sd = math.sqrt(var)
        z, w = hermite()
        return lambda x: h(np.asarray(x, dtype=float)[..., None] + sd * z) @ w

    def apply_generator(self, s, h, side="+"):
        slope = self.trace.slope(s, side)
        d = GAUSS_STENCIL

        def out(x):
            return 0.5 * slope * (h(x + d) - 2.0 * h(x) + h(x - d)) / (d * d)

        return out

    def basis(self):
        return np.cos


class DirichletFlowSemigroup(QuadratureSemigroup):
    """Beta-step semigroup of the Dirichlet process along a flow.

    The trace a(t) is the parameter mass of the growing stage; transitions
    from x are x + (1-x) * Beta(a(t)-a(s), total-a(t)), evaluated by a
    Gauss-Jacobi rule whose weight carries the beta endpoint singularities.
    The generator integral uses the substitution y = (1-x)u, after which the
    integrand is regular at u = 0 with limit (1-x) h'(x).
    """

    probes = np.linspace(0.0, 0.9, 10)

    def __init__(self, trace: Trace, alpha_total: float):
        if alpha_total <= 0:
            raise ConfigError("total parameter mass must be positive")
        if float(trace.values[-1]) > alpha_total + 1e-12:
            raise ConfigError("trace exceeds the total parameter mass")
        self.trace = trace
        self.alpha_total = alpha_total

    def apply(self, s, t, h):
        a = max(self.trace(t) - self.trace(s), 0.0)
        c = self.alpha_total - self.trace(t)
        if a == 0.0:
            return h
        if c <= 0.0:
            return lambda x: np.full(np.shape(x), h(1.0))
        y, w = jacobi01(JACOBI_ORDER, a, c)

        def out(x):
            x = np.asarray(x, dtype=float)[..., None]
            return h(x + (1.0 - x) * y) @ w

        return out

    def exhausted(self, t):
        return self.alpha_total - self.trace(t) <= 0.0

    def apply_generator(self, s, h, side="+"):
        rate = self.trace.slope(s, side)
        c = self.alpha_total - self.trace(s)
        if c <= 0.0:
            raise ConfigError("generator undefined once the trace exhausts the mass")
        u, w = jacobi01_raw(JACOBI_ORDER, c)

        def out(x):
            x = np.asarray(x, dtype=float)[..., None]
            return rate * (((h(x + (1.0 - x) * u) - h(x)) / u) @ w)

        return out

    def basis(self):
        return lambda x: x * x


def system_along_flow(kernel, flow: DiscreteFlow):
    """Build the one-parameter semigroup of a kernel transported by a flow."""
    return kernel.flow_semigroup(flow)


def closed_form_generator(system, s: float, h, side: str | None = None):
    """The generator at flow time s applied to h.

    At a trace knot the derivative is two-valued, so ``side`` ('+' or '-')
    must be chosen explicitly there; away from knots it is optional.
    """
    on_knot = any(abs(s - k) < 1e-12 for k in system.trace.times)
    if side is None:
        if on_knot:
            raise ConfigError(f"time {s} is a trace knot: pick side '+' or '-'")
        side = "+"
    return system.apply_generator(s, h, side)


def finite_difference_generator_errors(system, s: float, eps_list, h) -> list[float]:
    """Sup-norm gaps between (T_{s,s+eps}h - h)/eps and the closed-form
    generator, one entry per eps (for convergence-order assertions)."""
    g = system.values(system.apply_generator(s, h))
    base = system.values(h)
    out = []
    for eps in eps_list:
        th = system.values(system.apply(s, s + eps, h))
        out.append(float(np.max(np.abs((th - base) / eps - g))))
    return out


def apply_through_knots(system, s: float, t: float, h):
    """T_{st} h composed leg by leg at the trace knots (identical to the
    direct operator when the family satisfies the composition law)."""
    pts = system.trace.breakpoints(s, t)
    out = h
    for a, b in zip(pts[-2::-1], pts[::-1]):
        out = system.apply(a, b, out)
    return out


def generator_integral(system, s: float, t: float, h, knot_compose: bool = False):
    """integral_s^t G_v (T_{vt} h) dv as probe values, by composite Gauss
    quadrature split at the trace knots.  ``knot_compose`` makes the inner
    transition operator compose through the knots, which matters only for
    families that break the composition law.  Composed from a node v of the
    segment (a, b), it is T_{vb} applied to T_{bt} h through the knots, so
    every node of the segment reads one T_{bt} h.  The semigroup gives the
    nodes' terms (``generator_terms``); they are summed node by node, in
    order."""
    pts = system.trace.breakpoints(s, t)
    acc = np.zeros_like(system.values(h))
    for a, b in zip(pts, pts[1:]):
        xs, ws = gauss_segment(a, b, GAUSS_NODES)
        end, rest = ((b, apply_through_knots(system, b, t, h)) if knot_compose and b < t
                     else (t, h))
        for w, term in zip(ws, system.generator_terms(xs, end, rest)):
            acc = acc + w * term
    return acc


def integral_identity_residual(system, s: float, t: float, h) -> float:
    """Sup-norm residual of  T_{st}h - h = integral_s^t G_v T_{vt} h dv."""
    if t < s:
        raise ConfigError("need s <= t")
    if t == s:
        return 0.0
    lhs = system.values(system.apply(s, t, h)) - system.values(h)
    rhs = generator_integral(system, s, t, h)
    return float(np.max(np.abs(lhs - rhs)))


def identity_end(system) -> float:
    """The last trace knot whose stage still leaves mass outside it (the
    first knot when none does).  From there on T_{v,t}h = h(full) for every
    v < t while T_{t,t}h = h: a jump at v = t that no generator integral
    sees, so the integral identity holds only up to this knot."""
    live = [t for t in system.trace.times.tolist() if not system.exhausted(t)]
    return live[-1] if live else float(system.trace.times[0])


def generator_matching_defect(kernel, flow1: DiscreteFlow, span1, flow2: DiscreteFlow,
                              span2) -> float:
    """Two flows through the same pair of sets must have equal generator
    integrals over the matching spans (finite-state kernels; spans are knot
    index pairs), read on the whole identity basis at once."""
    i1, j1 = span1
    i2, j2 = span2
    if flow1.stages[i1].mask != flow2.stages[i2].mask or \
            flow1.stages[j1].mask != flow2.stages[j2].mask:
        raise ConfigError("flow spans do not share endpoint sets")
    if not kernel.finite_state:
        raise UnsupportedKernelError("generator matching check needs a finite-state kernel")
    sys1 = system_along_flow(kernel, flow1)
    sys2 = system_along_flow(kernel, flow2)
    h = sys1.basis()
    v1 = generator_integral(sys1, flow1.times[i1], flow1.times[j1], h, knot_compose=True)
    v2 = generator_integral(sys2, flow2.times[i2], flow2.times[j2], h, knot_compose=True)
    return float(np.max(np.abs(v1 - v2)))


def leg_generator_integral(system: MatrixSemigroup, a: float, b: float) -> np.ndarray:
    """integral_a^b G_v T_{vb} dv as a matrix, by the Gauss rule of
    ``generator_integral`` on the one segment (a, b): G_v T_{vb} for a chunk
    of nodes v at a time, summed node by node, in order."""
    xs, ws = gauss_segment(a, b, GAUSS_NODES)
    terms = (P for c in system.chunks(xs)
             for P in system.generator_matrices(c) @ system.matrices(c, b))
    return sum(w * P for w, P in zip(ws, terms))


@dataclass
class PermutationIdentityResult:
    """Exact transition-operator defect and generator-form quadrature
    residual, each the worst over the start states checked; ``tail_cut`` is
    the largest mass a step law's tail cut dropped from a transition matrix
    of either side (None when the step laws are whole)."""

    exact_defect: float
    generator_residual: float
    start_states: tuple[int, ...]
    tail_cut: float | None

    @property
    def defect(self) -> float:
        return max(self.exact_defect, self.generator_residual)


def _increment_law(chain, observed) -> np.ndarray:
    """Joint law of the rises of the ``observed`` legs of a matrix chain.

    ``out[x, d_1, ..., d_k]`` is the total weight of the paths from state x
    whose observed legs (in chain order) rise by d_1, ..., d_k; a leg rises
    by d from y with weight ``M[y, y + d]``.  The arrival state of the chain
    is summed out.
    """
    n = len(chain[0])
    y, d = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
    law = np.eye(n)  # axes: start, the observed rises so far, current state
    for i, M in enumerate(chain):
        if i not in observed:
            law = law @ M
            continue
        rises = np.zeros((n, n))
        rises[y, d] = M[y, y + d]
        if i == len(chain) - 1:
            return law @ rises
        step = np.zeros(law.shape[:-1] + (n, n))
        step[..., d, y + d] = law[..., y] * rises[y, d]
        law = step
    return law.sum(axis=-1)


def _by_arrival(law: np.ndarray) -> np.ndarray:
    """``law[x, d_1, ..., d_k]`` with the last rise replaced by the arrival
    state x + d_1 + ... + d_k; an arrival past the last state is dropped,
    as the killed matrices drop it."""
    n, m = len(law), law.ndim
    # out[x, d_1, ..., x + d_1 + ... + d_k] sits at flat position
    # sum_j i_j (n^(m-1-j) + 1) + d_k of a C-ordered cube, so a strided view
    # reads it at [x, d_1, ..., d_k]; the padding keeps the view's dropped
    # positions inside the buffer
    flat = np.zeros(n**m + m * n)
    out = flat[:n**m].reshape(law.shape)
    arrival = np.lib.stride_tricks.as_strided(
        flat, law.shape, [(n ** (m - 1 - j) + 1) * flat.itemsize for j in range(m - 1)]
        + [flat.itemsize])
    np.copyto(arrival, law, where=sum(np.ix_(*[np.arange(n, dtype=np.int32)] * m)) < n)
    return out


def ordering_slots(ord1: ConsistentOrdering, ord2: ConsistentOrdering) -> list[int]:
    """The 1-based slot of ordering 2 that holds each set of ordering 1.

    ``permutation_identity_check`` at level k reads slots 2..k of this map;
    where they are 2..k, both sides are the same matrix chain.
    """
    pos2 = {s.mask: j for j, s in enumerate(ord2.sets)}
    try:
        return [pos2[s.mask] + 1 for s in ord1.sets]
    except KeyError:
        raise ConfigError("orderings do not order the same lattice") from None


def permutation_identity_check(spec, ord1: ConsistentOrdering, ord2: ConsistentOrdering,
                               level: int) -> PermutationIdentityResult:
    """Transport along ordering 1 versus chained transport along ordering 2.

    ``level`` 2 compares the law of the first post-minimal increment of
    ordering 1 with the matching increment of ordering 2; level 3 does the
    same jointly for the first two increments, as E[h2(first rise) h3(x +
    both rises)].  Both orderings start at the shared minimal set, from every
    state x of the initial support inside the semigroup's ``probe_states``,
    and h, h2, h3 run over the indicators of all states plus the state
    function.  Exact matrix algebra on one side; the other side is also
    expressed through generator integrals (quadrature residual).  Level 3
    holds arrays of states³ entries (the chain's last leg is always an
    observed one, so none holds more); past ``construction.TABLE_CAP`` it
    raises ``TableSizeError`` unbuilt, with the count.
    """
    from . import construction  # read at call time, as the table cap is
    if level not in (2, 3):
        raise ConfigError("only levels 2 and 3 are implemented")
    if not spec.kernel.finite_state:
        raise UnsupportedKernelError("permutation identities need a finite-state kernel")
    if level > len(ord1):
        raise ConfigError("lattice too small for this level")
    slots = ordering_slots(ord1, ord2)
    f_sys = system_along_flow(spec.kernel, flow_from_ordering(ord1))
    g_sys = system_along_flow(spec.kernel, flow_from_ordering(ord2))
    dim = len(f_sys.states)
    if level == 3 and dim**3 > construction.TABLE_CAP:
        raise TableSizeError(f"the level-3 permutation identity on {dim} states needs "
                             f"arrays of {dim**3} entries, more than {construction.TABLE_CAP}")

    def Tg(i: int, j: int) -> np.ndarray:  # between 1-based slots of ordering 2
        return np.eye(dim) if i == j else g_sys.matrix(float(i - 1), float(j - 1))

    def gen_int(system, slot: int) -> np.ndarray:
        """Generator integral over the flow leg that ends at 1-based ``slot``."""
        return leg_generator_integral(system, float(slot - 2), float(slot - 1))

    index, probs = spec.initial_pmf().atoms
    starts = tuple(index[(probs > 1e-15) & np.isin(index, f_sys.probe_states)].tolist())
    basis = np.vstack([np.eye(dim), f_sys.states.astype(float)])

    def worst(diff: np.ndarray) -> float:
        """Largest gap over the start states and the basis (or pairs of it)."""
        out = diff[list(starts)] @ basis.T
        if level == 3:
            out = basis @ out
        return float(np.max(np.abs(out), initial=0.0))

    def result(exact: float, generator: float) -> PermutationIdentityResult:
        cut = None if f_sys.tail_cut is None else max(f_sys.tail_cut, g_sys.tail_cut)
        return PermutationIdentityResult(exact, generator, starts, cut)

    p2 = slots[1]
    first = _increment_law([Tg(1, p2 - 1), Tg(p2 - 1, p2)], {1})
    if level == 2:
        first_R = _increment_law([Tg(1, p2 - 1), gen_int(g_sys, p2)], {1})
        return result(worst(f_sys.matrix(0.0, 1.0) - _by_arrival(first)),
                      worst(gen_int(f_sys, 2) - _by_arrival(first_R)))

    def then(M: np.ndarray) -> np.ndarray:
        """Ordering 2's first rise a from x, then M from x + a (the index is
        clipped only where the rise has no weight)."""
        r = np.arange(dim)
        return first[:, :, None] * M[np.minimum(np.add.outer(r, r), dim - 1)]

    p3 = slots[2]
    times = sorted({p2 - 1, p2, p3 - 1, p3})
    chain = [Tg(1, times[0])] + [Tg(u, v) for u, v in zip(times, times[1:])]
    at2, at3 = times.index(p2), times.index(p3)
    chain_R = chain[:at3] + [gen_int(g_sys, p3)] + chain[at3 + 1:]

    def joint(ch) -> np.ndarray:  # axes: start, slot-2 rise, slot-3 rise
        law = _increment_law(ch, {at2, at3})
        return law if at2 < at3 else law.transpose(0, 2, 1)

    law, law_R = joint(chain), joint(chain_R)
    if at3 < at2:
        # the slot-2 leg follows the generator leg and depends on the state it
        # leaves, so compare h3(x + d2 + d3) - h3(x + d2): the generator's
        # identity part then drops out exactly
        law_R[:, :, 0] -= law_R.sum(axis=2)
    return result(worst(then(f_sys.matrix(1.0, 2.0)) - _by_arrival(law)),
                  worst(then(gen_int(f_sys, 3)) - _by_arrival(law_R)))
