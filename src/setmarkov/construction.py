"""Exact joint laws over left neighbourhoods, seeded path sampling, and the
additive extension of a sampled path to unions of neighbourhoods.

The joint law of the increment vector is built by chaining the kernel along
the prefix unions of a consistent ordering: the first variable is the value
on the minimal set (drawn from the initial law), and each later variable is
the difference of consecutive prefix values.  Summing disjoint blocks of the
increment vector evaluates the process anywhere in the generated algebra.

Both routes are generic over the kernel protocol: ``exact_fdd`` chains the
kernel's ``increment_pmf``, and ``sample_increments`` feeds one counter-based
uniform per (sample, step) through ``initial_ppf`` and ``increment_ppf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import pmf_ppf, tv_distance
from .errors import (
    ConfigError,
    DecompositionError,
    TableSizeError,
    UnsupportedKernelError,
)
from .grid import mask_cells, measure_of  # noqa: F401  (perfbench traces it here)
from .kernels import TransitionKernel
from .lattice import (
    ConsistentOrdering,
    IndexedSet,
    LeftNeighbourhoods,
    Semilattice,
    default_ordering,
    left_neighbourhoods,
)
from .rng import step_uniforms

TABLE_CAP = 10_000_000
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FddSpec:
    """One construction instance: lattice, ordering, kernel and initial law.

    ``initial`` optionally overrides the kernel's default initial pmf
    (dict state -> probability); only finite-state kinds accept one.
    """

    lattice: Semilattice
    kernel: TransitionKernel
    ordering: ConsistentOrdering | None = None
    initial: dict | None = None

    def __post_init__(self):
        if self.ordering is None:
            object.__setattr__(self, "ordering", default_ordering(self.lattice))
        if self.ordering.lattice is not self.lattice:
            raise ConfigError("ordering belongs to a different lattice")
        if self.kernel.grid != self.lattice.grid:
            raise ConfigError("kernel measures live on a different grid")
        if self.initial is not None and not self.kernel.finite_state:
            raise ConfigError(
                f"an initial pmf needs a finite-state kernel, not {self.kernel.kind}")

    @property
    def min_set(self) -> IndexedSet:
        return self.lattice.min_set

    def initial_pmf(self) -> dict:
        if self.initial is not None:
            return dict(self.initial)
        return self.kernel.initial_pmf_for(self.min_set)

    def with_ordering(self, ordering: ConsistentOrdering) -> "FddSpec":
        return FddSpec(self.lattice, self.kernel, ordering, self.initial)

    @cached_property
    def lefts(self) -> LeftNeighbourhoods:
        return left_neighbourhoods(self.ordering)


@dataclass(frozen=True)
class MixtureSpec:
    """A process whose law is a mixture of kernel constructions, mixed once at
    the initial draw.  Deliberately not Markov: the history reveals the
    component.  Components must share lattice and ordering."""

    components: tuple[FddSpec, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.components) != len(self.weights) or len(self.components) < 2:
            raise ConfigError("mixture needs >= 2 weighted components")
        if abs(sum(self.weights) - 1.0) > 1e-12 or any(w < 0 for w in self.weights):
            raise ConfigError("mixture weights must be a probability vector")
        first = self.components[0]
        for c in self.components[1:]:
            if c.lattice is not first.lattice or c.ordering.positions != first.ordering.positions:
                raise ConfigError("mixture components must share lattice and ordering")

    @property
    def lattice(self):
        return self.components[0].lattice

    @property
    def ordering(self):
        return self.components[0].ordering

    @property
    def kernel(self):
        return self.components[0].kernel

    @property
    def lefts(self):
        return self.components[0].lefts

    def with_ordering(self, ordering) -> "MixtureSpec":
        return MixtureSpec(tuple(c.with_ordering(ordering) for c in self.components),
                           self.weights)


@dataclass
class JointLaw:
    """Exact pmf of the increment vector (or a pushforward of it)."""

    labels: tuple[str, ...]
    sets: tuple[IndexedSet, ...] | None
    table: dict[tuple, float]

    def __post_init__(self):
        total = sum(self.table.values())
        if abs(total - 1.0) > 1e-10:
            raise ConfigError(f"joint law sums to {total}, not 1")
        if any(p < -1e-12 for p in self.table.values()):
            raise ConfigError("joint law has a negative weight")

    def permuted(self, perm) -> "JointLaw":
        """Reorder variables: new variable j is old variable perm[j]."""
        labels = tuple(self.labels[p] for p in perm)
        sets = tuple(self.sets[p] for p in perm) if self.sets else None
        table = {tuple(k[p] for p in perm): v for k, v in self.table.items()}
        return JointLaw(labels, sets, table)

    def marginal(self, indices) -> "JointLaw":
        indices = list(indices)
        labels = tuple(self.labels[i] for i in indices)
        sets = tuple(self.sets[i] for i in indices) if self.sets else None
        out: dict[tuple, float] = {}
        for k, v in self.table.items():
            kk = tuple(k[i] for i in indices)
            out[kk] = out.get(kk, 0.0) + v
        return JointLaw(labels, sets, out)

    def pushforward_sums(self, groups, labels=None, sets=None) -> "JointLaw":
        """Map each outcome to the vector of sums over the index groups."""
        out: dict[tuple, float] = {}
        for k, v in self.table.items():
            kk = tuple(sum(k[i] for i in g) if g else 0 for g in groups)
            out[kk] = out.get(kk, 0.0) + v
        labels = labels or tuple(f"S{i}" for i in range(len(groups)))
        return JointLaw(tuple(labels), sets, out)

    def tv(self, other: "JointLaw") -> float:
        return tv_distance(self.table, other.table)

    def scalar_dict(self) -> dict:
        """For single-variable laws: value -> probability."""
        if len(self.labels) != 1:
            raise ConfigError("not a single-variable law")
        return {k[0]: v for k, v in self.table.items()}


def exact_fdd(spec, cap: int = TABLE_CAP) -> JointLaw:
    """Exact joint pmf of the increments over the ordering's left
    neighbourhoods; finite-state kernels only."""
    if isinstance(spec, MixtureSpec):
        parts = [exact_fdd(c, cap) for c in spec.components]
        table: dict[tuple, float] = {}
        for w, part in zip(spec.weights, parts):
            for k, v in part.table.items():
                table[k] = table.get(k, 0.0) + w * v
        return JointLaw(parts[0].labels, parts[0].sets, table)
    kernel = spec.kernel
    if not kernel.finite_state:
        raise UnsupportedKernelError(
            f"{kernel.kind} kernel has no exact finite table; use sampling instead"
        )
    ordering = spec.ordering
    table = {(s,): float(p) for s, p in spec.initial_pmf().items()}
    for i in range(1, len(ordering)):
        prev = ordering.prefix_set(i - 1)
        cur = ordering.prefix_set(i)
        new: dict[tuple, float] = {}
        for key, p in table.items():
            x = sum(key)
            for inc, q in kernel.increment_pmf(prev, cur, x).items():
                nk = key + (inc,)
                new[nk] = new.get(nk, 0.0) + p * q
        if len(new) > cap:
            raise TableSizeError(f"joint table exceeds {cap} entries")
        table = new
    labels = tuple(f"C{i}" for i in range(len(ordering)))
    return JointLaw(labels, spec.lefts.sets, table)


def _clip_u(u: np.ndarray) -> np.ndarray:
    return np.clip(u, _TINY, 1.0 - 1e-16)


def sample_increments(spec, seed: int, count: int, start: int = 0,
                      step_keys=None) -> np.ndarray:
    """Increment matrix (count rows, one column per left neighbourhood) in
    internal state units, fully determined by (seed, row index, column).

    ``step_keys`` optionally renames the per-column stream keys (default:
    the column index).  The verify module keys columns by the left
    neighbourhood they create, which couples the draws of two orderings of
    the same lattice variable-by-variable.
    """
    if isinstance(spec, MixtureSpec):
        n_steps = len(spec.ordering)
        pick = _clip_u(step_uniforms(seed, n_steps, start, count))
        cum = np.cumsum(spec.weights)
        component = np.searchsorted(cum, pick, side="right")
        component = np.minimum(component, len(spec.components) - 1)
        out = np.empty((count, n_steps))
        for ci, comp in enumerate(spec.components):
            rows = component == ci
            if rows.any():
                # same (seed, start): coupled uniforms, selected per component
                out[rows] = sample_increments(comp, seed, count, start, step_keys)[rows]
        return out
    kernel = spec.kernel
    ordering = spec.ordering
    n_steps = len(ordering)
    keys = list(step_keys) if step_keys is not None else list(range(n_steps))
    if len(keys) != n_steps:
        raise ConfigError("step_keys must name every column")
    out = np.empty((count, n_steps))
    u = _clip_u(step_uniforms(seed, keys[0], start, count))
    if spec.initial is not None:
        out[:, 0] = pmf_ppf(spec.initial, u)
    else:
        out[:, 0] = kernel.initial_ppf(spec.min_set, u)
    x = out[:, 0].copy()
    for i in range(1, n_steps):
        u = _clip_u(step_uniforms(seed, keys[i], start, count))
        out[:, i] = kernel.increment_ppf(ordering.prefix_set(i - 1),
                                         ordering.prefix_set(i), x, u)
        x = x + out[:, i]
    return out


@dataclass(frozen=True)
class ProcessSample:
    """One additive realization: a value per left neighbourhood, plus the
    derived evaluator on unions of neighbourhoods."""

    lefts: LeftNeighbourhoods
    increments: tuple[float, ...]

    def value(self, target) -> float:
        """Process value on a union of left neighbourhoods (0 on the empty set)."""
        mask = getattr(target, "mask", target)
        if mask == 0:
            return 0.0
        total = 0.0
        covered = 0
        for inc, c in zip(self.increments, self.lefts.sets):
            if c.mask & ~mask == 0:
                total += inc
                covered |= c.mask
        if covered != mask:
            missing = mask_cells(mask & ~covered)
            raise DecompositionError(
                f"cells {missing} are not covered by left neighbourhoods"
            )
        return total


def evaluate_on_algebra(sample: ProcessSample, plus, minus=None) -> float:
    """Value on (union of plus) minus (union of minus); both member unions."""
    grid = sample.lefts.sets[0].grid
    pm = _union_mask(plus)
    mm = _union_mask(minus) if minus is not None else 0
    return sample.value(IndexedSet(grid, pm & ~mm))


def _union_mask(sets) -> int:
    if sets is None:
        return 0
    if hasattr(sets, "mask"):
        return sets.mask
    if isinstance(sets, int):
        return sets
    out = 0
    for s in sets:
        out |= getattr(s, "mask", s)
    return out


def sample_fdd(spec, seed: int, count: int) -> list[ProcessSample]:
    """Deterministic seeded samples; sample s depends only on (seed, s)."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    arr = sample_increments(spec, seed, count)
    lefts = spec.lefts
    return [ProcessSample(lefts, tuple(float(v) for v in row)) for row in arr]


def decompose_over_lefts(lefts: LeftNeighbourhoods, target) -> list[int]:
    """Indices of the (nonempty) left neighbourhoods whose union is target."""
    mask = getattr(target, "mask", target)
    idx = []
    covered = 0
    for i, c in enumerate(lefts.sets):
        if c.mask and c.mask & ~mask == 0:
            idx.append(i)
            covered |= c.mask
    if covered != mask:
        missing = mask_cells(mask & ~covered)
        raise DecompositionError(f"cells {missing} are not covered by left neighbourhoods")
    return idx


def joint_over_increments(spec, targets, cap: int = TABLE_CAP) -> JointLaw:
    """Joint law of the process over arbitrary unions of left neighbourhoods,
    as the pushforward of the exact increment law through block sums."""
    law = exact_fdd(spec, cap)
    lefts = spec.lefts
    groups = [decompose_over_lefts(lefts, t) for t in targets]
    sets = tuple(IndexedSet(spec.lattice.grid, _union_mask(t)) for t in targets)
    labels = tuple(f"S{i}" for i in range(len(targets)))
    return law.pushforward_sums(groups, labels=labels, sets=sets)
