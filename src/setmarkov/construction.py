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

A ``JointLaw`` is a key matrix (one row per outcome, one column per variable,
internal states) and a probability vector.  Its operations group rows by one
int64 code per row, built in mixed radix from per-column value ranks
(``group_rows``), and sum probabilities with ``bincount``.  A table past
the module constant ``TABLE_CAP`` raises ``TableSizeError`` unbuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import pmf_ppf
from .errors import (
    ConfigError,
    DecompositionError,
    TableSizeError,
    UnsupportedKernelError,
)
from .grid import mask_cells, measure_of  # noqa: F401  (perfbench traces it here)
from .kernels import TransitionKernel, shared_column
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


def group_rows(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a 2-d array by equal values.

    Returns a group id per row, with groups numbered by first appearance, and
    the first row of each group.  Each column is replaced by the index of its
    value among the column's distinct values, and the ranks are combined into
    one int64 code per row in mixed radix; a code about to overflow is first
    re-ranked over its distinct values.
    """
    code = np.zeros(columns.shape[0], dtype=np.int64)
    radix = 1
    for col in columns.T:
        uniq, rank = np.unique(col, return_inverse=True)
        size = len(uniq)
        if radix * size >= 2**62:
            _, code = np.unique(code, return_inverse=True)
            radix = int(code.max()) + 1
        code *= size
        code += rank
        radix *= size
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    relabel = np.empty(len(order), dtype=np.int64)
    relabel[order] = np.arange(len(order))
    return relabel[inverse], first[order]


class JointLaw:
    """Exact pmf of the increment vector (or a pushforward of it).

    ``keys`` holds one row per outcome and one column per variable (internal
    states, no row repeated), stored column by column (Fortran order) since
    every operation works on whole columns; ``probs`` holds the probability
    of each row.  ``table`` is the same law as a dict {key tuple:
    probability}, built on first access.
    """

    def __init__(self, labels, sets, keys, probs):
        self.labels = tuple(labels)
        self.sets = sets
        self.keys = np.asfortranarray(keys)
        self.probs = np.asarray(probs, dtype=float)
        if self.keys.shape != (len(self.probs), len(self.labels)):
            raise ConfigError(f"key matrix of shape {self.keys.shape} does not fit "
                              f"{len(self.probs)} outcomes of {len(self.labels)} variables")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ConfigError(f"joint law sums to {total}, not 1")
        if np.any(self.probs < -1e-12):
            raise ConfigError("joint law has a negative weight")

    @cached_property
    def table(self) -> dict[tuple, float]:
        return dict(zip(map(tuple, self.keys.tolist()), self.probs.tolist()))

    def columns(self, indices) -> np.ndarray:
        """The key matrix restricted to the given variables, in that order."""
        return self.keys.T[list(indices)].T

    def group_sums(self, groups) -> np.ndarray:
        """Per outcome, the sum of its values over each index group (0 for an
        empty group), added left to right."""
        out = np.zeros((len(groups), len(self.probs)), dtype=self.keys.dtype)
        for j, g in enumerate(groups):
            for i in g:
                out[j] += self.keys[:, i]
        return out.T

    def _merged(self, values: np.ndarray, labels, sets) -> "JointLaw":
        """Law of the per-outcome rows ``values``: equal rows merged."""
        ids, first = group_rows(values)
        return JointLaw(labels, sets, values[first], np.bincount(ids, weights=self.probs))

    def permuted(self, perm) -> "JointLaw":
        """Reorder variables: new variable j is old variable perm[j]."""
        perm = list(perm)
        labels = tuple(self.labels[p] for p in perm)
        sets = tuple(self.sets[p] for p in perm) if self.sets else None
        return JointLaw(labels, sets, self.columns(perm), self.probs)

    def marginal(self, indices) -> "JointLaw":
        indices = list(indices)
        labels = tuple(self.labels[i] for i in indices)
        sets = tuple(self.sets[i] for i in indices) if self.sets else None
        return self._merged(self.columns(indices), labels, sets)

    def pushforward_sums(self, groups, labels=None, sets=None) -> "JointLaw":
        """Map each outcome to the vector of sums over the index groups."""
        labels = labels or tuple(f"S{i}" for i in range(len(groups)))
        return self._merged(self.group_sums(groups), tuple(labels), sets)

    def sorted(self) -> "JointLaw":
        """The same law with its rows in lexicographic key order (first
        column most significant): the order of ``sorted(self.table)``."""
        order = np.lexsort(self.keys.T[::-1])
        # gathered column by column, so the result is already in Fortran order
        keys = self.keys.T.take(order, axis=1).T
        return JointLaw(self.labels, self.sets, keys, self.probs[order])

    def tv(self, other: "JointLaw") -> float:
        """Total variation distance (sup over events) to a law of as many
        variables."""
        if self.keys.shape[1] != other.keys.shape[1]:
            raise ConfigError("laws over different numbers of variables")
        ids, _ = group_rows(np.concatenate([self.keys.T, other.keys.T], axis=1).T)
        diff = np.bincount(ids, weights=np.concatenate([self.probs, -other.probs]))
        return 0.5 * float(np.abs(diff).sum())

    def scalar_dict(self) -> dict:
        """For single-variable laws: value -> probability."""
        if len(self.labels) != 1:
            raise ConfigError("not a single-variable law")
        return {k[0]: v for k, v in self.table.items()}


def exact_fdd(spec) -> JointLaw:
    """Exact joint pmf of the increments over the ordering's left
    neighbourhoods; finite-state kernels only: ``chain_table`` from the
    initial pmf through the ordering's prefix unions.  A table of more than
    ``TABLE_CAP`` entries raises ``TableSizeError`` before it is built.
    """
    if isinstance(spec, MixtureSpec):
        parts = [exact_fdd(c) for c in spec.components]
        keys = np.concatenate([part.keys.T for part in parts], axis=1).T
        probs = np.concatenate([w * part.probs for w, part in zip(spec.weights, parts)])
        ids, first = group_rows(keys)
        return JointLaw(parts[0].labels, parts[0].sets, keys[first],
                        np.bincount(ids, weights=probs))
    kernel = spec.kernel
    if not kernel.finite_state:
        raise UnsupportedKernelError(
            f"{kernel.kind} kernel has no exact finite table; use sampling instead"
        )
    ordering = spec.ordering
    stages = [ordering.prefix_set(i) for i in range(len(ordering))]
    columns, probs = chain_table(kernel, stages, spec.initial_pmf())
    labels = tuple(f"C{i}" for i in range(len(ordering)))
    return JointLaw(labels, spec.lefts.sets, np.array(columns).T, probs)


def chain_table(kernel, stages, start: dict):
    """The table of a chain that starts from the pmf ``start`` (internal
    state -> probability) at stages[0] and steps through the kernel's
    increment pmfs from each stage to the next: (columns, probs), one row
    per outcome, the first column the start state and then one increment
    column per step.

    Each step groups the rows by running sum, asks the kernel for the
    increment pmf of each distinct sum once, and expands every row by its
    pmf; each probability is the product of the row's and the step's.  The
    size of the next table is known before it is built, and a table of more
    than ``TABLE_CAP`` entries raises ``TableSizeError`` instead.
    """
    running = np.array(list(start))
    columns = [running]
    probs = np.array([float(p) for p in start.values()])
    for prev, cur in zip(stages, stages[1:]):
        states, group = np.unique(running, return_inverse=True)
        pmfs = [kernel.increment_pmf(prev, cur, x) for x in states.tolist()]
        sizes = np.array([len(pmf) for pmf in pmfs])
        counts = sizes[group]
        total = int(counts.sum())
        if total > TABLE_CAP:
            raise TableSizeError(f"joint table exceeds {TABLE_CAP} entries")
        incs = np.array([v for pmf in pmfs for v in pmf])
        steps = np.array([q for pmf in pmfs for q in pmf.values()], dtype=float)
        # row r expands to its group's pmf, in pmf order: position j of that
        # block reads entry (group offset + j) of the concatenated pmfs
        row = np.repeat(np.arange(len(probs)), counts)
        block_start = np.cumsum(counts) - counts
        at = np.arange(total) + np.repeat((np.cumsum(sizes) - sizes)[group] - block_start,
                                          counts)
        columns = [c[row] for c in columns] + [incs[at]]
        probs = probs[row] * steps[at]
        running = running[row] + columns[-1]
    return columns, probs


def _stream(seed: int, key: int, start: int, count: int) -> np.ndarray:
    """The uniforms of one stream, clipped into (0, 1), shared inside
    ``kernels.shared_columns`` under (seed, key, start, count)."""
    return shared_column(("uniform", seed, key, start, count),
                         lambda: np.clip(step_uniforms(seed, key, start, count),
                                         _TINY, 1.0 - 1e-16))


def sample_increments(spec, seed: int, count: int, start: int = 0,
                      step_keys=None) -> np.ndarray:
    """Increment matrix (count rows, one column per left neighbourhood) in
    internal state units, fully determined by (seed, row index, column).

    ``step_keys`` optionally renames the per-column stream keys (default:
    the column index).  The verify module keys columns by the left
    neighbourhood they create, which couples the draws of two orderings of
    the same lattice variable-by-variable.  Inside ``kernels.shared_columns``
    each stream, and each quantile column drawn from it, is computed once.
    """
    if isinstance(spec, MixtureSpec):
        n_steps = len(spec.ordering)
        pick = _stream(seed, n_steps, start, count)
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
    u = _stream(seed, keys[0], start, count)
    if spec.initial is not None:
        out[:, 0] = pmf_ppf(spec.initial, u)
    else:
        out[:, 0] = kernel.initial_ppf(spec.min_set, u)
    x = out[:, 0].copy()
    for i in range(1, n_steps):
        u = _stream(seed, keys[i], start, count)
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
        parts = decompose_over_lefts(self.lefts, target)
        return sum((self.increments[i] for i in parts), 0.0)


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


def joint_over_increments(spec, targets) -> JointLaw:
    """Joint law of the process over arbitrary unions of left neighbourhoods,
    as the pushforward of the exact increment law through block sums."""
    law = exact_fdd(spec)
    lefts = spec.lefts
    groups = [decompose_over_lefts(lefts, t) for t in targets]
    sets = tuple(IndexedSet(spec.lattice.grid, _union_mask(t)) for t in targets)
    labels = tuple(f"S{i}" for i in range(len(targets)))
    return law.pushforward_sums(groups, labels=labels, sets=sets)
