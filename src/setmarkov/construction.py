"""Exact joint laws over left neighbourhoods, seeded path sampling, and the
additive extension of a sampled path to unions of neighbourhoods.

The joint law of the increment vector is built by chaining the kernel along
the prefix unions of a consistent ordering: the first variable is the value
on the minimal set (drawn from the initial law), and each later variable is
the difference of consecutive prefix values.  Summing disjoint blocks of the
increment vector evaluates the process anywhere in the generated algebra.

Both routes are generic over the kernel protocol: ``exact_fdd`` chains the
kernel's increment pmfs, vectors on its value grid, and
``sample_increments`` feeds one counter-based uniform per (sample, step)
through ``initial_ppf`` and ``increment_ppf``.

A ``JointLaw`` is a matrix of grid indices (one row per outcome, one column
per variable), the grid's step, and a probability vector.  Sums of columns
are sums of indices, exact, so equal values always merge.  Its operations
group rows by one int64 code per row, built in mixed radix from each
column's offsets from its least index (``group_rows``), and sum
probabilities with ``bincount``; values are made only for output
(``JointLaw.keys``).  A table past the module constant ``TABLE_CAP`` raises
``TableSizeError`` unbuilt, with the number of rows it would need.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .distributions import GridLaw, grid_step, grid_values, pmf_ppf
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

    def initial_pmf(self) -> GridLaw:
        """The initial law on the kernel's value grid."""
        if self.initial is not None:
            return self.kernel.grid_law(self.initial)
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


def row_codes(columns: np.ndarray) -> tuple[np.ndarray, int]:
    """One int64 code per row of a 2-d integer array, equal exactly for
    equal rows, and the codes' span: each column is replaced by its offset
    from the column's least value, and the offsets are combined in mixed
    radix; a code about to overflow is first re-ranked over its distinct
    values."""
    code = np.zeros(columns.shape[0], dtype=np.int64)
    radix = 1
    for col in columns.T:
        lo = int(col.min())
        size = int(col.max()) - lo + 1
        if radix * size >= 2**62:
            _, code = np.unique(code, return_inverse=True)
            radix = int(code.max()) + 1
        code *= size
        code += col - lo
        radix *= size
    return code, radix


def rank_codes(code: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(code, return_inverse=True)`` for int codes in [0, span):
    the distinct codes ascending and each row's rank among them.  A span of
    at most four times the rows is read through a table over the span, with
    no sort."""
    if span > 4 * len(code) + 64:
        return np.unique(code, return_inverse=True)
    seen = np.zeros(span, dtype=bool)
    seen[code] = True
    rank = np.cumsum(seen, dtype=np.int64 if span >= 2**31 else np.int32)
    return np.flatnonzero(seen), rank[code] - 1


def group_rows(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a 2-d integer array by equal values
    (``row_codes``, ``rank_codes``).

    Returns a group id per row, with groups numbered by first appearance, and
    the first row of each group.
    """
    code, span = row_codes(columns)
    distinct, rank = rank_codes(code, span)
    first = np.full(len(distinct), len(code), dtype=np.int64)
    np.minimum.at(first, rank, np.arange(len(code)))
    order = np.argsort(first)
    relabel = np.empty(len(order), dtype=np.int64)
    relabel[order] = np.arange(len(order))
    return relabel[rank], first[order]


class JointLaw:
    """Exact pmf of the increment vector (or a pushforward of it).

    ``codes`` holds one row per outcome and one column per variable (grid
    indices, no row repeated), stored column by column (Fortran order) since
    every operation works on whole columns; index i stands for the value
    ``canonical_value(i * step)``.  ``probs`` holds the probability of each
    row.  ``keys`` is the matrix of values and ``table`` the same law as a
    dict {value tuple: probability}, each made on first access.
    """

    def __init__(self, labels, sets, codes, probs, step: Fraction):
        codes = np.asarray(codes)
        if not np.issubdtype(codes.dtype, np.integer):
            raise ConfigError(f"a joint law takes grid indices, not {codes.dtype} keys")
        self.labels = tuple(labels)
        self.sets = sets
        self.step = step
        self.codes = np.asfortranarray(codes, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=float)
        if self.codes.shape != (len(self.probs), len(self.labels)):
            raise ConfigError(f"key matrix of shape {self.codes.shape} does not fit "
                              f"{len(self.probs)} outcomes of {len(self.labels)} variables")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ConfigError(f"joint law sums to {total}, not 1")
        if np.any(self.probs < -1e-12):
            raise ConfigError("joint law has a negative weight")

    @cached_property
    def keys(self) -> np.ndarray:
        return grid_values(self.codes, self.step)

    @cached_property
    def table(self) -> dict[tuple, float]:
        return dict(zip(map(tuple, self.keys.tolist()), self.probs.tolist()))

    def columns(self, indices) -> np.ndarray:
        """The index matrix restricted to the given variables, in that order."""
        return self.codes.T[list(indices)].T

    def codes_on(self, step: Fraction) -> np.ndarray:
        """The index matrix on a grid of ``step``, which divides this one's."""
        return self.codes * int(self.step / step)

    def group_sums(self, groups) -> np.ndarray:
        """Per outcome, the index of its sum over each index group (0 for an
        empty group), exact."""
        out = np.zeros((len(groups), len(self.probs)), dtype=np.int64)
        for j, g in enumerate(groups):
            for i in g:
                out[j] += self.codes[:, i]
        return out.T

    def _merged(self, codes: np.ndarray, labels, sets) -> "JointLaw":
        """Law of the per-outcome index rows ``codes``: equal rows merged."""
        ids, first = group_rows(codes)
        return JointLaw(labels, sets, codes[first], np.bincount(ids, weights=self.probs),
                        self.step)

    def permuted(self, perm) -> "JointLaw":
        """Reorder variables: new variable j is old variable perm[j]."""
        perm = list(perm)
        labels = tuple(self.labels[p] for p in perm)
        sets = tuple(self.sets[p] for p in perm) if self.sets else None
        return JointLaw(labels, sets, self.columns(perm), self.probs, self.step)

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
        order = np.lexsort(self.codes.T[::-1])
        # gathered column by column, so the result is already in Fortran order
        codes = self.codes.T.take(order, axis=1).T
        return JointLaw(self.labels, self.sets, codes, self.probs[order], self.step)

    def tv(self, other: "JointLaw") -> float:
        """Total variation distance (sup over events) to a law of as many
        variables."""
        if self.codes.shape[1] != other.codes.shape[1]:
            raise ConfigError("laws over different numbers of variables")
        step = grid_step([self.step, other.step])
        _, rank = rank_codes(*row_codes(np.concatenate(
            [self.codes_on(step).T, other.codes_on(step).T], axis=1).T))
        # no row repeats within a law: this law's rows are groups 0, 1, ...;
        # each of the other's joins its match or opens the next new group
        n = len(self.probs)
        mine = np.full(len(rank), -1)
        mine[rank[:n]] = np.arange(n)
        match = mine[rank[n:]]
        ids = np.where(match >= 0, match, n + np.cumsum(match < 0) - 1)
        diff = np.bincount(np.concatenate([np.arange(n), ids]),
                           weights=np.concatenate([self.probs, -other.probs]))
        return 0.5 * float(np.abs(diff).sum())

    def scalar_dict(self) -> dict:
        """For single-variable laws: value -> probability."""
        if len(self.labels) != 1:
            raise ConfigError("not a single-variable law")
        return {k[0]: v for k, v in self.table.items()}


def exact_fdd(spec) -> JointLaw:
    """Exact joint pmf of the increments over the ordering's left
    neighbourhoods; finite-state kernels only: ``chain_table`` from the
    initial law through the ordering's prefix unions.  A table of more than
    ``TABLE_CAP`` entries raises ``TableSizeError`` before it is built.
    """
    if isinstance(spec, MixtureSpec):
        parts = [exact_fdd(c) for c in spec.components]
        step = grid_step([part.step for part in parts])
        codes = np.concatenate([part.codes_on(step).T for part in parts], axis=1).T
        probs = np.concatenate([w * part.probs for w, part in zip(spec.weights, parts)])
        ids, first = group_rows(codes)
        return JointLaw(parts[0].labels, parts[0].sets, codes[first],
                        np.bincount(ids, weights=probs), step)
    kernel = spec.kernel
    if not kernel.finite_state:
        raise UnsupportedKernelError(
            f"{kernel.kind} kernel has no exact finite table; use sampling instead"
        )
    ordering = spec.ordering
    stages = [ordering.prefix_set(i) for i in range(len(ordering))]
    columns, probs = chain_table(kernel, stages, spec.initial_pmf())
    labels = tuple(f"C{i}" for i in range(len(ordering)))
    return JointLaw(labels, spec.lefts.sets, np.array(columns).T, probs, kernel.value_step)


def chain_table(kernel, stages, start: GridLaw):
    """The table of a chain that starts from the law ``start`` at stages[0]
    and steps through the kernel's increment laws from each stage to the
    next: (columns, probs), one row per outcome of positive probability, the
    first column the start index and then one increment column per step,
    all grid indices.

    Each step groups the rows by running index (its offset from the least
    one), asks the kernel once for the increment law of each distinct
    index, by that index, and expands every row by the atoms of its law;
    each probability is the product of the row's and the step's.  The size
    of the next table is known before it is built, and a table of more
    than ``TABLE_CAP`` entries raises ``TableSizeError`` instead, with the
    rows the whole table would need (``_rows_needed``).
    """
    running, probs = start.atoms
    columns = [running]
    legs = list(zip(stages, stages[1:]))
    for k, (prev, cur) in enumerate(legs):
        lo = int(running.min())
        states, group = rank_codes(running - lo, int(running.max()) - lo + 1)
        states += lo
        laws = [law.atoms for law in kernel.increment_pmfs(prev, cur, states.tolist())]
        sizes = np.array([len(index) for index, _ in laws])
        counts = sizes[group]
        total = int(counts.sum())
        if total > TABLE_CAP:
            needed = _rows_needed(kernel, legs[k:], states, np.bincount(group))
            raise TableSizeError(f"joint table exceeds {TABLE_CAP} entries: "
                                 f"it needs {needed} rows")
        incs = np.concatenate([index for index, _ in laws])
        steps = np.concatenate([p for _, p in laws])
        # row r expands to its group's law, in law order: position j of that
        # block reads entry (group offset + j) of the concatenated laws
        row = np.repeat(np.arange(len(probs)), counts)
        block_start = np.cumsum(counts) - counts
        at = np.arange(total) + np.repeat((np.cumsum(sizes) - sizes)[group] - block_start,
                                          counts)
        columns = [c[row] for c in columns] + [incs[at]]
        probs = probs[row] * steps[at]
        running = running[row] + columns[-1]
    return columns, probs


def _rows_needed(kernel, legs, states, counts) -> int:
    """The rows of a whole table whose running index ``states[i]`` holds
    ``counts[i]`` rows before ``legs``: a count recursion over the
    increment laws' atoms, exact in Python integers, that builds no table."""
    tally = dict(zip(states.tolist(), counts.tolist()))
    for prev, cur in legs:
        nxt: dict[int, int] = {}
        for (x, c), law in zip(tally.items(), kernel.increment_pmfs(prev, cur, list(tally))):
            for y in (x + law.atoms[0]).tolist():
                nxt[y] = nxt.get(y, 0) + c
        tally = nxt
    return sum(tally.values())


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

    ``step_keys`` optionally permutes the columns: the ordering's slot i is
    drawn from the stream of key ``step_keys[i]`` and written at that column
    (default: the identity).  The verify module passes each slot's canonical
    rank, which couples the draws of two orderings of the same lattice
    variable by variable and lines up their columns.  Inside
    ``kernels.shared_columns`` each stream, and each quantile column drawn
    from it, is computed once.
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
    if sorted(keys) != list(range(n_steps)):
        raise ConfigError("step_keys must be a permutation of the columns")
    out = np.empty((count, n_steps))
    col = keys[0]
    u = _stream(seed, col, start, count)
    if spec.initial is not None:
        out[:, col] = pmf_ppf(spec.initial_pmf(), u)
    else:
        out[:, col] = kernel.initial_ppf(spec.min_set, u)
    x = out[:, col].copy()
    for i in range(1, n_steps):
        col = keys[i]
        u = _stream(seed, col, start, count)
        out[:, col] = kernel.increment_ppf(ordering.prefix_set(i - 1),
                                           ordering.prefix_set(i), x, u)
        x = x + out[:, col]
    return out


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


def algebra_mask(plus, minus=()) -> int:
    """The mask of a set of the algebra the members generate: the union of
    ``plus`` minus the union of ``minus``, each a collection of sets or
    masks."""
    def union(sets):
        return reduce(operator.or_, (getattr(s, "mask", s) for s in sets), 0)
    return union(plus) & ~union(minus)


def algebra_values(lefts: LeftNeighbourhoods, increments: np.ndarray, masks) -> np.ndarray:
    """The process on sets of the algebra, one column per mask (or set) and
    one row per row of the increment matrix: from 0.0, the set's increment
    columns (``decompose_over_lefts``) added one at a time in ascending
    order.  Each column is contiguous."""
    out = np.zeros((len(increments), len(masks)), order="F")
    for j, mask in enumerate(masks):
        for i in decompose_over_lefts(lefts, mask):
            out[:, j] += increments[:, i]
    return out


def joint_over_increments(spec, targets) -> JointLaw:
    """Joint law of the process over arbitrary unions of left neighbourhoods,
    as the pushforward of the exact increment law through block sums."""
    law = exact_fdd(spec)
    lefts = spec.lefts
    groups = [decompose_over_lefts(lefts, t) for t in targets]
    sets = tuple(IndexedSet(spec.lattice.grid, getattr(t, "mask", t)) for t in targets)
    labels = tuple(f"S{i}" for i in range(len(targets)))
    return law.pushforward_sums(groups, labels=labels, sets=sets)
