"""Index-set combinatorics.

Sets are bitmasks of grid cells.  A semilattice is a finite family closed
under pairwise intersection whose members all contain a common nonempty
minimal set.  Orderings that never place a set before one of its subsets,
the disjoint "left neighbourhood" cells they induce, extremal union
representations, chain embeddings, monotone flows (knot times and stages)
and the piecewise-linear trace of a measure along a flow all live here.
An intersection closure stops past ``CLOSURE_CAP`` members, and no more
than ``ORDERING_CAP`` orderings are listed (module constants).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ChainEmbeddingError,
    ConfigError,
    EmptyRootError,
    GridMismatchError,
    OrderingOverflowError,
    TableSizeError,
)
from .grid import CellMeasure, GroundGrid, mask_cells, measure_of

ORDERING_CAP = 10_000
CLOSURE_CAP = 4_096


@dataclass(frozen=True)
class IndexedSet:
    """A union of whole grid cells, stored as a bitmask.

    ``lower_layer=True`` additionally asserts that the set is closed downward
    under the componentwise coordinate order (validated at construction).
    """

    grid: GroundGrid
    mask: int
    lower_layer: bool = False

    def __post_init__(self):
        if not 0 <= self.mask <= self.grid.full_mask:
            raise ConfigError("mask has bits outside the grid")
        if self.lower_layer and not _is_lower_layer(self.grid, self.mask):
            raise ConfigError("set is not closed downward, not a lower layer")

    @classmethod
    def from_cells(cls, grid: GroundGrid, cells, lower_layer: bool = False):
        mask = 0
        for c in cells:
            c = int(c)
            if not 0 <= c < grid.cell_count:
                raise ConfigError(f"cell {c} outside grid")
            mask |= 1 << c
        return cls(grid, mask, lower_layer)

    @classmethod
    def rectangle(cls, grid: GroundGrid, corner):
        """The lower layer of all cells with coordinates <= corner componentwise."""
        corner = tuple(int(c) for c in corner)
        mask = 0
        for idx in range(grid.cell_count):
            if all(a <= b for a, b in zip(grid.coords(idx), corner)):
                mask |= 1 << idx
        return cls(grid, mask, lower_layer=True)

    def cells(self) -> list[int]:
        return mask_cells(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def _check(self, other: "IndexedSet"):
        if self.grid != other.grid:
            raise GridMismatchError("sets live on different grids")

    def __or__(self, other):
        self._check(other)
        return IndexedSet(self.grid, self.mask | other.mask,
                          self.lower_layer and other.lower_layer)

    def __and__(self, other):
        self._check(other)
        return IndexedSet(self.grid, self.mask & other.mask,
                          self.lower_layer and other.lower_layer)

    def __sub__(self, other):
        self._check(other)
        return IndexedSet(self.grid, self.mask & ~other.mask)

    def issubset(self, other) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "IndexedSet":
        return IndexedSet(self.grid, self.grid.full_mask & ~self.mask)

    def __repr__(self):
        return f"IndexedSet({self.cells()})"


def _is_lower_layer(grid: GroundGrid, mask: int) -> bool:
    cells = set(mask_cells(mask))
    for c in cells:
        coords = grid.coords(c)
        for axis in range(grid.dims):
            if coords[axis] > 0:
                below = list(coords)
                below[axis] -= 1
                if grid.index(below) not in cells:
                    return False
    return True


@dataclass(frozen=True)
class Semilattice:
    """Intersection-closed family of nonempty sets with a common minimal member.

    ``members`` are distinct, sorted by (popcount, mask); members[0] is the
    minimal set, the intersection of the whole family.
    """

    grid: GroundGrid
    members: tuple[IndexedSet, ...]

    @property
    def min_set(self) -> IndexedSet:
        return self.members[0]

    def __len__(self):
        return len(self.members)

    @cached_property
    def _index_of(self) -> dict[int, int]:
        return {m.mask: i for i, m in enumerate(self.members)}

    def __contains__(self, s: IndexedSet) -> bool:
        return s.mask in self._index_of

    @cached_property
    def union_mask(self) -> int:
        out = 0
        for m in self.members:
            out |= m.mask
        return out

    def validate(self):
        """Check the closure and minimality invariants; raise ConfigError if broken."""
        masks = {m.mask for m in self.members}
        if len(masks) != len(self.members):
            raise ConfigError("semilattice members are not distinct")
        if 0 in masks:
            raise ConfigError("semilattice members must be nonempty")
        for a in masks:
            for b in masks:
                if a & b not in masks:
                    raise ConfigError("semilattice is not intersection-closed")
        root = self.members[0].mask
        for m in masks:
            root &= m
        if root == 0:
            raise EmptyRootError("members have empty common intersection")
        if root != self.min_set.mask:
            raise ConfigError("members[0] is not the minimal set")
        return self


def close_under_intersection(generators) -> Semilattice:
    """Smallest intersection-closed family containing ``generators``.

    Raises EmptyRootError if any intersection in the closure is empty (the
    family then has no nonempty minimal set), and TableSizeError once the
    closure holds more than ``CLOSURE_CAP`` members.
    """
    generators = list(generators)
    if not generators:
        raise ConfigError("need at least one generator")
    grid = generators[0].grid
    masks: set[int] = set()
    for g in generators:
        if g.grid != grid:
            raise GridMismatchError("generators live on different grids")
        if g.mask == 0:
            raise ConfigError("generators must be nonempty")
        masks.add(g.mask)
    frontier = set(masks)
    while frontier:
        new = set()
        for a in frontier:
            for b in masks:
                c = a & b
                if c == 0:
                    raise EmptyRootError(
                        "closure contains an empty intersection, no minimal set exists"
                    )
                if c not in masks and c not in new:
                    new.add(c)
        masks |= new
        if len(masks) > CLOSURE_CAP:
            raise TableSizeError(f"intersection closure exceeds {CLOSURE_CAP} members")
        frontier = new
    ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
    return Semilattice(grid, tuple(IndexedSet(grid, m) for m in ordered))


@dataclass(frozen=True)
class ConsistentOrdering:
    """An enumeration of the members in which no set precedes any of its subsets.

    ``positions[i]`` is the index (into lattice.members) of the set at slot i;
    slot 0 always holds the minimal set.
    """

    lattice: Semilattice
    positions: tuple[int, ...]

    def __post_init__(self):
        n = len(self.lattice.members)
        if sorted(self.positions) != list(range(n)):
            raise ConfigError("ordering is not a permutation of the members")
        if self.positions[0] != 0:
            raise ConfigError("ordering must start with the minimal set")
        mem = self.lattice.members
        seen = 0
        for pos in self.positions:
            m = mem[pos].mask
            for j in range(len(mem)):
                other = mem[j].mask
                if other != m and other & ~m == 0 and not (seen >> j) & 1:
                    raise ConfigError("a set precedes one of its subsets")
            seen |= 1 << pos

    @property
    def sets(self) -> tuple[IndexedSet, ...]:
        return tuple(self.lattice.members[p] for p in self.positions)

    def __len__(self):
        return len(self.positions)

    @cached_property
    def prefix_masks(self) -> tuple[int, ...]:
        out = []
        acc = 0
        for p in self.positions:
            acc |= self.lattice.members[p].mask
            out.append(acc)
        return tuple(out)

    def prefix_set(self, i: int) -> IndexedSet:
        """Union of the first i+1 sets of the ordering."""
        return IndexedSet(self.lattice.grid, self.prefix_masks[i])


def default_ordering(lat: Semilattice) -> ConsistentOrdering:
    """The (popcount, mask)-sorted member order; always consistent."""
    return ConsistentOrdering(lat, tuple(range(len(lat.members))))


def enumerate_consistent_orderings(lat: Semilattice) -> list[ConsistentOrdering]:
    """All consistent orderings, in lexicographic order of member indices.

    Raises OrderingOverflowError past ``ORDERING_CAP`` results (n! growth).
    """
    return leading_orderings(lat, ORDERING_CAP + 1)[0]


def leading_orderings(lat: Semilattice, count: int) -> tuple[list[ConsistentOrdering], int]:
    """The first ``count`` consistent orderings, in the order above, and
    how many there are, counted (not built) up to ``ORDERING_CAP + 1``.
    Raises OrderingOverflowError past ``ORDERING_CAP`` listed orderings."""
    positions = _consistent_positions(lat)
    listed = list(itertools.islice(positions, min(count, ORDERING_CAP + 1)))
    if len(listed) > ORDERING_CAP:
        raise OrderingOverflowError(f"more than {ORDERING_CAP} consistent orderings")
    rest = sum(1 for _ in itertools.islice(positions, ORDERING_CAP + 1 - len(listed)))
    return [ConsistentOrdering(lat, p) for p in listed], len(listed) + rest


def _consistent_positions(lat: Semilattice):
    """The ``positions`` of every consistent ordering, lazily, in order."""
    mem = lat.members
    n = len(mem)
    strict_subs = []
    for i in range(n):
        subs = 0
        for j in range(n):
            if j != i and mem[j].mask & ~mem[i].mask == 0:
                subs |= 1 << j
        strict_subs.append(subs)
    slots = [0] * n

    def backtrack(depth: int, used: int):
        if depth == n:
            yield tuple(slots)
            return
        for i in range(n):
            if (used >> i) & 1:
                continue
            if strict_subs[i] & ~used:
                continue
            slots[depth] = i
            yield from backtrack(depth + 1, used | (1 << i))

    return backtrack(0, 0)


@dataclass(frozen=True)
class LeftNeighbourhoods:
    """The disjoint cells a consistent ordering carves out of the union.

    sets[0] is the minimal set itself (its own left neighbourhood by
    convention); sets[i] = A_i minus the union of all earlier sets.
    """

    ordering: ConsistentOrdering
    sets: tuple[IndexedSet, ...]


def left_neighbourhoods(ordering: ConsistentOrdering) -> LeftNeighbourhoods:
    grid = ordering.lattice.grid
    mem = ordering.lattice.members
    out = [mem[ordering.positions[0]]]
    acc = out[0].mask
    for pos in ordering.positions[1:]:
        m = mem[pos].mask
        out.append(IndexedSet(grid, m & ~acc))
        acc |= m
    return LeftNeighbourhoods(ordering, tuple(out))


def ordering_free_left_neighbourhood(lat: Semilattice, member: IndexedSet) -> IndexedSet:
    """Left neighbourhood computed without any ordering: the member minus the
    union of all members that do not contain it."""
    m = member.mask
    acc = 0
    for other in lat.members:
        if m & ~other.mask != 0:
            acc |= other.mask
    return IndexedSet(lat.grid, m & ~acc)


def extremal_representation(parts) -> list[IndexedSet]:
    """Minimal sublist with the same union in which no member is contained in
    the union of the others.  Redundant members are dropped in index order."""
    parts = list(parts)
    keep = list(range(len(parts)))
    for i in range(len(parts)):
        if i not in keep:
            continue
        others = 0
        for j in keep:
            if j != i:
                others |= parts[j].mask
        if parts[i].mask & ~others == 0:
            keep.remove(i)
    return [parts[i] for i in keep]


def embed_chain(chain, lat: Semilattice):
    """Realize a monotone chain of member unions as prefix unions.

    Returns (ordering, prefix_indices) with chain[l] equal to the union of the
    ordering's first prefix_indices[l]+1 sets.
    """
    chain = list(chain)
    if not chain:
        raise ChainEmbeddingError("chain is empty")
    masks = []
    for b in chain:
        mask = getattr(b, "mask", b)
        grid = getattr(b, "grid", None)
        if grid is not None and grid != lat.grid:
            raise GridMismatchError("chain set on a different grid")
        masks.append(mask)
    for a, b in zip(masks, masks[1:]):
        if a & ~b != 0:
            raise ChainEmbeddingError("chain is not monotone under inclusion")
    mem = lat.members
    n = len(mem)
    for l, b in enumerate(masks):
        covered = 0
        for m in mem:
            if m.mask & ~b == 0:
                covered |= m.mask
        if covered != b:
            raise ChainEmbeddingError(
                f"chain element {l} is not a union of lattice members"
            )
    big = len(masks) + 1
    levels = []
    for i in range(n):
        lev = big
        for l, b in enumerate(masks):
            if mem[i].mask & ~b == 0:
                lev = l
                break
        levels.append(lev)
    order = sorted(range(n), key=lambda i: (levels[i], mem[i].size, mem[i].mask))
    ordering = ConsistentOrdering(lat, tuple(order))
    prefix_indices = []
    for l in range(len(masks)):
        count = sum(1 for i in range(n) if levels[i] <= l)
        prefix_indices.append(count - 1)
    return ordering, tuple(prefix_indices)


class Trace:
    """Piecewise-linear nondecreasing measure trace t -> m(f(t)) along a flow."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ConfigError("trace needs matching 1-d times and values")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("trace times must be strictly increasing")
        if np.any(np.diff(self.values) < -1e-12):
            raise ConfigError("trace values must be nondecreasing")

    @classmethod
    def along_flow(cls, measure: CellMeasure, flow: "DiscreteFlow") -> "Trace":
        return cls(flow.times, [measure_of(measure, s) for s in flow.stages])

    def __call__(self, t):
        """The trace at t, a float, or at each time of an array t, an array."""
        t = np.asarray(t, dtype=float)
        outside = ~((self.times[0] - 1e-12 <= t) & (t <= self.times[-1] + 1e-12))
        if outside.any():
            raise ConfigError(f"time {t[outside].flat[0]} outside trace domain")
        out = np.interp(t, self.times, self.values)
        return float(out) if out.ndim == 0 else out

    def slope(self, t, side: str = "+"):
        """One-sided derivative at t, a float, or at each time of an array t,
        an array; ``side`` resolves the knot ambiguity: '-' reads the segment
        that ends at a knot, '+' the one that starts there."""
        if side not in ("+", "-"):
            raise ConfigError("side must be '+' or '-'")
        k = np.searchsorted(self.times, t, side="left" if side == "-" else "right") - 1
        k = np.clip(k, 0, len(self.times) - 2)
        out = (self.values[k + 1] - self.values[k]) / (self.times[k + 1] - self.times[k])
        return float(out) if np.ndim(out) == 0 else out

    def breakpoints(self, s: float, t: float) -> list[float]:
        inner = [float(k) for k in self.times if s + 1e-12 < k < t - 1e-12]
        return [s] + inner + [t]


@dataclass(frozen=True)
class DiscreteFlow:
    """A monotone chain of stages at increasing knot times.  A kernel reads
    it through the trace of its own measure, ``Trace.along_flow``, whose
    piecewise-linear values play the role of continuous time."""

    times: tuple[float, ...]
    stages: tuple[IndexedSet, ...]

    def __post_init__(self):
        if len(self.times) != len(self.stages) or not self.times:
            raise ConfigError("flow needs matching, nonempty times and stages")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ConfigError("flow times must be strictly increasing")
        for a, b in zip(self.stages, self.stages[1:]):
            if not a.issubset(b):
                raise ConfigError("flow stages must be monotone under inclusion")


def flow_from_ordering(ordering: ConsistentOrdering) -> DiscreteFlow:
    """The canonical flow of an ordering: knot i at time i, stage = union of
    the first i+1 sets."""
    stages = tuple(ordering.prefix_set(i) for i in range(len(ordering)))
    times = tuple(float(i) for i in range(len(ordering)))
    return DiscreteFlow(times, stages)
