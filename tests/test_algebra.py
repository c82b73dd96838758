"""The process on the algebra the members generate: ``construction.algebra_mask``
and ``construction.algebra_values`` against the mask fold and the three sums
they replaced (``tests/helpers.py``), bit for bit."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from setmarkov import (
    CellMeasure,
    FddSpec,
    GaussianIncrementKernel,
    GroundGrid,
    IndexedSet,
    algebra_mask,
    algebra_values,
    close_under_intersection,
    sample_increments,
)
from setmarkov.config import load_config
from setmarkov.construction import decompose_over_lefts

from helpers import (
    ref_block_values,
    ref_derived_mask,
    ref_member_values,
    ref_path_value,
)

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
ROWS = 2000
# rows whose every value is also checked against Python's sum, one path at a time
PATHS = 40


def _index_sets(n):
    """(union, minus) member indices: every pair's union, alone and minus
    each member, and the union of every member minus each pair."""
    out = []
    for pair in itertools.combinations(range(n), 2):
        out.append((pair, ()))
        out += [(pair, (k,)) for k in range(n)]
        out.append((tuple(range(n)), pair))
    return out


def _assert_values_are_the_references(lefts, arr, masks):
    got = algebra_values(lefts, arr, masks)
    assert got.shape == (len(arr), len(masks)) and got.flags.f_contiguous
    assert got.tobytes() == ref_block_values(lefts, arr, masks).copy(order="F").tobytes()
    for j, mask in enumerate(masks):
        if mask:
            assert got[:, j].tobytes() == ref_member_values(arr, lefts, mask).tobytes()
        want = [ref_path_value(lefts, row, mask) for row in arr[:PATHS]]
        assert got[:PATHS, j].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stem", ["gaussian_staircase", "dirichlet_staircase",
                                  "empirical6_staircase"])
def test_algebra_values_are_the_old_sums_bit_for_bit(stem, seed):
    cfg = load_config(str(CONFIGS / f"{stem}.json"))
    spec, members = cfg.spec, cfg.lattice.members
    arr = sample_increments(spec, seed, ROWS)
    masks = []
    for union, minus in _index_sets(len(members)):
        mask = algebra_mask([members[j] for j in union], [members[j] for j in minus])
        assert mask == ref_derived_mask(members, union, minus)
        assert mask == algebra_mask([members[j].mask for j in union],
                                    [members[j].mask for j in minus])
        masks.append(mask)
    assert any(not m for m in masks) and len(set(masks)) > 20
    _assert_values_are_the_references(spec.lefts, arr, [m.mask for m in members] + masks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_member_over_eleven_left_neighbourhoods(seed):
    # lower rectangles up to the whole 4x4 grid: the last member is the union
    # of all eleven left neighbourhoods, past the 8 columns from which a
    # contiguous sum(axis=1) departs from the fold
    grid = GroundGrid((4, 4))
    corners = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2),
               (0, 3), (3, 3)]
    lattice = close_under_intersection([IndexedSet.rectangle(grid, c) for c in corners])
    spec = FddSpec(lattice, GaussianIncrementKernel(CellMeasure.counting(grid)))
    whole = IndexedSet.rectangle(grid, (3, 3))
    assert len(decompose_over_lefts(spec.lefts, whole)) == 11
    arr = sample_increments(spec, seed, ROWS)
    _assert_values_are_the_references(spec.lefts, arr, [whole.mask, algebra_mask(
        [whole], [IndexedSet.rectangle(grid, (0, 3))])])


def test_algebra_mask_takes_no_minus_and_an_empty_union():
    grid = GroundGrid((2, 2))
    a, b = IndexedSet.from_cells(grid, [0, 1]), IndexedSet.from_cells(grid, [0, 2])
    assert algebra_mask([a, b]) == a.mask | b.mask
    assert algebra_mask([a], [b]) == a.mask & ~b.mask == 0b10
    assert algebra_mask([]) == 0 == algebra_mask([], [a])
