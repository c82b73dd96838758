"""The array exact-law engine against dict reference implementations, and
the memoised, read-only step pmfs it is built on."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmarkov import (
    CellMeasure,
    CompoundPoissonKernel,
    EmpiricalKernel,
    FddSpec,
    IndexedSet,
    JointLaw,
    MixtureSpec,
    PoissonIncrementKernel,
    close_under_intersection,
    enumerate_consistent_orderings,
    exact_fdd,
)
from setmarkov import construction, distributions, kernels, verify
from setmarkov.cli import main
from setmarkov.distributions import GridLaw, canonical_value, grid_step, pmf_ppf, tv_distance
from setmarkov.grid import measure_of
from setmarkov.kernels import chain_rows
from setmarkov.verify import (
    MIN_CONDITION_PROB,
    conditional_independence_defect,
    set_markov_defect,
)

from helpers import (
    ref_conditional_independence_defect,
    ref_exact_fdd,
    ref_marginal,
    ref_permuted,
    ref_pushforward_sums,
    ref_tv,
)

TOL = 1e-15
FLOAT_VALUES = sorted({canonical_value(0.1 * i + 2.5 * j) for i in range(4) for j in range(3)})


@st.composite
def tables(draw, width=None, floats=None):
    """A small joint pmf as a dict: integer or canonical float keys, some
    exact-zero weights."""
    d = width if width is not None else draw(st.integers(1, 4))
    floats = draw(st.booleans()) if floats is None else floats
    value = st.sampled_from(FLOAT_VALUES) if floats else st.integers(-2, 4)
    keys = draw(st.lists(st.tuples(*[value] * d), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                            min_size=len(keys), max_size=len(keys)))
    if sum(weights) == 0:
        weights[0] = 1.0
    total = sum(weights)
    return {k: w / total for k, w in zip(keys, weights)}


def law_of(table):
    """The ``JointLaw`` of a dict table keyed by value tuples, on the grid of
    the values' common step."""
    width = len(next(iter(table)))
    keys = np.array(list(table), dtype=float).reshape(len(table), width)
    step = grid_step(np.unique(keys).tolist())
    codes = np.rint(keys * step.denominator / step.numerator).astype(np.int64)
    return JointLaw(tuple(f"C{i}" for i in range(width)), None, codes,
                    list(table.values()), step)


def assert_same_law(got: dict, want: dict):
    assert set(got) == set(want)
    assert max(abs(got[k] - want[k]) for k in want) <= TOL


@st.composite
def index_groups(draw, d, min_groups=1, max_groups=3):
    return draw(st.lists(st.lists(st.integers(0, d - 1), max_size=d, unique=True),
                         min_size=min_groups, max_size=max_groups))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_permuted_and_marginal_match_dict_reference(data):
    table = data.draw(tables())
    d = len(next(iter(table)))
    law = law_of(table)
    perm = data.draw(st.permutations(range(d)))
    assert_same_law(law.permuted(perm).table, ref_permuted(table, perm))
    keep = perm[: data.draw(st.integers(1, d))]
    assert_same_law(law.marginal(keep).table, ref_marginal(table, keep))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_pushforward_sums_match_dict_reference(data):
    table = data.draw(tables())
    d = len(next(iter(table)))
    groups = data.draw(index_groups(d, min_groups=0))
    assert_same_law(law_of(table).pushforward_sums(groups).table,
                    ref_pushforward_sums(table, groups))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_tv_matches_dict_reference(data):
    floats = data.draw(st.booleans())
    a = data.draw(tables(floats=floats))
    d = len(next(iter(a)))
    b = data.draw(st.one_of(st.just(a), tables(width=d, floats=floats)))
    assert abs(law_of(a).tv(law_of(b)) - ref_tv(a, b)) <= TOL


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_tv_of_equal_key_matrices_matches_dict_reference(data):
    a = data.draw(tables())
    weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(a), max_size=len(a)))
    total = sum(weights)
    b = {k: w / total for k, w in zip(a, weights)}
    assert abs(law_of(a).tv(law_of(b)) - ref_tv(a, b)) <= TOL


def test_tv_of_reordered_rows_groups_them(monkeypatch):
    a = {(0, 1): 0.5, (1, 0): 0.3, (2, 2): 0.2}
    b = {(2, 2): 0.1, (1, 0): 0.3, (0, 1): 0.6}  # the same rows in another order
    calls = []
    real = construction.row_codes
    monkeypatch.setattr(construction, "row_codes", lambda c: calls.append(c) or real(c))
    assert abs(law_of(a).tv(law_of(b)) - ref_tv(a, b)) <= TOL
    # one code per row of both laws at once, so equal rows meet
    assert len(calls) == 1 and calls[0].shape == (6, 2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(tables())
def test_sorted_puts_rows_in_lexicographic_order(table):
    law = law_of(table)
    got = law.sorted()
    assert got.keys.tolist() == sorted(map(list, table))
    assert got.table == law.table and got.labels == law.labels


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_conditional_independence_defect_matches_dict_reference(data):
    table = data.draw(tables())
    d = len(next(iter(table)))
    target = data.draw(index_groups(d, max_groups=2))
    history = data.draw(index_groups(d))
    # the present is a function of the history: the sum of some of its groups
    chosen = data.draw(st.lists(st.sampled_from(range(len(history))), unique=True))
    present = [[i for h in chosen for i in history[h]]]
    min_prob = data.draw(st.sampled_from([1e-12, 0.05, 0.3]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "MIN_CONDITION_PROB", min_prob)
        got = conditional_independence_defect(law_of(table), target, history, present)
    defect, skipped, events = ref_conditional_independence_defect(
        table, target, history, present, min_prob)
    assert abs(got.defect - defect) <= TOL
    assert (got.skipped, got.events) == (skipped, events)


def _three_set_specs(lattice3, grid2):
    skewed = CellMeasure(grid2, [0.4, 0.3, 0.2, 0.1], "probability")
    uniform = CellMeasure.uniform_probability(grid2)
    return {
        "empirical": FddSpec(lattice3, EmpiricalKernel(3, skewed)),
        "poisson": FddSpec(lattice3, PoissonIncrementKernel(
            CellMeasure(grid2, [0.5, 1.0, 1.5, 2.0]))),
        "compound_poisson": FddSpec(lattice3, CompoundPoissonKernel(
            CellMeasure(grid2, [0.4] * 4), (1.0, 2.5), (0.6, 0.4))),
        "mixture": MixtureSpec((FddSpec(lattice3, EmpiricalKernel(2, uniform)),
                                FddSpec(lattice3, EmpiricalKernel(2, skewed))), (0.4, 0.6)),
    }


@pytest.mark.parametrize("kind", ["empirical", "poisson", "compound_poisson", "mixture"])
def test_exact_fdd_bit_identical_to_dict_chaining(lattice3, grid2, kind):
    spec = _three_set_specs(lattice3, grid2)[kind]
    want = ref_exact_fdd(spec)
    got = exact_fdd(spec).table
    assert got == want
    assert list(got) == list(want)


def test_memoised_pmfs_are_read_only_and_accepted_everywhere(lattice3, grid2):
    B = IndexedSet.from_cells(grid2, [0])
    B2 = IndexedSet.from_cells(grid2, [0, 1])
    for kind, spec in _three_set_specs(lattice3, grid2).items():
        if kind == "mixture":
            continue
        kernel = spec.kernel
        pmf = kernel.increment_pmf(B, B2, 0)
        assert pmf is kernel.increment_pmf(B, B2, 0)
        initial = spec.initial_pmf()
        for shared in (pmf, initial):
            with pytest.raises(TypeError):
                shared[99] = 1.0
        # consumers take the read-only mappings as they took dicts
        assert pmf_ppf(pmf, np.array([0.0, 0.5, 1.0])).shape == (3,)
        assert pmf_ppf(initial, np.array([0.5])).shape == (1,)
        assert tv_distance(pmf, dict(pmf)) == 0.0
        # one leg's columns are the grid indices its step law reaches
        columns, rows = chain_rows(kernel, (B, B2), [0])
        law = kernel.step_pmf(B, B2, 0)
        assert np.array_equal(columns, law.atoms[0])
        placed = np.zeros(columns[-1] - columns[0] + 1)
        placed[columns - columns[0]] = rows[0]
        assert GridLaw(int(columns[0]), placed, kernel.value_step) == law
        # the memo is per instance and takes no part in equality
        twin = dataclasses.replace(kernel)
        assert twin == kernel and hash(twin) == hash(kernel)
        assert twin._pmfs is not kernel._pmfs and not twin._pmfs


def test_binomial_runs_once_per_step_key(monkeypatch, lattice6, uniform4):
    calls = []
    real = kernels.binomial_band
    # one row per law built
    monkeypatch.setattr(kernels, "binomial_band",
                        lambda trials, p: calls.extend(trials) or real(trials, p))
    n = 10
    spec = FddSpec(lattice6, EmpiricalKernel(n, uniform4))
    wanted = {"initial"}
    for o in enumerate_consistent_orderings(lattice6):
        law = exact_fdd(spec.with_ordering(o))
        for i in range(1, len(o)):
            prev, cur = o.prefix_masks[i - 1], o.prefix_masks[i]
            if prev != cur:
                running = set(law.keys[:, :i].sum(axis=1).tolist())
                wanted |= {(prev, cur, n - s) for s in running}
    assert len(calls) == len(wanted)


def test_poisson_tail_search_runs_once_per_step(monkeypatch, lattice6, grid4):
    calls = []
    real = distributions.poisson_tail_counts
    # one call per mean searched
    monkeypatch.setattr(distributions, "poisson_tail_counts",
                        lambda means, tail: calls.extend((m, tail) for m in means)
                        or real(means, tail))
    # a small mean keeps each table short; the count does not depend on it
    lam = CellMeasure(grid4, [1e-3] * 16)
    spec = FddSpec(lattice6, PoissonIncrementKernel(lam))
    steps = {(0, lattice6.min_set.mask)}
    for o in enumerate_consistent_orderings(lattice6):
        exact_fdd(spec.with_ordering(o))
        masks = o.prefix_masks
        steps |= {(a, b) for a, b in zip(masks, masks[1:]) if a != b}
    # steps over equally many cells share one table: one search per mean
    means = {measure_of(lam, b & ~a) for a, b in steps}
    assert len(means) < len(steps)
    assert sorted(mean for mean, _ in calls) == sorted(means)


COMPOUND_STAIRCASE = {
    "grid": {"extents": [4, 4]},
    "semilattice": {"rectangles": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]},
    "process": {"kind": "compound_poisson", "measure": {"constant": 1.0},
                "jumps": {"values": [1, 2], "probs": [0.6, 0.4]}},
}


def test_table_cap_raises_before_the_table_is_built(tmp_path, capsys):
    # 31^6 entries in full; the step that would pass 10M entries is refused
    # from its known size instead of being built first
    cfg = tmp_path / "compound_staircase.json"
    cfg.write_text(json.dumps(COMPOUND_STAIRCASE))
    out = tmp_path / "fdd.csv"
    start = time.perf_counter()
    assert main(["fdd", "--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 10.0
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_group_rows_rekeys_codes_that_would_overflow():
    # 2048 distinct grid indices in each of six columns: a mixed-radix code
    # over them needs 2048**6 = 2**66 values, so group_rows re-ranks on the
    # way.  Row pairs agree everywhere but in the first column, whose
    # offsets differ by a multiple of 512: in a wrapped int64 code they would
    # collide.  The columns start at other indices than 0, some below it
    rng = np.random.default_rng(0)
    n = 2048
    rest = [rng.permutation(n) + 700 * j - 1500 for j in range(1, 6)]
    rows = [((i + shift) % n - 3,) + tuple(int(c[i]) for c in rest)
            for shift in (0, 512) for i in range(n)]
    # each row twice, split by a last 0/1 column, so the marginal merges
    keys = [k + (b,) for k in rows for b in (0, 1)]
    weights = rng.uniform(0.1, 1.0, size=len(keys))
    weights /= weights.sum()
    table = dict(zip(keys, weights.tolist()))
    law = law_of(table)
    keep = list(range(6))
    assert_same_law(law.marginal(keep).table, ref_marginal(table, keep))
    other = dict(zip(keys, np.roll(weights, 1).tolist()))
    # summed exactly: a running sum of the 8192 gaps drifts past TOL
    want = 0.5 * math.fsum(abs(p - other[k]) for k, p in table.items())
    assert abs(law.tv(law_of(other)) - want) <= TOL


def test_set_markov_with_a_split_history_part(grid2):
    # the history observes {0} and {1, 2}; {1, 2} is two left cells of the
    # law, so rows of one history can have presents that float sums round
    # apart: rows (0.1, 0.0, 0.5) and (0.1, 0.1, 0.4) both have history
    # (0.1, 0.5), but their left-to-right float sums are 0.6 and
    # 0.6000000000000001.  Sums of grid indices are exact: one present each
    lat = close_under_intersection([IndexedSet.from_cells(grid2, c)
                                    for c in ([0, 1], [0, 2], [0, 3])])
    spec = FddSpec(lat, CompoundPoissonKernel(CellMeasure(grid2, [0.05] * 4),
                                              (0.1, 0.2), (0.6, 0.4)))
    B = spec.ordering.prefix_set(2)
    A = IndexedSet.from_cells(grid2, [0, 3])
    parts = [IndexedSet.from_cells(grid2, c).mask for c in ([0], [1, 2])]
    law = exact_fdd(spec)
    history, present = [[0], [1, 2]], [[0, 1, 2]]
    float_presents, presents = {}, {}
    for row in law.keys.tolist():
        seen = (row[0], row[1] + row[2])
        float_presents.setdefault(seen, set()).add(row[0] + row[1] + row[2])
    assert any(len(g) > 1 for g in float_presents.values())
    for row in map(tuple, law.group_sums(history + present).tolist()):
        presents.setdefault(row[:2], set()).add(row[2])
    assert all(len(g) == 1 for g in presents.values())
    got = set_markov_defect(spec, A, B, parts)
    defect, skipped, events = ref_conditional_independence_defect(
        law.table, [[3]], history, present, MIN_CONDITION_PROB)
    assert (got.skipped, got.events) == (skipped, events)
    assert got.defect < 1e-14 and defect < 1e-14

