"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure); the assertions carry the same tolerances as the printed lines.
"""

import itertools
import json
import math
import time

import numpy as np
from scipy import special, stats

from setmarkov import (
    CellMeasure,
    DirichletKernel,
    EmpiricalKernel,
    FddSpec,
    GaussianIncrementKernel,
    GroundGrid,
    IndexedSet,
    MixtureSpec,
    PoissonIncrementKernel,
    algebra_values,
    close_under_intersection,
    enumerate_consistent_orderings,
    exact_fdd,
    flow_from_ordering,
    joint_over_increments,
    sample_increments,
)
from setmarkov.cli import main
from setmarkov.distributions import binomial_pmf, poisson_laws, tv_distance
from setmarkov.generators import (
    DirichletFlowSemigroup,
    EmpiricalFlowSemigroup,
    GaussianFlowSemigroup,
    JumpFlowSemigroup,
    Trace,
    finite_difference_generator_errors,
    integral_identity_residual,
    permutation_identity_check,
)
from setmarkov.grid import measure_of
from setmarkov.kernels import ck_defect, shared_columns
from setmarkov.lattice import left_neighbourhoods
from setmarkov.verify import (
    aligned_increment_samples,
    flow_markov_defect,
    increment_vector_independence_defect,
    mc_event_probabilities,
    mc_probe_thresholds,
    probability_gap,
    set_markov_defect,
)

from helpers import brute_force_orderings, ref_align_variables

SEED = 20_240_817
MC_COUNT = 100_000
FD_EPS = (1e-2, 5e-3, 2.5e-3)


def report(criterion: int, passed: bool, detail: str):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def cells(g, *idx):
    return IndexedSet.from_cells(g, idx)


def three_set_lattice():
    g = GroundGrid((2, 2))
    lat = close_under_intersection([cells(g, 0, 1), cells(g, 0, 2)])
    return g, lat


def staircase_lattice():
    g = GroundGrid((4, 4))
    corners = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
    lat = close_under_intersection([IndexedSet.rectangle(g, c) for c in corners])
    return g, lat


def test_criterion_1_ordering_enumeration_matches_brute_force():
    rng = np.random.default_rng(12345)
    grids = [GroundGrid((2, 2)), GroundGrid((3, 2)), GroundGrid((4, 4))]
    t0 = time.monotonic()
    checked = 0
    while checked < 10:
        g = grids[checked % len(grids)]
        base = int(rng.integers(g.cell_count))
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            extra = set(rng.choice(g.cell_count, size=int(rng.integers(0, 5)),
                                   replace=False).tolist())
            gens.append(IndexedSet.from_cells(g, {base} | extra))
        try:
            lat = close_under_intersection(gens)
        except Exception:
            continue
        if len(lat.members) > 7:
            continue
        got = [o.positions for o in enumerate_consistent_orderings(lat)]
        want = brute_force_orderings([m.mask for m in lat.members])
        assert got == want, f"lattice {[m.cells() for m in lat.members]}"
        checked += 1
    elapsed = time.monotonic() - t0
    report(1, elapsed < 5.0,
           f"10 random lattices match the brute-force filter in {elapsed:.2f}s")


def _prefix_triples(lat):
    seen = set()
    for o in enumerate_consistent_orderings(lat):
        masks = o.prefix_masks
        n = len(masks)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    key = (masks[i], masks[j], masks[k])
                    if key not in seen:
                        seen.add(key)
                        yield o.prefix_set(i), o.prefix_set(j), o.prefix_set(k)


def test_criterion_2_chapman_kolmogorov():
    t0 = time.monotonic()
    worst_emp = 0.0
    for g, lat in (three_set_lattice(), staircase_lattice()):
        F = CellMeasure.uniform_probability(g)
        kern = EmpiricalKernel(2, F)
        states = [j / 2 for j in range(3)]
        for B, B1, B2 in _prefix_triples(lat):
            worst_emp = max(worst_emp, ck_defect(kern, B, B1, B2, states).defect)
    g, lat = three_set_lattice()
    lam = CellMeasure.counting(g)
    gauss = GaussianIncrementKernel(lam)
    worst_gauss = 0.0
    seen = set()
    for B, B1, B2 in _prefix_triples(lat):
        key = (round(measure_of(lam, B1 - B), 12), round(measure_of(lam, B2 - B1), 12))
        if key in seen or key[0] + key[1] == 0:
            continue
        seen.add(key)
        worst_gauss = max(worst_gauss, ck_defect(gauss, B, B1, B2, [0.0]).defect)
    alpha = CellMeasure(g, [1.0] * 4, "dirichlet")
    diri = DirichletKernel(alpha)
    o = enumerate_consistent_orderings(lat)[0]
    r = ck_defect(diri, o.prefix_set(0), o.prefix_set(1), o.prefix_set(2),
                  [0.0, 0.25], mc=(SEED, MC_COUNT))
    elapsed = time.monotonic() - t0
    ok = worst_emp < 1e-12 and worst_gauss < 1e-6 and r.sigmas < 3.0 and elapsed < 60.0
    report(2, ok, f"empirical {worst_emp:.2e} < 1e-12, gaussian {worst_gauss:.2e} "
                  f"< 1e-6, dirichlet {r.sigmas:.2f} sigmas < 3 in {elapsed:.1f}s")


def test_criterion_3_ordering_invariance():
    worst_emp = 0.0
    worst_sig = 0.0
    for g, lat in (three_set_lattice(), staircase_lattice()):
        orders = enumerate_consistent_orderings(lat)
        F = CellMeasure.uniform_probability(g)
        spec = FddSpec(lat, EmpiricalKernel(2, F))
        laws = [exact_fdd(spec.with_ordering(o)) for o in orders]
        lefts = [left_neighbourhoods(o) for o in orders]
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                perm = ref_align_variables(lefts[i], lefts[j])
                worst_emp = max(worst_emp, laws[i].tv(laws[j].permuted(perm)))
        for kern in (DirichletKernel(CellMeasure(g, np.full(g.cell_count, 1.0),
                                                 "dirichlet")),
                     GaussianIncrementKernel(CellMeasure.counting(g))):
            cspec = FddSpec(lat, kern)
            # one column scope, as the ordering check opens: the orderings
            # share each uniform stream and quantile column, bit for bit
            with shared_columns():
                aligned = [aligned_increment_samples(cspec, o, SEED, MC_COUNT)
                           for o in orders]
            medians, quartiles = mc_probe_thresholds(aligned[0])
            probs = [mc_event_probabilities(a, medians, quartiles) for a in aligned]
            for i in range(len(orders)):
                for j in range(i + 1, len(orders)):
                    worst_sig = max(worst_sig,
                                    probability_gap(probs[i], probs[j], MC_COUNT).sigmas)
    g, lat = three_set_lattice()
    orders = enumerate_consistent_orderings(lat)
    bad = FddSpec(lat, EmpiricalKernel(2, CellMeasure.uniform_probability(g),
                                       corrupted=True))
    bad_laws = [exact_fdd(bad.with_ordering(o)) for o in orders]
    perm = ref_align_variables(left_neighbourhoods(orders[0]),
                               left_neighbourhoods(orders[1]))
    corrupted = bad_laws[0].tv(bad_laws[1].permuted(perm))
    ok = worst_emp < 1e-12 and worst_sig < 3.0 and corrupted > 0.01
    report(3, ok, f"empirical {worst_emp:.2e} < 1e-12, MC {worst_sig:.2f} sigmas < 3, "
                  f"corrupted {corrupted:.3f} > 0.01")


def test_criterion_4_markov_properties():
    worst = 0.0
    for g, lat in (three_set_lattice(), staircase_lattice()):
        F = CellMeasure.uniform_probability(g)
        for n in (1, 2, 3):
            spec = FddSpec(lat, EmpiricalKernel(n, F))
            ordering = spec.ordering
            lefts = spec.lefts
            for k in range(1, len(ordering) - 1):
                B = ordering.prefix_set(k)
                part = [c for c in lefts.sets[: k + 1] if c.mask]
                for A in lat.members:
                    worst = max(worst, set_markov_defect(spec, A, B, part).defect)
            B = ordering.prefix_set(max(1, len(ordering) // 2))
            a_list = [m for m in lat.members if m.mask & ~B.mask][:2]
            if a_list:
                worst = max(worst,
                            increment_vector_independence_defect(spec, B, a_list).defect)
            flow = flow_from_ordering(ordering)
            worst = max(worst, flow_markov_defect(spec, flow).defect)
    g, lat = three_set_lattice()
    F = CellMeasure.uniform_probability(g)
    F2 = CellMeasure(g, [0.1, 0.4, 0.4, 0.1], "probability")
    mix = MixtureSpec((FddSpec(lat, EmpiricalKernel(2, F)),
                       FddSpec(lat, EmpiricalKernel(2, F2))), (0.5, 0.5))
    B = mix.ordering.prefix_set(1)
    part = [cells(g, 0), cells(g, 1)]
    mix_defect = max(set_markov_defect(mix, lat.members[2], B, part).defect,
                     flow_markov_defect(mix, flow_from_ordering(mix.ordering)).defect)
    ok = worst < 1e-10 and mix_defect > 0.01
    report(4, ok, f"built-in defects {worst:.2e} < 1e-10, mixture {mix_defect:.3f} > 0.01")


def test_criterion_5_marginal_laws():
    g, lat = staircase_lattice()
    F = CellMeasure.uniform_probability(g)
    worst_emp = 0.0
    for n in (1, 2, 3):
        spec = FddSpec(lat, EmpiricalKernel(n, F))
        for m in lat.members:
            got = joint_over_increments(spec, [m]).scalar_dict()
            want = binomial_pmf(n, measure_of(F, m)).as_dict()
            worst_emp = max(worst_emp, tv_distance(got, want))
    g3, lat3 = three_set_lattice()
    alpha = CellMeasure(g3, [1.0] * 4, "dirichlet")
    dspec = FddSpec(lat3, DirichletKernel(alpha))
    arr = sample_increments(dspec, SEED, MC_COUNT)
    lefts = dspec.lefts
    worst_ks = 0.0
    crit = special.kolmogi(0.01) / math.sqrt(MC_COUNT)
    for m in lat3.members:
        idx = [i for i, c in enumerate(lefts.sets) if c.mask and c.issubset(m)]
        vals = arr[:, idx].sum(axis=1)
        a = measure_of(alpha, m)
        ks = stats.kstest(vals, lambda z, _a=a: stats.beta.cdf(z, _a, 4.0 - _a))
        worst_ks = max(worst_ks, ks.statistic)
    lam = CellMeasure.counting(g3)
    gspec = FddSpec(lat3, GaussianIncrementKernel(lam))
    garr = sample_increments(gspec, SEED, MC_COUNT)
    glefts = gspec.lefts
    worst_cov = 0.0
    for m1, m2 in itertools.combinations_with_replacement(lat3.members, 2):
        x = garr[:, [i for i, c in enumerate(glefts.sets) if c.issubset(m1)]].sum(axis=1)
        y = garr[:, [i for i, c in enumerate(glefts.sets) if c.issubset(m2)]].sum(axis=1)
        prod = (x - x.mean()) * (y - y.mean())
        se = prod.std(ddof=1) / math.sqrt(MC_COUNT)
        want = measure_of(lam, m1 & m2)
        worst_cov = max(worst_cov, abs(prod.mean() - want) / se)
    ok = worst_emp < 1e-12 and worst_ks < crit and worst_cov < 3.0
    report(5, ok, f"empirical TV {worst_emp:.2e} < 1e-12, dirichlet KS {worst_ks:.4f} "
                  f"< {crit:.4f} (1% level), gaussian cov {worst_cov:.2f} sigmas < 3")


def test_criterion_6_additivity_on_sampled_paths():
    g, lat = three_set_lattice()
    F = CellMeasure.uniform_probability(g)
    lam = CellMeasure.counting(g)
    alpha = CellMeasure(g, [1.0] * 4, "dirichlet")
    specs = [
        FddSpec(lat, EmpiricalKernel(2, F)),
        FddSpec(lat, GaussianIncrementKernel(lam)),
        FddSpec(lat, PoissonIncrementKernel(lam)),
        FddSpec(lat, DirichletKernel(alpha)),
    ]
    worst = 0.0
    for spec in specs:
        arr = sample_increments(spec, SEED, 10_000)
        for a, b in itertools.combinations(lat.members, 2):
            union, meet, va, vb = algebra_values(spec.lefts, arr, [a | b, a & b, a, b]).T
            gap = np.abs(union + meet - va - vb).max()
            worst = max(worst, gap)
    report(6, worst < 1e-9,
           f"inclusion-exclusion gap {worst:.2e} < 1e-9 on 4 x 10^4 paths")


def test_criterion_7_generators():
    unit = Trace([0.0, 1.0], [0.0, 1.0])
    sys_emp1 = EmpiricalFlowSemigroup(1, unit)
    errs1 = finite_difference_generator_errors(sys_emp1, 0.0, FD_EPS,
                                               np.array([0.0, 1.0]))
    zero_ok = max(errs1) < 1e-12
    ratios_ok = True
    details = []
    poisson = JumpFlowSemigroup(unit, poisson_laws)
    systems = [
        ("empirical n=2", EmpiricalFlowSemigroup(2, unit), np.array([1.0, 0.0, 0.0])),
        ("poisson", poisson, np.cos(np.arange(poisson.cap + 1).astype(float))),
        ("gaussian", GaussianFlowSemigroup(unit), np.sin),
        ("dirichlet", DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 3.0]), 4.0),
         lambda x: x * x),
    ]
    for name, system, h in systems:
        errs = finite_difference_generator_errors(system, 0.25, FD_EPS, h)
        rr = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        details.append(f"{name} ratios {['%.2f' % r for r in rr]}")
        if not all(1.5 <= r <= 3.0 for r in rr):
            ratios_ok = False
    res_emp = integral_identity_residual(EmpiricalFlowSemigroup(2, unit), 0.0, 0.5,
                                         np.array([1.0, 0.0, 0.0]))
    res_dir = integral_identity_residual(
        DirichletFlowSemigroup(Trace([0.0, 1.0], [1.0, 3.0]), 4.0), 0.0, 1.0,
        lambda x: x)
    ok = zero_ok and ratios_ok and res_emp < 1e-8 and res_dir < 1e-4
    report(7, ok, f"n=1 exact {max(errs1):.1e} < 1e-12; {'; '.join(details)}; "
                  f"integral identity {res_emp:.1e} < 1e-8 (empirical), "
                  f"{res_dir:.1e} < 1e-4 (dirichlet)")


def test_criterion_8_permutation_identities():
    worst_exact = 0.0
    worst_gen = 0.0
    g, lat = three_set_lattice()
    F = CellMeasure.uniform_probability(g)
    orders = enumerate_consistent_orderings(lat)
    for n in (1, 2, 3):
        spec = FddSpec(lat, EmpiricalKernel(n, F))
        for level in (2, 3):
            r = permutation_identity_check(spec, orders[0], orders[1], level)
            worst_exact = max(worst_exact, r.exact_defect)
            worst_gen = max(worst_gen, r.generator_residual)
    g6, lat6 = staircase_lattice()
    F6 = CellMeasure.uniform_probability(g6)
    spec6 = FddSpec(lat6, EmpiricalKernel(2, F6))
    orders6 = enumerate_consistent_orderings(lat6)
    masks = {tuple(s.mask for s in o.sets): o for o in orders6}
    rects = [IndexedSet.rectangle(g6, c) for c in
             [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]]
    row_first = masks[tuple(r.mask for r in rects)]
    col_order = [rects[0], rects[3], rects[5], rects[1], rects[4], rects[2]]
    col_first = masks[tuple(r.mask for r in col_order)]
    for level in (2, 3):
        r = permutation_identity_check(spec6, row_first, col_first, level)
        worst_exact = max(worst_exact, r.exact_defect)
        worst_gen = max(worst_gen, r.generator_residual)
    bad = FddSpec(lat, EmpiricalKernel(2, F, corrupted=True))
    rbad = permutation_identity_check(bad, orders[0], orders[1], 2)
    ok = worst_exact < 1e-12 and worst_gen < 1e-7 and rbad.exact_defect > 1e-3
    report(8, ok, f"exact {worst_exact:.2e} < 1e-12, generator {worst_gen:.2e} < 1e-7, "
                  f"corrupted {rbad.exact_defect:.4f} > 1e-3")


def test_criterion_9_reproducibility(tmp_path):
    cfg = {
        "grid": {"extents": [2, 2]},
        "semilattice": {"cell_lists": [[0, 1], [0, 2]]},
        "process": {"kind": "empirical", "n": 2, "measure": {"uniform": True}},
        "seed": 424_242,
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(cfg))
    outs = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"s_{tag}.csv"
        assert main(["sample", "--config", str(cpath), "--n", "200", "--out",
                     str(out), "--workers", str(workers)]) == 0
        outs.append(out.read_bytes())
    sample_ok = outs[0] == outs[1] == outs[2]
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"r_{tag}.json"
        assert main(["validate", "--config", str(cpath), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    validate_ok = reports[0] == reports[1]
    report(9, sample_ok and validate_ok,
           "sample CSV identical across runs and worker counts; "
           "validate report identical across runs")
