"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own algorithms: the ordering oracle
filters raw permutations, the closure oracle iterates pairwise intersections
to a fixed point on raw masks, and the chain-embedding oracle searches all
consistent orderings exhaustively.  The ``ref_*`` functions compute the
exact-law operations with one dict entry per outcome, accumulated row by
row: the reference for the array engine in ``construction`` and ``verify``.
``ref_permutation_identity_check`` enumerates matrix-chain paths one by one:
the reference for the matrix algebra of ``generators.permutation_identity_check``.
``ref_generator_matching_defect`` takes one state indicator per generator
integral: the reference for the identity-basis call of
``generators.generator_matching_defect``.
``ref_gaussian_apply``, ``ref_dirichlet_apply`` and their ``_generator``
partners evaluate the quadrature operators one point and one node at a
time: the reference for the array path of the gaussian and dirichlet flow
semigroups.
``ref_sample_csv`` and ``ref_fdd_csv`` write the ``sample`` and ``fdd`` CSVs
row by row through ``csv.writer``: the reference for the block writer of
``cli``.
"""

import csv
import functools
import itertools
import math

import numpy as np

from setmarkov.config import load_config
from setmarkov.construction import decompose_over_lefts, exact_fdd, sample_increments
from setmarkov.generators import (
    GAUSS_STENCIL,
    JACOBI_ORDER,
    generator_integral,
    system_along_flow,
)
from setmarkov.lattice import flow_from_ordering
from setmarkov.quadrature import gauss_segment, hermite, jacobi01, jacobi01_raw


def brute_force_orderings(masks):
    """All permutations of range(len(masks)) that start at the minimal set
    and never place a set before one of its strict subsets (lexicographic)."""
    n = len(masks)
    out = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                a, b = masks[perm[i]], masks[perm[j]]
                if b != a and b & ~a == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok and all(masks[perm[0]] & ~m == 0 for m in masks):
            out.append(perm)
    return out


def fixed_point_closure(masks):
    """Intersection closure by repeated pairwise intersection until stable."""
    masks = set(masks)
    while True:
        new = {a & b for a in masks for b in masks}
        if new <= masks:
            return masks
        masks |= new


def exhaustive_chain_embedding(chain_masks, member_masks):
    """All (ordering, prefix indices) realizing the chain as prefix unions."""
    hits = []
    for perm in brute_force_orderings(member_masks):
        prefixes = []
        acc = 0
        for p in perm:
            acc |= member_masks[p]
            prefixes.append(acc)
        idx = []
        ok = True
        for b in chain_masks:
            if b in prefixes:
                idx.append(prefixes.index(b))
            else:
                ok = False
                break
        if ok and idx == sorted(idx):
            hits.append((perm, tuple(idx)))
    return hits


def minimal_cover_search(masks):
    """Smallest sublists with the same union and no redundant member."""
    n = len(masks)
    total = 0
    for m in masks:
        total |= m
    best = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            u = 0
            for i in combo:
                u |= masks[i]
            if u != total:
                continue
            redundant = False
            for i in combo:
                rest = 0
                for j in combo:
                    if j != i:
                        rest |= masks[j]
                if masks[i] & ~rest == 0:
                    redundant = True
                    break
            if not redundant:
                best.append(list(combo))
        if best:
            return best
    return best


def place_points_joint(cell_probs, regions, n_points):
    """Joint pmf of region counts for n iid points over cells (enumeration).

    ``regions`` are disjoint cell sets; the returned dict maps count tuples
    to probabilities, enumerating all len(cell_probs)^n placements.
    """
    cells = range(len(cell_probs))
    out = {}
    for placement in itertools.product(cells, repeat=n_points):
        p = 1.0
        for c in placement:
            p *= cell_probs[c]
        counts = tuple(sum(1 for c in placement if c in reg) for reg in regions)
        out[counts] = out.get(counts, 0.0) + p
    return out


def ref_exact_fdd(spec) -> dict:
    """Increment law by dict chaining: one kernel pmf lookup per table row."""
    if hasattr(spec, "components"):
        table = {}
        for w, comp in zip(spec.weights, spec.components):
            for k, v in ref_exact_fdd(comp).items():
                table[k] = table.get(k, 0.0) + w * v
        return table
    ordering = spec.ordering
    table = {(s,): float(p) for s, p in spec.initial_pmf().items()}
    for i in range(1, len(ordering)):
        prev, cur = ordering.prefix_set(i - 1), ordering.prefix_set(i)
        new = {}
        for key, p in table.items():
            for inc, q in spec.kernel.increment_pmf(prev, cur, sum(key)).items():
                nk = key + (inc,)
                new[nk] = new.get(nk, 0.0) + p * q
        table = new
    return table


def ref_permuted(table, perm) -> dict:
    return {tuple(k[p] for p in perm): v for k, v in table.items()}


def ref_marginal(table, indices) -> dict:
    out = {}
    for k, v in table.items():
        kk = tuple(k[i] for i in indices)
        out[kk] = out.get(kk, 0.0) + v
    return out


def ref_pushforward_sums(table, groups) -> dict:
    out = {}
    for k, v in table.items():
        kk = tuple(sum(k[i] for i in g) if g else 0 for g in groups)
        out[kk] = out.get(kk, 0.0) + v
    return out


def ref_tv(a, b) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def ref_conditional_independence_defect(table, target, history, present, min_prob):
    """(defect, skipped, events) with target/history/present as lists of
    index groups, each observed through its group sums."""
    def observe(groups, key):
        return tuple(sum(key[i] for i in g) for g in groups)

    hist, pres = {}, {}
    for key, p in table.items():
        t, h, g = observe(target, key), observe(history, key), observe(present, key)
        hist.setdefault(h, [0.0, {}, g])
        hist[h][0] += p
        hist[h][1][t] = hist[h][1].get(t, 0.0) + p
        pres.setdefault(g, [0.0, {}])
        pres[g][0] += p
        pres[g][1][t] = pres[g][1].get(t, 0.0) + p
    defect, skipped = 0.0, 0
    for ph, tab, g in hist.values():
        if ph < min_prob:
            skipped += 1
            continue
        pg, gtab = pres[g]
        defect = max(defect, ref_tv({t: v / ph for t, v in tab.items()},
                                    {t: v / pg for t, v in gtab.items()}))
    return defect, skipped, len(hist)


def _chain_distribution(mats, x_idx, tol=1e-16):
    """All state tuples of a matrix chain started at x_idx, with weights;
    paths whose weight magnitude falls below ``tol`` are dropped."""
    paths = [(1.0, (x_idx,))]
    for M in mats:
        new = []
        for p, ys in paths:
            row = M[ys[-1]]
            for j in np.nonzero(row)[0]:
                w = p * float(row[j])
                if abs(w) >= tol:
                    new.append((w, ys + (int(j),)))
        paths = new
    return paths


def ref_permutation_identity_check(spec, ord1, ord2, level, starts, nodes=32):
    """(exact defect, generator residual) of the permutation identities by
    path enumeration from the given start states, against the indicators of
    all states plus the state function."""
    pos2 = {s.mask: j for j, s in enumerate(ord2.sets)}
    tilde = [pos2[s.mask] for s in ord1.sets]

    def pi(i):
        return tilde[i - 1] + 1

    f_sys = system_along_flow(spec.kernel, flow_from_ordering(ord1))
    g_sys = system_along_flow(spec.kernel, flow_from_ordering(ord2))

    def Tg(i, j):
        if i == j:
            return np.eye(len(g_sys.states))
        return g_sys.matrix(float(i - 1), float(j - 1))

    states = np.asarray(f_sys.states)
    dim = len(states)
    eye = np.eye(dim)
    h_basis = [eye[k] for k in range(dim)] + [states.astype(float)]

    def gen_int(system, slot):
        a, b = float(slot - 2), float(slot - 1)
        xs, ws = gauss_segment(a, b, nodes)
        acc = np.zeros((dim, dim))
        for v, w in zip(xs, ws):
            acc += w * (system.generator_matrix(v) @ system.matrix(v, b))
        return acc

    exact = 0.0
    residual = 0.0
    if level == 2:
        a, b = pi(2) - 1, pi(2)
        T_f = f_sys.matrix(0.0, 1.0)
        Phi_f = gen_int(f_sys, 2)
        R_g = gen_int(g_sys, b)
        chain_T = [Tg(1, a), Tg(a, b)]
        chain_R = [Tg(1, a), R_g]
        for x in starts:
            paths_T = _chain_distribution(chain_T, x)
            paths_R = _chain_distribution(chain_R, x)
            for h in h_basis:
                lhs = float(T_f[x] @ h)
                rhs = sum(p * h[x + ys[2] - ys[1]] for p, ys in paths_T)
                exact = max(exact, abs(lhs - rhs))
                lhs_g = float(Phi_f[x] @ h)
                rhs_g = sum(p * h[x + ys[2] - ys[1]] for p, ys in paths_R)
                residual = max(residual, abs(lhs_g - rhs_g))
        return exact, residual

    p2a, p2b = pi(2) - 1, pi(2)
    p3a, p3b = pi(3) - 1, pi(3)
    times = sorted(set([p2a, p2b, p3a, p3b]))
    idx_of = {t: i + 1 for i, t in enumerate(times)}
    chain = [Tg(1, times[0])] + [Tg(u, v) for u, v in zip(times, times[1:])]
    arrive_step = idx_of[p3b] - 1
    chain_R = list(chain)
    chain_R[arrive_step] = gen_int(g_sys, p3b)
    last_is_insertion = p3b == max(times)
    T_f23 = f_sys.matrix(1.0, 2.0)
    Phi_f3 = gen_int(f_sys, 3)
    chain_2 = [Tg(1, p2a), Tg(p2a, p2b)]
    pairs = [(h2, h3) for h2 in h_basis for h3 in h_basis]
    for x in starts:
        paths2 = _chain_distribution(chain_2, x)
        paths4 = _chain_distribution(chain, x)
        paths4R = _chain_distribution(chain_R, x)

        def deltas(ys):
            y = {1: x}
            for t, i in idx_of.items():
                y[t] = ys[i]
            return y[p2b] - y[p2a], y[p3b] - y[p3a]

        for h2, h3 in pairs:
            lhs = sum(p * h2[ys[2] - ys[1]] * float(T_f23[x + ys[2] - ys[1]] @ h3)
                      for p, ys in paths2)
            rhs = 0.0
            for p, ys in paths4:
                d2, d3 = deltas(ys)
                rhs += p * h2[d2] * h3[x + d2 + d3]
            exact = max(exact, abs(lhs - rhs))
            lhs_g = sum(p * h2[ys[2] - ys[1]] * float(Phi_f3[x + ys[2] - ys[1]] @ h3)
                        for p, ys in paths2)
            rhs_g = 0.0
            for p, ys in paths4R:
                d2, d3 = deltas(ys)
                tail = h3[x + d2 + d3]
                if not last_is_insertion:
                    tail -= h3[x + d2]
                rhs_g += p * h2[d2] * tail
            residual = max(residual, abs(lhs_g - rhs_g))
    return exact, residual


def ref_generator_matching_defect(kernel, flow1, span1, flow2, span2):
    """``generator_matching_defect`` one state indicator at a time: the
    worst gap between the two flows' generator integrals over the
    indicators of every state, the probe states among them.  Each matrix is
    built once and reused across the indicators."""
    sys1 = system_along_flow(kernel, flow1)
    sys2 = system_along_flow(kernel, flow2)
    for system in (sys1, sys2):
        system.matrix = functools.lru_cache(maxsize=None)(system.matrix)
        system.generator_matrix = functools.lru_cache(maxsize=None)(system.generator_matrix)
    worst = 0.0
    for x in sys1.states:
        h = np.zeros(len(sys1.states))
        h[x] = 1.0
        v1 = generator_integral(sys1, flow1.times[span1[0]], flow1.times[span1[1]], h,
                                knot_compose=True)
        v2 = generator_integral(sys2, flow2.times[span2[0]], flow2.times[span2[1]], h,
                                knot_compose=True)
        worst = max(worst, float(np.max(np.abs(v1 - v2))))
    return worst


def ref_gaussian_apply(system, s, t, h):
    """``GaussianFlowSemigroup.apply`` as a scalar function: one call of
    ``h`` per Hermite node."""
    var = max(system.trace(t) - system.trace(s), 0.0)
    if var == 0.0:
        return h
    sd = math.sqrt(var)
    z, w = hermite()
    return lambda x: float(np.dot(w, [h(x + sd * zz) for zz in z]))


def ref_gaussian_apply_generator(system, s, h, side="+"):
    """``GaussianFlowSemigroup.apply_generator`` as a scalar function."""
    slope = system.trace.slope(s, side)
    d = GAUSS_STENCIL
    return lambda x: 0.5 * slope * (h(x + d) - 2.0 * h(x) + h(x - d)) / (d * d)


def ref_dirichlet_apply(system, s, t, h):
    """``DirichletFlowSemigroup.apply`` as a scalar function: one call of
    ``h`` per Jacobi node."""
    a = max(system.trace(t) - system.trace(s), 0.0)
    c = system.alpha_total - system.trace(t)
    if a == 0.0:
        return h
    if c <= 0.0:
        return lambda x: h(1.0)
    y, w = jacobi01(JACOBI_ORDER, a, c)
    return lambda x: float(np.dot(w, [h(x + (1.0 - x) * yy) for yy in y]))


def ref_dirichlet_apply_generator(system, s, h, side="+"):
    """``DirichletFlowSemigroup.apply_generator`` as a scalar function."""
    rate = system.trace.slope(s, side)
    u, w = jacobi01_raw(JACOBI_ORDER, system.alpha_total - system.trace(s))

    def out(x):
        scale, hx = 1.0 - x, h(x)
        return rate * float(np.dot(w, [(h(x + scale * uu) - hx) / uu for uu in u]))

    return out


def pointwise(f, x):
    """A scalar function evaluated at every entry of the array ``x``."""
    return np.array([f(float(v)) for v in np.ravel(x)]).reshape(np.shape(x))


def ref_sample_csv(config_path, n, seed, path):
    """``setmarkov sample --workers 1``, one row at a time: every value goes
    through ``kernel.display``, ``float`` and ``repr``, and a derived set's
    value is Python's ``sum`` of its increments."""
    cfg = load_config(config_path)
    spec = cfg.spec
    derived = cfg.derived_sets
    arr = sample_increments(spec, seed, n)
    kernel = spec.kernel
    groups = [decompose_over_lefts(spec.lefts, mask) for _, mask in derived]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"C{i}" for i in range(arr.shape[1])] + [n for n, _ in derived])
        for row in arr:
            vals = [repr(float(kernel.display(v))) for v in row]
            for g in groups:
                vals.append(repr(float(kernel.display(sum(row[i] for i in g)))))
            w.writerow(vals)


def ref_fdd_csv(config_path, path):
    """``setmarkov fdd`` from the sorted dict view of the law, one row at a time."""
    spec = load_config(config_path).spec
    law = exact_fdd(spec)
    kernel = spec.kernel
    table = law.table
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(list(law.labels) + ["probability"])
        for key in sorted(table):
            w.writerow([repr(float(kernel.display(v))) for v in key]
                       + [repr(float(table[key]))])
