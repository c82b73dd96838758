"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own algorithms: the ordering oracle
filters raw permutations, the closure oracle iterates pairwise intersections
to a fixed point on raw masks, and the chain-embedding oracle searches all
consistent orderings exhaustively.  The ``ref_*`` functions compute the
exact-law operations with one dict entry per outcome, accumulated row by
row: the reference for the array engine in ``construction`` and ``verify``.
``ref_align_variables`` matches the left neighbourhoods of two orderings
by mask: the reference alignment of two orderings' dict tables, against
which ``verify.ordering_invariance_defect`` is checked.
``ref_sub_lattice_set_markov_defect`` and
``ref_sub_lattice_increment_independence_defect`` read the set-Markov rows
from the exact table of an intersection closure of B's generators and the
target sets, and ``ref_all_pairs_flow_markov_defect`` reads every knot pair
of a flow from the table of the ordering that embeds it: the references for
the Markov rows of ``verify``, which read the spec's own table (and, along a
flow, only the one-step pairs).
``ref_permutation_identity_check`` enumerates matrix-chain paths one by one:
the reference for the matrix algebra of ``generators.permutation_identity_check``.
``ref_generator_matching_defect`` takes one state indicator per generator
integral: the reference for the identity-basis call of
``generators.generator_matching_defect``.
``ref_gaussian_apply``, ``ref_dirichlet_apply`` and their ``_generator``
partners evaluate the quadrature operators one point and one node at a
time: the reference for the array path of the gaussian and dirichlet flow
semigroups.
``ref_mc_ordering_invariance`` samples every ordering on its own, with no
quantile column shared between orderings, and holds every ordering's sample
until the last pair is compared: the reference for the shared columns of
the Monte Carlo ``verify.ordering_invariance_defect`` and for its one
sample at a time.
``ref_mc_probe_thresholds`` takes the medians and the quartiles from two
``np.quantile`` calls: the reference for the one call of
``verify.mc_probe_thresholds``.
``ref_mc_event_probabilities`` takes one boolean ``mean`` per probe event:
the reference for the ``bincount`` and superset sums of
``verify.mc_event_probabilities``.
``ref_chain_pmf`` chains the kernel's step pmfs (``ref_step_pmf``, from
the dict tables of ``ref_increment_pmf``) one state at a time through
dicts, and ``ref_ck_defect`` and ``ref_flow_matching_defect`` compare such
chains state by state: the reference for the dense rows of
``kernels.chain_rows``.  No reference here rebuilds a compound poisson
table: ``distributions.compound_poisson_dict`` runs Panjer's recursion, and
``tests/test_step_laws.py`` holds it against ``oracle_column`` of
``tests/test_oracles.py``, a direct convolution of the jump law's powers.
``ref_jump_matrix`` and ``ref_jump_generator_matrix`` fill a jump semigroup
matrix one atom at a time: the reference for the scattered band of
``generators.JumpFlowSemigroup``.
``ref_sample_csv`` and ``ref_fdd_csv`` write the ``sample`` and ``fdd`` CSVs
row by row through ``csv.writer``: the reference for the block writer of
``cli``.
``ref_panjer`` and ``ref_compound_poisson_dict`` are the compound poisson
tables as dict pmfs keyed by ``canonical_value``, Panjer's recursion walking
a heap of pending values: the reference, bit for bit, for the grid vectors
of ``distributions.compound_poisson_dict``.  ``ref_increment_pmf`` and
``ref_initial_pmf`` give a kernel's dict pmfs as those tables and
``binomial_pmf`` give them: the reference for the kernels' grid laws.
``ref_empirical_matrix`` and ``ref_empirical_generator_matrix`` build an
empirical semigroup matrix at one time from Python floats, entry by entry:
with ``ref_jump_matrix`` and its generator partner, the reference for the
stacked ``matrices`` and ``generator_matrices`` of the matrix semigroups.
``ref_generator_integral`` and ``ref_leg_generator_integral`` take one Gauss
node at a time through ``apply`` and ``matrix``: the reference for the node
stacks of ``generators.generator_integral`` and
``generators.leg_generator_integral``.
``ref_binom_ppf`` and ``ref_poisson_ppf`` are scipy's quantile functions,
the samplers the empirical and poisson kernels used before they inverted
their own pmf tables: the reference for ``kernels.TransitionKernel``'s
default ``initial_ppf`` and ``increment_ppf``.
"""

import csv
import functools
import heapq
import itertools
import math

import numpy as np
from scipy import stats

from setmarkov.config import load_config
from setmarkov.distributions import (
    PMF_TAIL,
    PMF_TOTAL_TOL,
    binomial_pmf,
    canonical_value,
    poisson_tail_count,
)
from setmarkov.grid import measure_of
from setmarkov.construction import (
    FddSpec,
    MixtureSpec,
    decompose_over_lefts,
    exact_fdd,
    sample_increments,
)
from setmarkov.generators import (
    EMPTY_REST,
    GAUSS_NODES,
    GAUSS_STENCIL,
    JACOBI_ORDER,
    apply_through_knots,
    generator_integral,
    system_along_flow,
)
from setmarkov.lattice import close_under_intersection, embed_chain, flow_from_ordering
from setmarkov.kernels import Defect
from setmarkov.verify import (
    aligned_increment_samples,
    conditional_independence_defect,
    mc_event_probabilities,
    probability_gap,
)
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
    """Increment law by dict chaining: one dict pmf of the kernel's tables
    (``ref_increment_pmf``) per table row."""
    if hasattr(spec, "components"):
        table = {}
        for w, comp in zip(spec.weights, spec.components):
            for k, v in ref_exact_fdd(comp).items():
                table[k] = table.get(k, 0.0) + w * v
        return table
    ordering = spec.ordering
    initial = spec.initial if spec.initial is not None else \
        ref_initial_pmf(spec.kernel, spec.min_set)
    table = {(s,): float(p) for s, p in initial.items()}
    for i in range(1, len(ordering)):
        prev, cur = ordering.prefix_set(i - 1), ordering.prefix_set(i)
        new = {}
        for key, p in table.items():
            for inc, q in ref_increment_pmf(spec.kernel, prev, cur, sum(key)).items():
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
    """Block sums keyed by ``canonical_value``, as values on a grid add."""
    out = {}
    for k, v in table.items():
        kk = tuple(canonical_value(sum(k[i] for i in g)) if g else 0 for g in groups)
        out[kk] = out.get(kk, 0.0) + v
    return out


def ref_tv(a, b) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def ref_align_variables(lefts_a, lefts_b) -> tuple:
    """perm with lefts_b.sets[perm[i]] equal (as a set) to lefts_a.sets[i]:
    each set of ``lefts_a`` is matched by mask to the first unused set of
    ``lefts_b``.  The reference for bringing two orderings' laws to one
    variable order, as ``verify.canonical_variable_order`` does for the
    Monte Carlo route."""
    used = [False] * len(lefts_b.sets)
    perm = []
    for c in lefts_a.sets:
        j = next(j for j, d in enumerate(lefts_b.sets) if not used[j] and d.mask == c.mask)
        used[j] = True
        perm.append(j)
    return tuple(perm)


def ref_conditional_independence_defect(table, target, history, present, min_prob):
    """(defect, skipped, events) with target/history/present as lists of
    index groups, each observed through its group sums, keyed by
    ``canonical_value`` as values on a grid add."""
    def observe(groups, key):
        return tuple(canonical_value(sum(key[i] for i in g)) for g in groups)

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


def _ref_sub_spec(spec, generators):
    """The spec's kernel and initial law on the intersection closure of
    ``generators``, in that closure's default ordering."""
    lattice = close_under_intersection(generators)
    if isinstance(spec, MixtureSpec):
        return MixtureSpec(tuple(FddSpec(lattice, c.kernel, None, c.initial)
                                 for c in spec.components), spec.weights)
    return FddSpec(lattice, spec.kernel, None, spec.initial)


def _ref_closure_of_prefix(spec, B, sets):
    """The spec on the closure of B's generators (the members of the spec's
    ordering up to B) plus ``sets``, and that closure's left neighbourhoods
    inside B."""
    ordering = spec.ordering
    k = ordering.prefix_masks.index(B.mask)
    sub = _ref_sub_spec(spec, [g for g in ordering.sets[: k + 1] if g.mask] + list(sets))
    inside = [i for i, c in enumerate(sub.lefts.sets) if c.mask and c.mask & ~B.mask == 0]
    return sub, inside


def ref_sub_lattice_set_markov_defect(spec, A, B, partition) -> float:
    """``verify.set_markov_defect`` read from the exact table of the closure
    of B's generators and A instead of the spec's own table."""
    sub, _ = _ref_closure_of_prefix(spec, B, [A])
    law, lefts = exact_fdd(sub), sub.lefts
    target = decompose_over_lefts(lefts, A.mask & ~B.mask)
    history = [decompose_over_lefts(lefts, c) for c in partition]
    present = decompose_over_lefts(lefts, B)
    return conditional_independence_defect(law, [target], history, [present]).defect


def ref_sub_lattice_increment_independence_defect(spec, B, a_list) -> float:
    """``verify.increment_vector_independence_defect`` read from the exact
    table of the closure of B's generators and the sets of ``a_list``."""
    sub, inside = _ref_closure_of_prefix(spec, B, a_list)
    targets = [decompose_over_lefts(sub.lefts, a.mask & ~B.mask) for a in a_list]
    return conditional_independence_defect(exact_fdd(sub), targets,
                                           [[i] for i in inside], [inside]).defect


def ref_all_pairs_flow_markov_defect(spec, flow) -> float:
    """The flow's Markov defect over every knot pair s < t, read from the
    table of the ordering that realizes the stages as prefix unions."""
    ordering, prefixes = embed_chain(flow.stages, spec.lattice)
    law = exact_fdd(spec.with_ordering(ordering))
    stage = [list(range(k + 1)) for k in prefixes]
    return max((conditional_independence_defect(law, [stage[t]], stage[: s + 1],
                                                [stage[s]]).defect
                for t in range(len(stage)) for s in range(t)), default=0.0)


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


def ref_mc_ordering_invariance(spec, orderings, seed, count):
    """The Monte Carlo ordering-invariance defect, one ordering at a time:
    each is sampled outside any shared-quantile block, so it computes every
    quantile column itself; every sample is drawn before any is reduced to
    its event probabilities, then every pair is compared in turn."""
    aligned = [aligned_increment_samples(spec, o, seed, count) for o in orderings]
    medians, quartiles = ref_mc_probe_thresholds(aligned[0])
    probs = [mc_event_probabilities(a, medians, quartiles) for a in aligned]
    worst = None  # the first pair with the most sigmas
    for i in range(len(orderings)):
        for j in range(i + 1, len(orderings)):
            gap = probability_gap(probs[i], probs[j], count)
            if worst is None or gap.sigmas > worst.sigmas:
                worst = gap
    return worst or Defect(0.0, 0.0)


def ref_mc_probe_thresholds(aligned):
    """The per-variable medians, then the lower and upper quartiles, each
    from its own ``np.quantile`` call: the reference for the one call of
    ``verify.mc_probe_thresholds``."""
    medians = np.quantile(aligned, 0.5, axis=0)
    quartiles = np.quantile(aligned, [0.25, 0.75], axis=0)
    return medians, quartiles


def ref_mc_event_probabilities(aligned, medians, quartiles):
    """The probe-event probabilities one event at a time: each
    AND-combination of median half-lines by bit mask, then each quartile
    half-line, as the mean of a boolean column."""
    count, d = aligned.shape
    below = aligned <= medians
    probs = []
    for mask in range(1, 1 << d):
        sel = [j for j in range(d) if (mask >> j) & 1]
        probs.append(float(below[:, sel].all(axis=1).mean()))
    for j in range(d):
        for q in quartiles[:, j]:
            probs.append(float((aligned[:, j] <= q).mean()))
    return np.asarray(probs)


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


def ref_step_pmf(kernel, B, B2, state) -> dict:
    """``ref_increment_pmf`` shifted by the state, keyed by ``canonical_value``."""
    return {canonical_value(state + j): p
            for j, p in ref_increment_pmf(kernel, B, B2, state).items()}


def ref_chain_pmf(kernel, stages, state) -> dict:
    """Exact pmf of the internal state at stages[-1] after chaining the
    kernel through the consecutive stages from ``state``, one dict entry per
    reached state, accumulated in the order the step pmfs list them."""
    pmf = {state: 1.0}
    for a, b in zip(stages, stages[1:]):
        if a.mask == b.mask:
            continue
        out = {}
        for y, p in pmf.items():
            for z, q in ref_step_pmf(kernel, a, b, y).items():
                out[z] = out.get(z, 0.0) + p * q
        pmf = out
    return pmf


def ref_ck_defect(kernel, B, B1, B2, states) -> float:
    """Worst TV distance, state by state, between the dict chain B -> B1 -> B2
    and the direct step pmf (finite-state kinds, display states)."""
    worst = 0.0
    for x in states:
        y = kernel.to_state(x)
        worst = max(worst, ref_tv(ref_chain_pmf(kernel, (B, B1, B2), y),
                                  ref_step_pmf(kernel, B, B2, y)))
    return worst


def ref_flow_matching_defect(kernel, stages1, stages2, states) -> float:
    """Worst TV distance, state by state, between two dict chains."""
    return max((ref_tv(ref_chain_pmf(kernel, stages1, x), ref_chain_pmf(kernel, stages2, x))
                for x in states), default=0.0)


def _fill_band(M, offset, value):
    """Set M[i, i + offset] = value wherever that entry exists (offset >= 0)."""
    rows = np.arange(max(M.shape[0] - offset, 0))
    M[rows, rows + offset] = value


def ref_jump_matrix(system, s, t) -> np.ndarray:
    """A jump semigroup's transition matrix filled one step-law atom at a
    time, each atom along its whole band at its grid index."""
    size = system.cap + 1
    M = np.zeros((size, size))
    law = system.step_law(max(system.trace(t) - system.trace(s), 0.0))
    for v, p in law.items():
        _fill_band(M, int(round(v / law.step)), p)
    return M


def ref_jump_generator_matrix(system, s, side="+") -> np.ndarray:
    """A jump semigroup's generator matrix filled one jump at a time, each
    at its grid index."""
    rate = system.trace.slope(s, side)
    size = system.cap + 1
    G = np.zeros((size, size))
    _fill_band(G, 0, -rate)
    for j, p in zip(system.jumps, system.jump_probs):
        _fill_band(G, j, rate * p)
    return G


def _ref_empirical_success(system, s, t) -> float:
    gs = system.trace(s)
    gain = max(system.trace(t) - gs, 0.0)
    if system.corrupted:
        return min(gain, 1.0)
    rest = 1.0 - gs
    return 0.0 if rest <= EMPTY_REST else min(gain / rest, 1.0)


def ref_empirical_matrix(system, s, t) -> np.ndarray:
    """An empirical semigroup's transition matrix at one pair of times,
    entry by entry: comb(n - k, j) p^j q^(n-k-j) at (k, k + j)."""
    n = system.n
    p = _ref_empirical_success(system, s, t)
    q = 1.0 - p
    M = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for j in range(n - k + 1):
            M[k, k + j] = float(math.comb(n - k, j)) * p**j * q**(n - k - j)
    return M


def ref_empirical_generator_matrix(system, s, side="+") -> np.ndarray:
    """An empirical semigroup's generator matrix at one time: from state k
    up by one at rate (n - k) times the trace slope over the mass left."""
    n = system.n
    slope = system.trace.slope(s, side)
    rest = 1.0 if system.corrupted else 1.0 - system.trace(s)
    rate = 0.0 if slope == 0.0 else slope / rest
    G = np.zeros((n + 1, n + 1))
    for k in range(n):
        G[k, k] = -((n - k) * rate)
        G[k, k + 1] = (n - k) * rate
    return G


def ref_generator_integral(system, s, t, h, knot_compose=False):
    """``generators.generator_integral`` one Gauss node at a time, each
    through the semigroup's ``apply`` and ``apply_generator``."""
    pts = system.trace.breakpoints(s, t)
    acc = np.zeros_like(system.values(h))
    for a, b in zip(pts, pts[1:]):
        xs, ws = gauss_segment(a, b, GAUSS_NODES)
        end, rest = ((b, apply_through_knots(system, b, t, h)) if knot_compose and b < t
                     else (t, h))
        for v, w in zip(xs, ws):
            inner = system.apply(v, end, rest)
            acc = acc + w * system.values(system.apply_generator(v, inner))
    return acc


def ref_leg_generator_integral(system, a, b):
    """``generators.leg_generator_integral`` one Gauss node at a time, each
    through the semigroup's ``matrix`` and ``generator_matrix``."""
    xs, ws = gauss_segment(a, b, GAUSS_NODES)
    return sum(w * (system.generator_matrix(v) @ system.matrix(v, b))
               for v, w in zip(xs, ws))


def ref_binom_ppf(u, n, p):
    """scipy's binomial quantile at uniforms u; n may be an array."""
    return stats.binom.ppf(u, n, p)


def ref_poisson_ppf(u, mean):
    """scipy's poisson quantile at uniforms u; a zero mean draws 0."""
    return stats.poisson.ppf(u, mean) if mean > 0 else np.zeros_like(u)


def ref_panjer(rates: dict, mean: float, tail: float) -> dict:
    """Law of a Poisson(mean) number of iid positive jumps, jump v at rate
    ``rates[v]``, by Panjer's recursion over a heap of pending values: the
    least pending value is final.  It keeps the values that at most
    ``poisson_tail_count(mean, tail)`` jumps reach and cuts the left tail
    below mean - 12 sqrt(mean) jumps of the smallest size; f is held times
    2**e, and 2**512 is shed from every pending sum when f passes it."""
    most = poisson_tail_count(mean, tail)
    floor = max(int(mean - 12.0 * math.sqrt(mean)), 0) * min(rates)
    e = max(math.ceil((mean - 700.0) / math.log(2.0)), 0)
    ahead, pending, out = {0.0: [math.exp(e * math.log(2.0) - mean), 0]}, [0.0], {}
    while pending:
        x = heapq.heappop(pending)
        g, n = ahead.pop(x)
        if n > most:
            continue
        if (g := g / (x or 1.0)) > 2.0 ** 512:
            g, e = math.ldexp(g, -512), e - 512
            for t in ahead.values():
                t[0] = math.ldexp(t[0], -512)
        if x >= floor and (p := math.ldexp(g, -e)):
            out[x] = p
        for v, r in rates.items():
            if (t := ahead.get(y := canonical_value(x + v))) is None:
                ahead[y] = [v * r * g, n + 1]
                heapq.heappush(pending, y)
            else:
                t[0], t[1] = t[0] + v * r * g, min(t[1], n + 1)
    return out


def ref_poisson_dict(mean: float) -> dict:
    """The poisson count table as a dict {count: probability}."""
    if mean == 0:
        return {0: 1.0}
    k = np.arange(max(int(mean - 12.0 * math.sqrt(mean)), 0),
                  poisson_tail_count(mean, PMF_TAIL) + 1)
    return dict(zip(k.tolist(), stats.poisson.pmf(k, mean).tolist()))


def ref_compound_poisson_dict(lam: float, jump_values, jump_probs) -> dict:
    """The compound poisson table as a dict pmf keyed by ``canonical_value``:
    one jump size reads the poisson table at k v; otherwise one
    ``ref_panjer`` table per sign, signed back, and the two signs convolved
    pair by pair, the positive side outermost."""
    base = {canonical_value(v): float(p) for v, p in zip(jump_values, jump_probs)}
    assert abs(sum(base.values()) - 1.0) <= PMF_TOTAL_TOL
    nonzero = {v: p for v, p in base.items() if v and p > 0}
    if len(nonzero) == 1:
        ((v, p),) = nonzero.items()
        counts = ref_poisson_dict(lam if min(base) > 0 else lam * p)
        return {canonical_value(k * v) + 0.0: q for k, q in counts.items()}
    sides = [(sign, rates) for sign in (1.0, -1.0)
             if (rates := {sign * v: lam * p for v, p in nonzero.items() if sign * v > 0})]
    laws = [{sign * x + 0.0: p for x, p in ref_panjer(
                rates, lam if min(base) > 0 else math.fsum(rates.values()),
                PMF_TAIL / len(sides)).items()} for sign, rates in sides]
    if len(laws) < 2:
        return laws[0] if laws else {0.0: 1.0}
    out = {}
    for a, p in laws[0].items():
        for b, q in laws[1].items():
            out[canonical_value(a + b)] = out.get(canonical_value(a + b), 0.0) + p * q
    return out


def ref_increment_pmf(kernel, B, B2, state=0) -> dict:
    """A finite kernel's increment pmf from ``state`` as its tables give it:
    ``binomial_pmf`` of the points left (empirical), the compound table of
    the step's intensity (jump kinds)."""
    if B.mask == B2.mask:
        return {0: 1.0}
    if kernel.kind == "empirical":
        return binomial_pmf(kernel.n - int(state),
                            kernel.success_probability(B, B2)).as_dict()
    return ref_compound_poisson_dict(measure_of(kernel.lam, B2 - B),
                                     kernel.jump_values, kernel.jump_probs)


def ref_initial_pmf(kernel, min_set) -> dict:
    """A finite kernel's initial pmf as its tables give it."""
    if kernel.kind == "empirical":
        return binomial_pmf(kernel.n, measure_of(kernel.F, min_set)).as_dict()
    if kernel.initial == "zero":
        return {0.0: 1.0}
    return ref_compound_poisson_dict(measure_of(kernel.lam, min_set),
                                     kernel.jump_values, kernel.jump_probs)
