"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's own algorithms: the ordering oracle
filters raw permutations, the closure oracle iterates pairwise intersections
to a fixed point on raw masks, and the chain-embedding oracle searches all
consistent orderings exhaustively.  The ``ref_*`` functions compute the
exact-law operations with one dict entry per outcome, accumulated row by
row: the reference for the array engine in ``construction`` and ``verify``.
"""

import itertools


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
