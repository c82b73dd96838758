"""Executable consistency and Markov-property checks.

Every check reduces a claim about the process to a total-variation defect
computed exactly (finite-state kernels: from the process's own joint table,
whose columns sum to the value at any member union, or for ordering
invariance from the two-step laws of each swap edge) or to a probability
gap with its Monte Carlo standard error (``kernels.Defect``; continuous
kernels, fixed seeds).  A zero defect (up to float rounding) means the
claim holds on that instance; the deliberately corrupted kernel and the
initial-draw mixture process exist to show the defects are not vacuously
small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import construction
from .construction import (
    JointLaw,
    MixtureSpec,
    chain_table,
    decompose_over_lefts,
    exact_fdd,
    group_rows,
    rank_codes,
    sample_increments,
)
from .errors import ConfigError, TableSizeError, UnsupportedKernelError
from .kernels import Defect, chain_law, chains_tv, shared_columns
from .lattice import (
    ConsistentOrdering,
    DiscreteFlow,
    IndexedSet,
    embed_chain,
    left_neighbourhoods,
)

MIN_CONDITION_PROB = 1e-12


@dataclass
class ConditionalCheck:
    """Max conditional TV defect, with the count of skipped tiny events."""

    defect: float
    skipped: int
    events: int


def conditional_independence_defect(law, target, history, present) -> ConditionalCheck:
    """TV distance between law(target | history) and law(target | present),
    maximized over history outcomes of probability >= ``MIN_CONDITION_PROB``.

    ``target``, ``history`` and ``present`` are lists of column-index groups
    of ``law``; each observes the vector of its group sums.  The present is
    a function of the history, and each history takes the present of its
    first row.  Group sums are sums of grid indices, exact, so equal values
    reached in different orders merge.
    """
    p = law.probs
    t, _ = group_rows(law.group_sums(target))
    h, h_first = group_rows(law.group_sums(history))
    g, _ = group_rows(law.group_sums(present)[h_first])
    g = g[h]
    nt = int(t.max()) + 1
    ph = np.bincount(h, weights=p)
    pg = np.bincount(g, weights=p)
    ht, ht_mass = _joint_masses(h, t, nt, p)
    gt, gt_mass = _joint_masses(g, t, nt, p)
    keep = np.flatnonzero(ph >= MIN_CONDITION_PROB)
    skipped = len(ph) - len(keep)
    if not keep.size:
        return ConditionalCheck(0.0, skipped, len(ph))
    # compare on every target seen with the present g(h) of each kept history
    # h: a superset of the targets seen with h
    gh = g[h_first[keep]]
    lo = np.searchsorted(gt, gh * nt)
    counts = np.searchsorted(gt, (gh + 1) * nt) - lo
    pair = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    hk = np.repeat(keep, counts)
    code = hk * nt + gt[pair] % nt
    at = np.searchsorted(ht, code).clip(max=len(ht) - 1)
    cond_h = np.where(ht[at] == code, ht_mass[at] / ph[hk], 0.0)
    cond_g = gt_mass[pair] / pg[np.repeat(gh, counts)]
    tv = 0.5 * np.bincount(np.repeat(np.arange(len(keep)), counts),
                           weights=np.abs(cond_h - cond_g))
    return ConditionalCheck(float(tv.max()), skipped, len(ph))


def _joint_masses(a: np.ndarray, t: np.ndarray, nt: int, p: np.ndarray):
    """Sorted distinct codes a * nt + t and the probability of each."""
    codes, inverse = rank_codes(a * nt + t, (int(a.max()) + 1) * nt)
    return codes, np.bincount(inverse, weights=p)


def canonical_variable_order(ordering: ConsistentOrdering) -> tuple[int, ...]:
    """Column permutation putting the ordering's left neighbourhoods into the
    ordering-independent (popcount, mask) order."""
    lefts = left_neighbourhoods(ordering)
    idx = sorted(range(len(lefts.sets)),
                 key=lambda i: (lefts.sets[i].size, lefts.sets[i].mask))
    return tuple(idx)


def aligned_increment_samples(spec, ordering, seed: int, count: int) -> np.ndarray:
    """Sampled increments with columns in the canonical variable order.

    Each slot is drawn from the stream of its canonical rank and written at
    that column (``sample_increments``'s ``step_keys``), so the sample comes
    out in canonical order as it is drawn, and two orderings of the same
    lattice reuse the same uniforms variable by variable; under an
    ordering-invariant law the sampled vectors then nearly coincide and the
    Monte Carlo comparison loses almost no power to noise.
    """
    canon = canonical_variable_order(ordering)
    rank = {col: r for r, col in enumerate(canon)}
    keys = [rank[i] for i in range(len(ordering))]
    return sample_increments(spec.with_ordering(ordering), seed, count, step_keys=keys)


def mc_event_probabilities(aligned: np.ndarray, medians: np.ndarray,
                           quartiles: np.ndarray) -> np.ndarray:
    """Probabilities of the probe events: every nonempty AND-combination of
    per-variable median half-lines, in the order of its bit mask (bit j for
    variable j), plus per-variable quartile half-lines.

    Each row gets one code, bit j set when variable j is at or below its
    median; one ``bincount`` over the 2^d codes and a sum over supersets
    give the count of every AND-combination.  Each probability is count /
    n, the value a boolean ``mean`` gives, bit for bit."""
    count, d = aligned.shape
    code = (aligned <= medians) @ (1 << np.arange(d))
    hits = np.bincount(code, minlength=1 << d)
    for j in range(d):
        # every code without bit j also counts the rows of the code with it
        pairs = hits.reshape(-1, 2, 1 << j)
        pairs[:, 0] += pairs[:, 1]
    quartile_hits = [np.count_nonzero(aligned[:, j] <= q)
                     for j in range(d) for q in quartiles[:, j]]
    return np.concatenate([hits[1:], quartile_hits]) / count


def mc_probe_thresholds(aligned: np.ndarray):
    q = np.quantile(aligned, [0.25, 0.5, 0.75], axis=0)
    return q[1], q[[0, 2]]


def probability_gap(p1: np.ndarray, p2: np.ndarray, count: int) -> Defect:
    gaps = np.abs(p1 - p2)
    pbar = np.clip((p1 + p2) / 2.0, 0.0, 1.0)
    se = np.sqrt(np.maximum(pbar * (1 - pbar), 1e-12) * (2.0 / count))
    i = int(np.argmax(gaps / se))
    return Defect(float(gaps[i]), float(se[i]))


def swap_edges(orderings) -> list[tuple[ConsistentOrdering, int]]:
    """The swap edges of the listed orderings: one (o, k) for each pair of
    them that differ only by the exchange of slots k and k + 1, o the pair's
    lexicographically first.  A repeated ordering counts once.

    The consistent orderings are the linear extensions of inclusion on the
    members, and any two are joined by a path of such swaps (Pruesse &
    Ruskey 1991).  A list whose edges do not join all of its orderings,
    such as two orderings two swaps apart, raises ``ConfigError``.  The
    first orderings of ``lattice.enumerate_consistent_orderings`` are always
    joined: members are indexed by size first, so each later ordering has a
    descent, whose swap gives an earlier one.
    """
    listed = {o.positions: o for o in orderings}
    edges, linked = [], {pos: [] for pos in listed}
    for pos, o in listed.items():
        for k in range(1, len(pos) - 1):
            other = pos[:k] + (pos[k + 1], pos[k]) + pos[k + 2:]
            if other > pos and other in listed:
                edges.append((o, k))
                linked[pos].append(other)
                linked[other].append(pos)
    todo = list(listed)[:1]
    reached = set(todo)
    while todo:
        for pos in linked[todo.pop()]:
            if pos not in reached:
                reached.add(pos)
                todo.append(pos)
    if len(reached) < len(listed):
        raise ConfigError(f"the {len(edges)} swap edges of the {len(listed)} listed "
                          "orderings do not join them all: list the orderings between")
    return edges


def swap_edge_tv(spec, ordering: ConsistentOrdering, k: int) -> float:
    """Exact TV distance between the increment laws of ``ordering`` and of
    the ordering that exchanges its slots k and k + 1, with no joint table.

    The two orderings share every chain step but the exchanged two, and
    left neighbourhoods do not depend on the ordering, so the distance is
    that between the laws of (x, increment over the set at slot k,
    increment over the set at slot k + 1), x the running value before slot
    k, with the two steps taken in each order: the sum over x of
    pi(x) TV(K(x), K'(x)).  pi is the law of x along the ordering's first
    k slots (``kernels.chain_law``); each order's law is a three-column
    ``construction.chain_table`` from pi.  A mixture is not Markov in the
    running value: its state is (component, running value), which gives the
    weighted sum of the components' distances, an upper bound on the
    mixture's that is 0 exactly when every component's is.
    """
    if isinstance(spec, MixtureSpec):
        return sum(w * swap_edge_tv(c, ordering, k)
                   for c, w in zip(spec.components, spec.weights))
    kernel = spec.kernel
    prefix = [ordering.prefix_set(i) for i in range(k)]
    start = chain_law(kernel, prefix, spec.initial_pmf())
    before = prefix[-1]
    a, b = ordering.sets[k], ordering.sets[k + 1]
    laws = []
    for first, second in ((a, b), (b, a)):
        stages = (before, before | first, before | first | second)
        columns, probs = chain_table(kernel, stages, start)
        laws.append(JointLaw(("x", "first", "second"), None, np.array(columns).T, probs,
                             kernel.value_step))
    # the exchanged order steps over b first: its columns go back to (x, a, b)
    return laws[0].tv(laws[1].permuted((0, 2, 1)))


def ordering_invariance_defect(spec, orderings: list[ConsistentOrdering],
                               mc: tuple[int, int] | None = None):
    """Invariance of the increment joint law under the choice of consistent
    ordering.

    Finite-state kernels: the largest exact TV distance over the swap edges
    of ``orderings`` (``swap_edges``, ``swap_edge_tv``).  The edges join
    every listed ordering to every other, so all of them give one law
    exactly when every edge reads 0, and two orderings further apart differ
    by at most the sum along a path of edges.  Otherwise Monte Carlo with
    mc=(seed, count), worst over every pair of ``orderings``: each
    ordering's samples take the variables in ``canonical_variable_order``,
    which left neighbourhoods make the same variables for every ordering
    (``lattice.ordering_free_left_neighbourhood``).  The probe events take
    their thresholds from the first ordering's samples, and the result is
    the ``probability_gap`` of the pair with the most standard errors.  Every
    ordering reads one uniform stream per variable
    (``aligned_increment_samples``), so each stream and each distinct
    quantile column is computed once and shared across orderings
    (``kernels.shared_columns``, or the scope a caller already opened).

    The orderings are sampled one at a time, and each sample is reduced to
    its event probabilities before the next is drawn: the check holds one
    ordering's sample besides the shared columns, whatever the number of
    orderings.  With d members, each ordering keeps 2^d - 1 + 2d event
    probabilities (``mc_event_probabilities``); past
    ``construction.TABLE_CAP`` of them over all orderings it raises
    ``TableSizeError`` before sampling, with the count.
    """
    lattice = orderings[0].lattice
    if any(o.lattice is not lattice and o.lattice.members != lattice.members
           for o in orderings):
        raise ConfigError("orderings do not order the same lattice")
    if spec.kernel.finite_state and mc is None:
        return max((swap_edge_tv(spec, o, k) for o, k in swap_edges(orderings)),
                   default=0.0)
    if mc is None:
        raise UnsupportedKernelError(
            f"{spec.kernel.kind} kernel needs mc=(seed, count) for this check"
        )
    d = len(orderings[0])
    events = len(orderings) * ((1 << d) - 1 + 2 * d)
    if events > construction.TABLE_CAP:
        raise TableSizeError(f"the Monte Carlo ordering row needs {events} event "
                             f"probabilities, more than {construction.TABLE_CAP}")
    seed, count = mc
    with shared_columns():
        first = aligned_increment_samples(spec, orderings[0], seed, count)
        medians, quartiles = mc_probe_thresholds(first)
        probs = [mc_event_probabilities(first, medians, quartiles)]
        del first
        for o in orderings[1:]:
            probs.append(mc_event_probabilities(
                aligned_increment_samples(spec, o, seed, count), medians, quartiles))
    pairs = [(i, j) for i in range(len(orderings)) for j in range(i + 1, len(orderings))]
    return max((probability_gap(probs[i], probs[j], count) for i, j in pairs),
               key=lambda gap: gap.sigmas, default=Defect(0.0, 0.0))


def _prefix_mask(spec, B) -> int:
    """B's mask, once B is known to be a prefix union of the spec's ordering."""
    mask = getattr(B, "mask", B)
    if mask not in spec.ordering.prefix_masks:
        raise ConfigError("B is not a prefix union of the spec's ordering")
    return mask


def set_markov_defect(spec, A: IndexedSet, B, partition,
                      law: JointLaw | None = None) -> ConditionalCheck:
    """Conditional independence of the increment over A minus B from the
    history of B (observed through the given partition) given the value at B.

    B must be a prefix union of the spec's ordering; the partition lists the
    unions of left neighbourhoods inside B whose values generate the history.
    Target, history and present are sums of columns of the spec's own table
    ``law`` (``exact_fdd(spec)`` when not given): every member union is a
    union of the spec's left neighbourhoods.
    """
    b_mask = _prefix_mask(spec, B)
    if law is None:
        law = exact_fdd(spec)
    lefts = spec.lefts
    target_idx = decompose_over_lefts(lefts, A.mask & ~b_mask)
    part_idx = [decompose_over_lefts(lefts, p) for p in partition]
    b_idx = decompose_over_lefts(lefts, b_mask)
    return conditional_independence_defect(law, [target_idx], part_idx, [b_idx])


def increment_vector_independence_defect(spec, B, a_list,
                                         law: JointLaw | None = None) -> ConditionalCheck:
    """Joint version: the vector of increments over A_i minus B is
    conditionally independent of all of B's increment history given the
    value at B (read from ``law`` as in ``set_markov_defect``)."""
    b_mask = _prefix_mask(spec, B)
    if law is None:
        law = exact_fdd(spec)
    lefts = spec.lefts
    target_groups = [decompose_over_lefts(lefts, a.mask & ~b_mask) for a in a_list]
    hist_idx = decompose_over_lefts(lefts, b_mask)
    return conditional_independence_defect(law, target_groups, [[i] for i in hist_idx],
                                           [hist_idx])


def flow_markov_defect(spec, flow: DiscreteFlow,
                       law: JointLaw | None = None) -> ConditionalCheck:
    """Classical Markov property of the process transported along the flow:
    at every knot, the next stage value depends on the past stages only
    through the current one.  Each stage must be a union of members
    (``embed_chain`` checks it), and its value is a sum of columns of the
    spec's own table ``law`` (``exact_fdd(spec)`` when not given).

    Only the one-step pairs (s, s + 1) are checked, and the defect is the
    largest of theirs.  The stage values Y_0, ..., Y_K form a Markov chain
    exactly when law(Y_{s+1} | Y_0..Y_s) = law(Y_{s+1} | Y_s) for every s:
    by the tower property, law(Y_t | Y_0..Y_s) is then the composition of
    the one-step laws from Y_s, a function of Y_s alone.  With d_r the
    defect of the pair (r, r + 1), replacing the true step at each knot
    r = s, ..., t - 1 by the one-step law given Y_r moves the law of Y_t
    given Y_0..Y_s by at most d_r, so the defect of any pair s < t is at
    most 2 (d_s + ... + d_{t-1}), up to the conditional mass of histories
    below ``MIN_CONDITION_PROB``: the largest defect over all pairs is at
    most 2K times this one, and 0 exactly when this one is.
    """
    embed_chain(flow.stages, spec.lattice)
    if law is None:
        law = exact_fdd(spec)
    stage, columns = [], []
    for s in flow.stages:
        # the previous stage's columns first: a stage's float sum is then the
        # previous stage's value plus the new increments, a function of the
        # present and the increments alone, whatever the float rounding
        columns = columns + [i for i in decompose_over_lefts(spec.lefts, s)
                             if i not in columns]
        stage.append(columns)
    defect, skipped, events = 0.0, 0, 0
    for t in range(1, len(stage)):
        c = conditional_independence_defect(law, [stage[t]], stage[:t], [stage[t - 1]])
        defect = max(defect, c.defect)
        skipped += c.skipped
        events += c.events
    return ConditionalCheck(defect, skipped, events)


def flow_matching_defect(kernel, flow1: DiscreteFlow, span1, flow2: DiscreteFlow, span2,
                         states) -> float:
    """Two flows passing through the same pair of sets must transport a state
    identically: TV distance between the two knot-chain compositions,
    maximized over the probe states (internal states).  Finite-state
    kernels; the chains compare as in ``ck_defect`` (``kernels.chains_tv``)."""
    i1, j1 = span1
    i2, j2 = span2
    if flow1.stages[i1].mask != flow2.stages[i2].mask or \
            flow1.stages[j1].mask != flow2.stages[j2].mask:
        raise ConfigError("flow spans do not share endpoint sets")
    if not kernel.finite_state:
        raise UnsupportedKernelError("flow matching check needs a finite-state kernel")
    return chains_tv(kernel, flow1.stages[i1: j1 + 1], flow2.stages[i2: j2 + 1], states)
