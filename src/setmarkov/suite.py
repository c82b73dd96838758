"""The check suite behind the ``validate`` and ``gencheck`` subcommands.

Each check produces one report row {name, instance, defect, tolerance, pass};
the suite passes when every row does.  Exact checks use the ``exact``
tolerance, quadrature-backed ones ``quadrature`` (``dirichlet_quadrature``
where two quadratures stack), Monte Carlo ones ``mc_sigmas`` standard errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .construction import (
    MixtureSpec,
    algebra_values,
    decompose_over_lefts,
    exact_fdd,
    sample_increments,
)
from .distributions import BetaSegment, binomial_pmf, tv_distance
from .errors import ConfigError, TableSizeError
from .generators import (
    finite_difference_generator_errors,
    generator_matching_defect,
    identity_end,
    integral_identity_residual,
    ordering_slots,
    permutation_identity_check,
    system_along_flow,
)
from .grid import measure_of
from .kernels import ck_defect, in_pieces, shared_columns
from .lattice import ORDERING_CAP, DiscreteFlow, flow_from_ordering, leading_orderings
from .verify import (
    flow_matching_defect,
    flow_markov_defect,
    increment_vector_independence_defect,
    ordering_invariance_defect,
    set_markov_defect,
    swap_edges,
)

FD_EPS = (1e-2, 5e-3, 2.5e-3)
# flow time at which the finite differences read the generator
FD_TIME = 0.25
ORDER_BRACKET = (1.5, 3.0)
FD_ORDER_TOL = 1e-9


def _row(name, instance, defect, tolerance):
    return {
        "name": name,
        "instance": instance,
        "defect": float(defect),
        "tolerance": float(tolerance),
        "pass": bool(defect <= tolerance),
    }


def _orderings(cfg):
    """The first ``ordering_cap`` consistent orderings; their count, '16
    orderings' or '4 of 16 orderings' (or of 'more than ORDERING_CAP') when
    the cap cut some; and the instance suffix that reports a cut."""
    orders, total = leading_orderings(cfg.lattice, cfg.ordering_cap)
    if total == len(orders):
        return orders, f"{total} orderings", ""
    of = total if total <= ORDERING_CAP else f"more than {ORDERING_CAP}"
    counted = f"{len(orders)} of {of} orderings"
    return orders, counted, ", " + counted


def fd_order(errs) -> tuple[list[float] | None, float]:
    """Ratios of successive finite-difference residuals and how far the
    worst lies outside ``ORDER_BRACKET``: (None, 0.0) when every residual is
    below 1e-12 (exactly linear), a NaN defect when one is not finite."""
    errs = np.asarray(errs, dtype=float)
    if (errs < 1e-12).all():
        return None, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = errs[:-1] / errs[1:]
    lo, hi = ORDER_BRACKET
    gap = np.max([0.0, *(lo - ratios), *(ratios - hi)]) if np.isfinite(errs).all() else math.nan
    return ratios.tolist(), float(gap)


def _fd_skipped(system) -> str | None:
    """Why the finite differences cannot read the generator at ``FD_TIME``
    (None when they can): the stage there leaves no mass outside it."""
    if system.exhausted(FD_TIME):
        return (f"skipped: the stage at flow time {FD_TIME:g} leaves no mass "
                "outside it, so the generator is undefined there")
    return None


def _fd_order_row(system, h, name, instance):
    if (skipped := _fd_skipped(system)) is not None:
        return _row(name, f"{instance} {skipped}", 0.0, FD_ORDER_TOL)
    ratios, defect = fd_order(finite_difference_generator_errors(system, FD_TIME, FD_EPS, h))
    note = " (exactly linear)" if ratios is None else f" ratios={['%.3f' % r for r in ratios]}"
    return _row(name, instance + note, defect, FD_ORDER_TOL)


def _integral_identity(system, flow, h, halves: bool = False):
    """The integral identity's residual along the flow, read from 0 up to
    ``generators.identity_end`` (and, with ``halves``, up to half of it too),
    and the text that states a cut: (None, the reason) when no leg is left."""
    end = identity_end(system)
    if end == flow.times[0]:
        return None, ("skipped: the first stage of the canonical flow leaves no "
                      "mass outside it, so no leg is left")
    ends = (end / 2.0, end) if halves else (end,)
    resid = max(integral_identity_residual(system, 0.0, t, h) for t in ends)
    if end == flow.times[-1]:
        return resid, ""
    return resid, f" up to knot {end:g}, the last whose stage leaves mass outside it"


def _integral_identity_row(system, flow, h, tolerance, halves: bool = False):
    resid, note = _integral_identity(system, flow, h, halves)
    if resid is None:
        return _row("integral_identity", note, 0.0, tolerance)
    return _row("integral_identity", "canonical flow" + note, resid, tolerance)


def _finite_state_rows(cfg):
    rows = []
    spec = cfg.spec
    mixture = isinstance(spec, MixtureSpec)
    kernel = spec.kernel
    tol = cfg.tolerances
    orders, counted, cut = _orderings(cfg)
    states = kernel.probe_states()
    # first, so that a joint table past TABLE_CAP fails before the CK loop;
    # every row below that needs a joint table reads this one
    law = exact_fdd(spec)

    # composition law on every prefix triple of every ordering; the count
    # includes the degenerate triples, which are not computed
    worst = 0.0
    seen = set()
    for o in orders:
        masks = o.prefix_masks
        for i in range(len(masks)):
            for j in range(i, len(masks)):
                for k in range(j, len(masks)):
                    key = (masks[i], masks[j], masks[k])
                    if key in seen:
                        continue
                    seen.add(key)
                    if masks[i] == masks[j] or masks[j] == masks[k]:
                        # a leg that does not move leaves both chains the same
                        # chain (kernels._push_rows skips it): TV exactly 0.0
                        continue
                    r = ck_defect(kernel, o.prefix_set(i), o.prefix_set(j),
                                  o.prefix_set(k), states)
                    worst = max(worst, r.defect)
    rows.append(_row("chapman_kolmogorov",
                     f"{len(seen)} prefix triples, {counted}",
                     worst, tol["exact"]))

    # joint increment law invariant under the ordering, one swap edge at a time
    rows.append(_row("ordering_invariance",
                     f"{len(swap_edges(orders))} swap edges of {len(orders)} orderings{cut}",
                     ordering_invariance_defect(spec, orders), tol["exact"]))

    # exact marginals for the empirical process
    if kernel.kind == "empirical" and not mixture:
        worst = 0.0
        for m in cfg.lattice.members:
            got = law.pushforward_sums([decompose_over_lefts(spec.lefts, m)]).scalar_dict()
            want = binomial_pmf(kernel.n, measure_of(kernel.measure, m)).as_dict()
            worst = max(worst, tv_distance(got, want))
        rows.append(_row("marginal_law", "all members vs binomial", worst, tol["exact"]))

    # conditional-independence checks
    ordering = spec.ordering
    worst = 0.0
    instances = 0
    seen = set()
    for k in range(1, len(ordering) - 1):
        B = ordering.prefix_set(k)
        partition = [c for c in spec.lefts.sets[: k + 1] if c.mask]
        for A in cfg.lattice.members:
            instances += 1
            # history and present depend on k alone: each (k, A minus B) once,
            # and none with A inside B, whose increment is 0 and defect 0.0
            key = (k, A.mask & ~B.mask)
            if not key[1] or key in seen:
                continue
            seen.add(key)
            worst = max(worst, set_markov_defect(spec, A, B, partition, law).defect)
    rows.append(_row("set_markov", f"{instances} (A, B) instances", worst, tol["exact"]))

    if len(ordering) < 2:
        return rows  # a single-member lattice has no increments to check

    k = max(1, (len(ordering) - 1) // 2)
    B = ordering.prefix_set(k)
    a_list = [m for m in cfg.lattice.members if m.mask & ~B.mask][:2]
    if a_list:
        r = increment_vector_independence_defect(spec, B, a_list, law)
        rows.append(_row("increment_independence",
                         f"B=prefix[{k}], {len(a_list)} sets", r.defect, tol["exact"]))

    flow = flow_from_ordering(ordering)
    r = flow_markov_defect(spec, flow, law)
    del law  # no row below reads the joint table
    rows.append(_row("flow_markov", "canonical flow", r.defect, tol["exact"]))

    # flow matching: a refined chain against the one-step chain
    coarse = DiscreteFlow((flow.times[0], flow.times[-1]),
                          (flow.stages[0], flow.stages[-1]))
    # the matrix semigroup needs positive jumps, float binomial
    # coefficients and matrices within TABLE_CAP: compound kernels with
    # other jumps or too many states, and empirical kernels past
    # DIRECT_BINOMIAL_TRIALS points, get only the kernel-level checks, and
    # the flow_matching row says so
    try:
        system, left_out = system_along_flow(kernel, flow), ""
    except ConfigError as e:
        system, left_out = None, f"; matrix-semigroup rows left out: {e}"
    d = flow_matching_defect(kernel, coarse, (0, 1), flow, (0, len(flow.stages) - 1),
                             [kernel.to_state(x) for x in states])
    rows.append(_row("flow_matching", "one-step vs refined chain" + left_out, d,
                     tol["exact"]))
    if system is None:
        return rows
    d = generator_matching_defect(kernel, coarse, (0, 1), flow,
                                  (0, len(flow.stages) - 1))
    rows.append(_row("generator_matching", "one-step vs refined chain", d,
                     tol["quadrature"]))

    h = system.basis()
    rows.append(_integral_identity_row(system, flow, h, tol["quadrature"], halves=True))

    rows.append(_fd_order_row(system, h, "generator_fd_order", kernel.kind))

    kernel_spec = spec.components[0] if mixture else spec
    slot_maps = {(i, j): ordering_slots(orders[i], orders[j])
                 for i in range(len(orders)) for j in range(i + 1, len(orders))}
    for level in (2, 3):
        if not slot_maps or level > len(ordering):
            continue
        # the first pair that moves a slot the level reads; where slots 2..level
        # stay put, both sides are one matrix chain and the defect reads 0
        unmoved = list(range(2, level + 1))
        moving = [p for p, m in slot_maps.items() if m[1:level] != unmoved]
        i, j = moving[0] if moving else next(iter(slot_maps))
        slots = " ".join(map(str, slot_maps[i, j]))
        note = "" if moving else f", no pair moves slots 2-{level}"
        try:
            r = permutation_identity_check(kernel_spec, orders[i], orders[j], level)
        except TableSizeError as e:
            # stated with the count, as a skipped finite-difference row is
            instance = f"orderings {i} and {j} (slots {slots}){note}{cut}, skipped: {e}"
            exact = generator = 0.0
        else:
            # the jump kinds' step laws are cut at a tail: where the identity
            # holds, the defect reads that cut, so the text states it
            if r.tail_cut is not None:
                note += f", largest tail mass cut from a step law {r.tail_cut:.1e}"
            instance = (f"orderings {i} and {j} (slots {slots}){note}, "
                        f"{len(r.start_states)} start states{cut}")
            exact, generator = r.exact_defect, r.generator_residual
        rows.append(_row(f"permutation_identity_{level}", instance, exact, tol["exact"]))
        rows.append(_row(f"permutation_identity_{level}_generator", instance, generator,
                         tol["quadrature"]))
    return rows


def _continuous_rows(cfg):
    rows = []
    spec = cfg.spec
    kernel = spec.kernel
    tol = cfg.tolerances
    seed = cfg.seed
    count = cfg.mc_samples
    orders, _, cut = _orderings(cfg)
    states = kernel.probe_states()
    ordering = spec.ordering

    # composition law: Monte Carlo for the dirichlet kind, quadrature otherwise
    mc = (seed, count) if kernel.kind == "dirichlet" else None
    worst = 0.0
    o = ordering
    triples = [(0, 1, len(o) - 1)] if len(o) > 2 else [(0, 0, len(o) - 1)]
    if len(o) > 3:
        triples.append((1, 2, len(o) - 1))
    for i, j, k in triples:
        r = ck_defect(kernel, o.prefix_set(i), o.prefix_set(j), o.prefix_set(k),
                      states, mc=mc)
        worst = max(worst, r.defect if mc is None else r.sigmas or 0.0)
    if mc is None:
        rows.append(_row("chapman_kolmogorov", f"{len(triples)} triples, quadrature cdf",
                         worst, tol["quadrature"]))
    else:
        rows.append(_row("chapman_kolmogorov", f"{len(triples)} triples, MC sigmas",
                         worst, tol["mc_sigmas"]))

    # ordering invariance by Monte Carlo
    instance = f"{len(orders) * (len(orders) - 1) // 2} ordering pairs{cut}, MC sigmas"
    try:
        sigmas = ordering_invariance_defect(spec, orders, mc=(seed, count)).sigmas
    except TableSizeError as e:
        # stated with the count, as a skipped permutation identity row is
        instance += f", skipped: {e}"
        sigmas = 0.0
    rows.append(_row("ordering_invariance", instance, sigmas, tol["mc_sigmas"]))

    # marginal laws
    arr = sample_increments(spec, seed, count)
    mem = cfg.lattice.members
    values = algebra_values(spec.lefts, arr, mem).T
    if kernel.kind == "dirichlet":
        worst = 0.0
        for m, vals in zip(mem, values):
            a = measure_of(kernel.measure, m)
            b = kernel.measure.total - a
            # a member of alpha mass 0 or of all of it has a point-mass
            # marginal, against which a KS distance only measures rounding
            if a > 0 and b > 0:
                worst = max(worst, ks_statistic(vals, BetaSegment(a, b).cdf))
        rows.append(_row("marginal_law", "KS vs beta, all members", worst,
                         special.kolmogi(0.01) / math.sqrt(count)))
    else:
        worst_sig = 0.0
        for i in range(len(mem)):
            for j in range(i, len(mem)):
                xi, xj = values[i], values[j]
                prod = (xi - xi.mean()) * (xj - xj.mean())
                se = prod.std(ddof=1) / math.sqrt(count)
                want = measure_of(kernel.measure, mem[i] & mem[j])
                worst_sig = max(worst_sig, abs(prod.mean() - want) / max(se, 1e-300))
        rows.append(_row("marginal_law", "covariance vs intensity, member pairs",
                         worst_sig, tol["mc_sigmas"]))

    if len(ordering) < 2:
        return rows  # no flow legs to differentiate along

    flow = flow_from_ordering(ordering)
    system = system_along_flow(kernel, flow)
    h = system.basis()
    rows.append(_integral_identity_row(system, flow, h, tol["dirichlet_quadrature"]))
    rows.append(_fd_order_row(system, h, "generator_fd_order", kernel.kind))
    return rows


def ks_statistic(values, cdf):
    """Two-sided Kolmogorov-Smirnov distance of a sample from ``cdf``: the
    larger of D+ and D- over the sorted values.  It is the statistic of
    ``scipy.stats.kstest``, bit for bit, without the p-value.  ``cdf`` is
    elementwise, so inside ``kernels.shared_columns`` it runs ``in_pieces``."""
    x = np.sort(values)
    c = in_pieces(cdf, x)
    n = x.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - c)
    d_minus = np.max(c - np.arange(0.0, n) / n)
    return d_plus if d_plus > d_minus else d_minus


def run_validation_suite(cfg) -> list[dict]:
    kernel = cfg.spec.kernel
    if kernel.finite_state:
        return _finite_state_rows(cfg)
    # the ordering check and the marginal laws read the same uniform streams:
    # one column memo for the whole run computes each stream and quantile once
    with shared_columns():
        return _continuous_rows(cfg)


def run_gencheck(cfg, eps_list, tolerance: float | None,
                 ordering_index: int = 0) -> list[dict]:
    kernel = cfg.spec.kernel
    tol = cfg.tolerances
    orders, counted, _ = _orderings(cfg)
    if not 0 <= ordering_index < len(orders):
        raise ConfigError(f"ordering index {ordering_index} out of range (have {counted})")
    flow = flow_from_ordering(orders[ordering_index])
    system = system_along_flow(kernel, flow)
    if tolerance is None:
        tolerance = tol["quadrature" if kernel.finite_state else "dirichlet_quadrature"]
    rows = []
    h = system.basis()
    if (skipped := _fd_skipped(system)) is not None:
        rows.append({"check": "generator_fd", "residuals": [], "order_estimate": None,
                     "pass": True, "note": skipped})
    else:
        errs = finite_difference_generator_errors(system, FD_TIME, tuple(eps_list), h)
        ratios, defect = fd_order(errs)
        order = 0.0 if ratios is None else math.nan
        if ratios and math.isfinite(defect):
            order = float(np.mean([math.log(r, 2.0) for r in ratios]))
        rows.append({"check": "generator_fd", "residuals": [float(e) for e in errs],
                     "order_estimate": order, "pass": bool(defect <= FD_ORDER_TOL)})
        if ratios == []:
            rows[-1].update(order_estimate=None, note="one step gives no order estimate")
    resid, note = _integral_identity(system, flow, h)
    rows.append({"check": "integral_identity",
                 "residuals": [] if resid is None else [float(resid)],
                 "order_estimate": None, "pass": resid is None or bool(resid <= tolerance)})
    if note:
        rows[-1]["note"] = note.lstrip(" ")
    return rows
