"""The check suite behind the ``validate`` and ``gencheck`` subcommands.

Each check produces one report row {name, instance, defect, tolerance, pass};
the suite passes when every row does.  Exact checks use the ``exact``
tolerance, quadrature-backed ones ``quadrature`` (``dirichlet_quadrature``
where two quadratures stack), Monte Carlo ones ``mc_sigmas`` standard errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

from .construction import (
    MixtureSpec,
    exact_fdd,  # noqa: F401  (perfbench traces it here)
    joint_over_increments,
    sample_increments,
)
from .distributions import binomial_pmf, tv_distance
from .errors import ConfigError
from .generators import (
    finite_difference_generator_errors,
    generator_matching_defect,
    integral_identity_residual,
    ordering_slots,
    permutation_identity_check,
    system_along_flow,
)
from .grid import measure_of
from .kernels import ck_defect
from .lattice import (
    DiscreteFlow,
    enumerate_consistent_orderings,
    flow_from_ordering,
    left_neighbourhoods,
)
from .verify import (
    flow_matching_defect,
    flow_markov_defect,
    increment_vector_independence_defect,
    ordering_invariance_defect,
    set_markov_defect,
)

FD_EPS = (1e-2, 5e-3, 2.5e-3)
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
    orderings' or '4 of 16 orderings' when the cap cut some; and the
    instance suffix that reports a cut (empty when nothing was cut)."""
    orders = enumerate_consistent_orderings(cfg.lattice)
    if len(orders) <= cfg.ordering_cap:
        return orders, f"{len(orders)} orderings", ""
    counted = f"{cfg.ordering_cap} of {len(orders)} orderings"
    return orders[:cfg.ordering_cap], counted, ", " + counted


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


def _fd_order_row(system, h, name, instance):
    ratios, defect = fd_order(finite_difference_generator_errors(system, 0.25, FD_EPS, h))
    note = " (exactly linear)" if ratios is None else f" ratios={['%.3f' % r for r in ratios]}"
    return _row(name, instance + note, defect, FD_ORDER_TOL)


def _finite_state_rows(cfg):
    rows = []
    spec = cfg.spec
    mixture = isinstance(spec, MixtureSpec)
    kernel = spec.kernel
    tol = cfg.tolerances
    orders, counted, cut = _orderings(cfg)
    states = kernel.probe_states()

    # composition law on every prefix triple of every ordering
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
                    r = ck_defect(kernel, o.prefix_set(i), o.prefix_set(j),
                                  o.prefix_set(k), states)
                    worst = max(worst, r.defect)
    rows.append(_row("chapman_kolmogorov",
                     f"{len(seen)} prefix triples, {counted}",
                     worst, tol["exact"]))

    # joint increment law invariant under the ordering
    rows.append(_row("ordering_invariance",
                     f"{len(orders) * (len(orders) - 1) // 2} ordering pairs{cut}",
                     ordering_invariance_defect(spec, orders), tol["exact"]))

    # exact marginals for the empirical process
    if kernel.kind == "empirical" and not mixture:
        worst = 0.0
        for m in cfg.lattice.members:
            got = joint_over_increments(spec, [m]).scalar_dict()
            want = binomial_pmf(kernel.n, measure_of(kernel.measure, m)).as_dict()
            worst = max(worst, tv_distance(got, want))
        rows.append(_row("marginal_law", "all members vs binomial", worst, tol["exact"]))

    # conditional-independence checks
    ordering = spec.ordering
    lefts0 = left_neighbourhoods(ordering)
    worst = 0.0
    instances = 0
    for k in range(1, len(ordering) - 1):
        B = ordering.prefix_set(k)
        partition = [c for c in lefts0.sets[: k + 1] if c.mask]
        for A in cfg.lattice.members:
            r = set_markov_defect(spec, A, B, partition)
            worst = max(worst, r.defect)
            instances += 1
    rows.append(_row("set_markov", f"{instances} (A, B) instances", worst, tol["exact"]))

    if len(ordering) < 2:
        return rows  # a single-member lattice has no increments to check

    k = max(1, (len(ordering) - 1) // 2)
    B = ordering.prefix_set(k)
    a_list = [m for m in cfg.lattice.members if m.mask & ~B.mask][:2]
    if a_list:
        r = increment_vector_independence_defect(spec, B, a_list)
        rows.append(_row("increment_independence",
                         f"B=prefix[{k}], {len(a_list)} sets", r.defect, tol["exact"]))

    flow = flow_from_ordering(ordering, kernel.measure)
    r = flow_markov_defect(spec, flow)
    rows.append(_row("flow_markov", "canonical flow", r.defect, tol["exact"]))

    # flow matching: a refined chain against the one-step chain
    coarse = DiscreteFlow((flow.times[0], flow.times[-1]),
                          (flow.stages[0], flow.stages[-1]), flow.trace_measure)
    d = flow_matching_defect(kernel, coarse, (0, 1), flow, (0, len(flow.stages) - 1),
                             [kernel.to_state(x) for x in states])
    rows.append(_row("flow_matching", "one-step vs refined chain", d, tol["exact"]))

    # the matrix semigroup needs a closed integer state grid; compound
    # kernels with non-integer jumps only get the kernel-level checks
    try:
        system = system_along_flow(kernel, flow)
    except ConfigError:
        return rows
    d = generator_matching_defect(kernel, coarse, (0, 1), flow,
                                  (0, len(flow.stages) - 1))
    rows.append(_row("generator_matching", "one-step vs refined chain", d,
                     tol["quadrature"]))

    h = system.basis()
    t_end = float(flow.times[-1])
    worst = max(integral_identity_residual(system, 0.0, t_end / 2.0, h),
                integral_identity_residual(system, 0.0, t_end, h))
    rows.append(_row("integral_identity", "canonical flow", worst, tol["quadrature"]))

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
        r = permutation_identity_check(kernel_spec, orders[i], orders[j], level)
        slots = " ".join(map(str, slot_maps[i, j]))
        note = "" if moving else f", no pair moves slots 2-{level}"
        instance = (f"orderings {i} and {j} (slots {slots}){note}, "
                    f"{len(r.start_states)} start states{cut}")
        rows.append(_row(f"permutation_identity_{level}", instance,
                         r.exact_defect, tol["exact"]))
        rows.append(_row(f"permutation_identity_{level}_generator", instance,
                         r.generator_residual, tol["quadrature"]))
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
    gap = ordering_invariance_defect(spec, orders, mc=(seed, count))
    rows.append(_row("ordering_invariance",
                     f"{len(orders) * (len(orders) - 1) // 2} ordering pairs{cut}, "
                     "MC sigmas",
                     gap.sigmas, tol["mc_sigmas"]))

    # marginal laws
    arr = sample_increments(spec, seed, count)
    lefts = left_neighbourhoods(ordering)
    if kernel.kind == "dirichlet":
        worst = 0.0
        crit = None
        for m in cfg.lattice.members:
            vals = _member_values(arr, lefts, m)
            a = measure_of(kernel.measure, m)
            b = kernel.measure.total - a
            ks = stats.kstest(vals, lambda z: stats.beta.cdf(z, a, b))
            crit = special.kolmogi(0.01) / math.sqrt(count)
            worst = max(worst, ks.statistic)
        rows.append(_row("marginal_law", "KS vs beta, all members", worst, crit))
    else:
        worst_sig = 0.0
        mem = cfg.lattice.members
        for i in range(len(mem)):
            for j in range(i, len(mem)):
                xi = _member_values(arr, lefts, mem[i])
                xj = _member_values(arr, lefts, mem[j])
                prod = (xi - xi.mean()) * (xj - xj.mean())
                se = prod.std(ddof=1) / math.sqrt(count)
                want = measure_of(kernel.measure, mem[i] & mem[j])
                worst_sig = max(worst_sig, abs(prod.mean() - want) / max(se, 1e-300))
        rows.append(_row("marginal_law", "covariance vs intensity, member pairs",
                         worst_sig, tol["mc_sigmas"]))

    if len(ordering) < 2:
        return rows  # no flow legs to differentiate along

    flow = flow_from_ordering(ordering, kernel.measure)
    system = system_along_flow(kernel, flow)
    h = system.basis()
    t_end = float(flow.times[-1])
    resid = integral_identity_residual(system, 0.0, t_end, h)
    itol = tol["dirichlet_quadrature"]
    rows.append(_row("integral_identity", "canonical flow", resid, itol))
    rows.append(_fd_order_row(system, h, "generator_fd_order", kernel.kind))
    return rows


def _member_values(arr, lefts, member):
    idx = [i for i, c in enumerate(lefts.sets) if c.mask and c.issubset(member)]
    return arr[:, idx].sum(axis=1)


def run_validation_suite(cfg) -> list[dict]:
    kernel = cfg.spec.kernel
    if kernel.finite_state:
        return _finite_state_rows(cfg)
    return _continuous_rows(cfg)


def run_gencheck(cfg, eps_list, tolerance: float | None,
                 ordering_index: int = 0) -> list[dict]:
    kernel = cfg.spec.kernel
    tol = cfg.tolerances
    orders, counted, _ = _orderings(cfg)
    if not 0 <= ordering_index < len(orders):
        raise ConfigError(f"ordering index {ordering_index} out of range (have {counted})")
    flow = flow_from_ordering(orders[ordering_index], kernel.measure)
    system = system_along_flow(kernel, flow)
    itol = tolerance or tol["quadrature" if kernel.finite_state else "dirichlet_quadrature"]
    rows = []
    h = system.basis()
    errs = finite_difference_generator_errors(system, 0.25, tuple(eps_list), h)
    ratios, defect = fd_order(errs)
    order = 0.0 if ratios is None else math.nan
    if ratios and math.isfinite(defect):
        order = float(np.mean([math.log(r, 2.0) for r in ratios]))
    rows.append({"check": "generator_fd", "residuals": [float(e) for e in errs],
                 "order_estimate": order, "pass": bool(defect <= FD_ORDER_TOL)})
    resid = integral_identity_residual(system, 0.0, float(flow.times[-1]), h)
    rows.append({"check": "integral_identity", "residuals": [float(resid)],
                 "order_estimate": None, "pass": bool(resid <= itol)})
    return rows
