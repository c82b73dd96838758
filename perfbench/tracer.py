"""Layer tracer for the setmarkov benchmark.

Spans wrap the public functions and methods at each layer boundary; hot leaf
functions get counters instead (a call count, and for some the time of the
outermost call).  ``Tracer.install`` rebinds every wrapped function in each
``setmarkov.*`` module that holds it by name (``from .grid import
measure_of``) and on the classes that define a wrapped method;
``Tracer.uninstall`` puts every original back.

Spans are kept in memory: (id, name, parent id, job id, start, end).  A span
opened in a thread that has no open span of its own (the ``sample --workers``
pool) is parented to the job's root span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import asdict, dataclass

JOB_SPAN = "cli.main"


def _add(key, amount):
    def hook(tracer, result):
        tracer.add(key, amount(result))
    return hook


def _conditional(tracer, result):
    tracer.add("verify.conditional_events", result.events)
    tracer.add("verify.conditional_skipped", result.skipped)


# (module, attribute or Class.method, span name, hook on the result)
SPANS = (
    ("setmarkov.config", "load_config", "config.load", None),
    ("setmarkov.lattice", "enumerate_consistent_orderings", "lattice.orderings",
     _add("lattice.orderings", len)),
    ("setmarkov.construction", "exact_fdd", "construction.exact_fdd",
     _add("construction.table_entries", lambda law: len(law.table))),
    ("setmarkov.construction", "JointLaw.permuted", "construction.jointlaw_ops", None),
    ("setmarkov.construction", "JointLaw.marginal", "construction.jointlaw_ops", None),
    ("setmarkov.construction", "JointLaw.pushforward_sums", "construction.jointlaw_ops", None),
    ("setmarkov.construction", "JointLaw.tv", "construction.jointlaw_ops", None),
    ("setmarkov.construction", "sample_increments", "construction.sample_increments",
     _add("construction.sampled_values", lambda arr: arr.size)),
    ("setmarkov.rng", "step_uniforms", "rng.step_uniforms", _add("rng.uniforms", len)),
    ("setmarkov.kernels", "ck_defect", "kernels.ck_defect", None),
    ("setmarkov.verify", "conditional_independence_defect", "verify.conditional",
     _conditional),
    ("setmarkov.verify", "aligned_increment_samples", "verify.mc", None),
    ("setmarkov.verify", "mc_probe_thresholds", "verify.mc", None),
    ("setmarkov.verify", "mc_event_probabilities", "verify.mc", None),
    ("setmarkov.verify", "probability_gap", "verify.mc", None),
    ("setmarkov.generators", "system_along_flow", "generators.system", None),
    ("setmarkov.generators", "integral_identity_residual", "generators.integral", None),
    ("setmarkov.generators", "generator_integral", "generators.integral", None),
    ("setmarkov.generators", "permutation_identity_check", "generators.permutation", None),
    ("setmarkov.generators", "finite_difference_generator_errors", "generators.fd", None),
    ("setmarkov.suite", "run_validation_suite", "suite", None),
    ("setmarkov.suite", "run_gencheck", "suite", None),
)

# (module, attribute or Class.method, counter name, also time the outermost call)
COUNTERS = (
    ("setmarkov.grid", "measure_of", "grid.measure_of", False),
    ("setmarkov.distributions", "binomial_pmf", "distributions.binomial_pmf", False),
    ("setmarkov.distributions", "compound_poisson_dict",
     "distributions.compound_poisson_dict", False),
    ("setmarkov.distributions", "TwoStage.cdf", "distributions.twostage_cdf", True),
)

# methods wrapped on every kernel class of setmarkov.kernels that defines them
KERNEL_PMF_METHODS = ("step_pmf", "increment_pmf", "initial_pmf_for")
KERNEL_PMF_COUNTER = "kernels.pmf"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    job: str | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """Span and counter store plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._job: str | None = None
        self._job_root: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call_in_span(self, name, fn, args=(), kwargs=None, hook=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._job_root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, self._job, start, end))
        if hook is not None:
            hook(self, result)
        return result

    def run_job(self, job_id: str, fn, *args):
        """Run one CLI job under its root span."""
        self._job = job_id
        self._job_root = next(self._ids)
        stack = self._stack()
        stack.append(self._job_root)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self._job_root, JOB_SPAN, None, job_id, start, end))
            self._job = self._job_root = None

    def _counted(self, name, fn, timed):
        if not timed:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                self.add(name + "_calls")
                return fn(*args, **kwargs)
            return count_only

        @functools.wraps(fn)
        def count_and_time(*args, **kwargs):
            depth = getattr(self._local, "depth", {})
            self._local.depth = depth
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
                with self._lock:
                    self.counts[name + "_calls"] = self.counts.get(name + "_calls", 0) + 1
                    if outer:
                        self.counts[name + "_s"] = self.counts.get(name + "_s", 0.0) + elapsed
        return count_and_time

    def _spanned(self, name, fn, hook):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.call_in_span(name, fn, args, kwargs, hook)
        return spanned

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in SPANS:
            self._patch(module, attr, lambda fn, n=name, h=hook: self._spanned(n, fn, h))
        for module, attr, name, timed in COUNTERS:
            self._patch(module, attr, lambda fn, n=name, t=timed: self._counted(n, fn, t))
        kernels = importlib.import_module("setmarkov.kernels")
        for cls in _classes_of(kernels, kernels.TransitionKernel):
            for meth in KERNEL_PMF_METHODS:
                if meth in vars(cls):
                    self._patch_class(cls, meth,
                                      lambda fn: self._counted(KERNEL_PMF_COUNTER, fn, True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            self._patch_class(getattr(module, cls_name), meth, make)
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in _setmarkov_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_class(self, cls, meth, make):
        original = vars(cls)[meth]
        self._restore.append((cls, meth, original))
        setattr(cls, meth, make(original))


def _setmarkov_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "setmarkov" or name.startswith("setmarkov."))]


def _classes_of(module, base):
    return [v for v in vars(module).values()
            if isinstance(v, type) and issubclass(v, base)]


# -- span arithmetic ----------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its direct children cover.

    Children that ran in parallel threads are counted once, as their union.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.seconds - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def outermost(spans) -> list[Span]:
    """Spans with no ancestor of the same name (avoids double counting)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """name -> {"s": busy seconds, "calls": n, "self_s": self seconds},
    over outermost spans of each name."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in outermost(spans):
        row = out.setdefault(s.name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        row["s"] += s.seconds
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
    return out
