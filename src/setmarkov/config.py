"""JSON experiment configuration: grid, semilattice generators, process kind
and measures, seed and tolerance overrides.

Errors carry a JSON-pointer-style path to the offending field so the CLI can
exit with a precise message.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .construction import FddSpec, MixtureSpec, algebra_mask
from .errors import ConfigError, SetMarkovError
from .grid import CellMeasure, GroundGrid
from .kernels import (
    CompoundPoissonKernel,
    DirichletKernel,
    EmpiricalKernel,
    GaussianIncrementKernel,
    PoissonIncrementKernel,
)
from .lattice import IndexedSet, Semilattice, close_under_intersection

DEFAULT_TOLERANCES = {
    "exact": 1e-10,
    "quadrature": 1e-7,
    "dirichlet_quadrature": 1e-4,
    "mc_sigmas": 3.0,
}

MEASURE_KIND = {
    "empirical": "probability",
    "gaussian": "intensity",
    "poisson": "intensity",
    "compound_poisson": "intensity",
    "dirichlet": "dirichlet",
}


@dataclass
class ExperimentConfig:
    """A parsed config; the last three fields come from its ``experiment``
    object (see the README's CLI section)."""

    raw: dict
    grid: GroundGrid
    lattice: Semilattice
    spec: FddSpec | MixtureSpec
    seed: int
    tolerances: dict
    ordering_cap: int
    mc_samples: int
    derived_sets: tuple[tuple[str, int], ...]

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _check(ok: bool, path: str, want: str) -> None:
    if not ok:
        raise ConfigError(f"{path}: must be {want}")


def _need(obj: dict, key: str, path: str):
    _check(isinstance(obj, dict), path or "/", "an object")
    if key not in obj:
        raise ConfigError(f"{path}/{key}: missing required field")
    return obj[key]


def _integer(v, path: str) -> int:
    _check(type(v) is int, path, "an integer")
    return v


def _number(v, path: str) -> float:
    _check(type(v) in (int, float), path, "a number")
    return float(v)


def _numbers(v, path: str) -> tuple:
    _check(isinstance(v, list) and all(type(x) in (int, float) for x in v), path,
           "a list of numbers")
    return tuple(v)


def _construct(path: str, make, *args):
    """``make(*args)``, its package errors raised as config errors at ``path``;
    the arguments, read from the config first, raise at their own paths."""
    try:
        return make(*args)
    except SetMarkovError as e:
        raise ConfigError(f"{path}: {e}") from None


def _build_measure(node, grid: GroundGrid, kind: str, path: str) -> CellMeasure:
    _check(isinstance(node, dict), path, "an object")
    if node.get("uniform"):
        if kind == "probability":
            return CellMeasure.uniform_probability(grid)
        weights = np.full(grid.cell_count, 1.0)
    elif "constant" in node:
        weights = np.full(grid.cell_count, _number(node["constant"], f"{path}/constant"))
    else:
        weights = _numbers(_need(node, "weights", path), f"{path}/weights")
    return _construct(path, CellMeasure, grid, weights, kind)


def _build_lattice(node, grid: GroundGrid, path: str) -> Semilattice:
    _check(isinstance(node, dict), path, "an object")
    generators = []
    for key, make in (("rectangles", IndexedSet.rectangle), ("cell_lists", IndexedSet.from_cells)):
        items = node.get(key, [])
        _check(isinstance(items, list) and all(
            isinstance(item, list) and all(type(j) is int for j in item) for item in items),
            f"{path}/{key}", "a list of lists of integers")
        generators += [_construct(f"{path}/{key}/{i}", make, grid, item)
                       for i, item in enumerate(items)]
    if not generators:
        raise ConfigError(f"{path}: needs rectangles or cell_lists")
    return _construct(path, close_under_intersection, generators)


def _build_kernel(node, grid: GroundGrid, path: str):
    kind = _need(node, "kind", path)
    if not isinstance(kind, str) or kind not in MEASURE_KIND:
        raise ConfigError(f"{path}/kind: unknown process kind {kind!r}")
    measure = _build_measure(_need(node, "measure", path), grid,
                             MEASURE_KIND[kind], f"{path}/measure")
    if kind == "empirical":
        return _construct(path, EmpiricalKernel, _integer(_need(node, "n", path), f"{path}/n"),
                          measure, bool(node.get("corrupted", False)))
    if kind == "gaussian":
        return _construct(path, GaussianIncrementKernel, measure, node.get("initial", "normal"))
    if kind == "poisson":
        return _construct(path, PoissonIncrementKernel, measure, node.get("initial", "poisson"))
    if kind == "compound_poisson":
        jumps = _need(node, "jumps", path)
        _check(isinstance(jumps, dict), f"{path}/jumps", "an object")
        return _construct(path, CompoundPoissonKernel, measure,
                          *(_numbers(jumps.get(key, []), f"{path}/jumps/{key}")
                            for key in ("values", "probs")),
                          node.get("initial", "compound"))
    return _construct(path, DirichletKernel, measure)


def _merge_tolerances(tolerances: dict, node, path: str) -> None:
    """Merge an object of known tolerance names and non-negative numbers."""
    _check(isinstance(node, dict), path, "an object of tolerances")
    for k, v in node.items():
        _check(k in DEFAULT_TOLERANCES, f"{path}/{k}", f"one of {sorted(DEFAULT_TOLERANCES)}")
        _check(type(v) in (int, float) and 0 <= v < math.inf, f"{path}/{k}",
               "a non-negative number")
        tolerances[k] = float(v)


def _count(exp: dict, key: str, default: int, least: int) -> int:
    v = exp.get(key, default)
    _check(type(v) is int and v >= least, f"/experiment/{key}", f"an integer >= {least}")
    return v


def _derived_sets(node, members) -> tuple:
    """(name, mask) of each derived set: the union of the ``union`` members
    (0-based indices) minus the union of the ``minus`` ones
    (``construction.algebra_mask``)."""
    path = "/experiment/derived_sets"
    _check(isinstance(node, list) and all(isinstance(d, dict) for d in node), path,
           "a list of objects")
    out = []
    for i, d in enumerate(node):
        picked = []
        for key in ("union", "minus"):
            idx = d.get(key, [])
            _check(isinstance(idx, list) and all(type(j) is int and 0 <= j < len(members)
                                                 for j in idx),
                   f"{path}/{i}/{key}", f"a list of member indices 0..{len(members) - 1}")
            picked.append([members[j] for j in idx])
        out.append((d.get("name", f"D{i}"), algebra_mask(*picked)))
    return tuple(out)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("/: config must be a JSON object")
    grid_node = _need(raw, "grid", "")
    extents = _need(grid_node, "extents", "/grid")
    _check(isinstance(extents, list) and all(type(e) is int for e in extents),
           "/grid/extents", "a list of integers")
    grid = GroundGrid(tuple(extents))
    lattice = _build_lattice(_need(raw, "semilattice", ""), grid, "/semilattice")
    proc = _need(raw, "process", "")
    kernel = _build_kernel(proc, grid, "/process")
    spec: FddSpec | MixtureSpec = _construct("/process", FddSpec, lattice, kernel)
    mix = proc.get("mixture")
    if mix is not None:
        other = dict(proc)
        other.pop("mixture")
        other["measure"] = _need(mix, "measure", "/process/mixture")
        kernel2 = _build_kernel(other, grid, "/process/mixture")
        w = _number(mix.get("weight", 0.5), "/process/mixture/weight")
        spec = _construct("/process", MixtureSpec,
                          (spec, _construct("/process", FddSpec, lattice, kernel2)),
                          (w, 1.0 - w))
    seed = _integer(raw.get("seed", 0), "/seed")
    tolerances = dict(DEFAULT_TOLERANCES)
    _merge_tolerances(tolerances, raw.get("tolerances", {}), "/tolerances")
    exp = raw.get("experiment", {})
    _check(isinstance(exp, dict) and set(exp) <= {"ordering_cap", "mc_samples", "derived_sets"},
           "/experiment", "an object of ordering_cap, mc_samples and derived_sets")
    return ExperimentConfig(raw, grid, lattice, spec, seed, tolerances,
                            _count(exp, "ordering_cap", 24, 1),
                            _count(exp, "mc_samples", 100_000, 2),
                            _derived_sets(exp.get("derived_sets", []), lattice.members))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(raw)


def merge_tolerance_overrides(cfg: ExperimentConfig, path: str | None):
    if path is None:
        return
    try:
        with open(path) as f:
            overrides = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"tolerance overrides: {e}") from None
    _merge_tolerances(cfg.tolerances, overrides, f"tolerance overrides {path}#")
