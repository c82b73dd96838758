"""JSON experiment configuration: grid, semilattice generators, process kind
and measures, seed and tolerance overrides.

Errors carry a JSON-pointer-style path to the offending field so the CLI can
exit with a precise message.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .construction import FddSpec, MixtureSpec
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
    if key not in obj:
        raise ConfigError(f"{path}/{key}: missing required field")
    return obj[key]


def _build_measure(node, grid: GroundGrid, kind: str, path: str) -> CellMeasure:
    _check(isinstance(node, dict), path, "an object")
    try:
        if node.get("uniform"):
            if kind == "probability":
                return CellMeasure.uniform_probability(grid)
            return CellMeasure(grid, np.full(grid.cell_count, 1.0), kind)
        if "constant" in node:
            return CellMeasure(grid, np.full(grid.cell_count, float(node["constant"])), kind)
        weights = _need(node, "weights", path)
        return CellMeasure(grid, weights, kind)
    except SetMarkovError as e:
        raise ConfigError(f"{path}: {e}") from None


def _build_lattice(node, grid: GroundGrid, path: str) -> Semilattice:
    _check(isinstance(node, dict), path, "an object")
    generators = []
    for i, corner in enumerate(node.get("rectangles", [])):
        try:
            generators.append(IndexedSet.rectangle(grid, corner))
        except SetMarkovError as e:
            raise ConfigError(f"{path}/rectangles/{i}: {e}") from None
    for i, cells in enumerate(node.get("cell_lists", [])):
        try:
            generators.append(IndexedSet.from_cells(grid, cells))
        except SetMarkovError as e:
            raise ConfigError(f"{path}/cell_lists/{i}: {e}") from None
    if not generators:
        raise ConfigError(f"{path}: needs rectangles or cell_lists")
    try:
        return close_under_intersection(generators)
    except SetMarkovError as e:
        raise ConfigError(f"{path}: {e}") from None


def _build_kernel(node, grid: GroundGrid, path: str):
    kind = _need(node, "kind", path)
    if kind not in MEASURE_KIND:
        raise ConfigError(f"{path}/kind: unknown process kind {kind!r}")
    measure = _build_measure(_need(node, "measure", path), grid,
                             MEASURE_KIND[kind], f"{path}/measure")
    try:
        if kind == "empirical":
            return EmpiricalKernel(int(_need(node, "n", path)), measure,
                                   corrupted=bool(node.get("corrupted", False)))
        if kind == "gaussian":
            return GaussianIncrementKernel(measure, node.get("initial", "normal"))
        if kind == "poisson":
            return PoissonIncrementKernel(measure, node.get("initial", "poisson"))
        if kind == "compound_poisson":
            jumps = _need(node, "jumps", path)
            return CompoundPoissonKernel(measure,
                                         tuple(jumps.get("values", ())),
                                         tuple(jumps.get("probs", ())),
                                         node.get("initial", "compound"))
        return DirichletKernel(measure)
    except SetMarkovError as e:
        raise ConfigError(f"{path}: {e}") from None


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
    (0-based indices) minus the union of the ``minus`` ones."""
    path = "/experiment/derived_sets"
    _check(isinstance(node, list) and all(isinstance(d, dict) for d in node), path,
           "a list of objects")
    out = []
    for i, d in enumerate(node):
        masks = []
        for key in ("union", "minus"):
            idx = d.get(key, [])
            _check(isinstance(idx, list) and all(type(j) is int and 0 <= j < len(members)
                                                 for j in idx),
                   f"{path}/{i}/{key}", f"a list of member indices 0..{len(members) - 1}")
            masks.append(functools.reduce(operator.or_, [members[j].mask for j in idx], 0))
        out.append((d.get("name", f"D{i}"), masks[0] & ~masks[1]))
    return tuple(out)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("/: config must be a JSON object")
    grid_node = _need(raw, "grid", "")
    grid = GroundGrid(tuple(_need(grid_node, "extents", "/grid")))
    lattice = _build_lattice(_need(raw, "semilattice", ""), grid, "/semilattice")
    proc = _need(raw, "process", "")
    kernel = _build_kernel(proc, grid, "/process")
    try:
        spec: FddSpec | MixtureSpec = FddSpec(lattice, kernel)
        mix = proc.get("mixture")
        if mix is not None:
            other = dict(proc)
            other.pop("mixture")
            other["measure"] = _need(mix, "measure", "/process/mixture")
            kernel2 = _build_kernel(other, grid, "/process/mixture")
            w = float(mix.get("weight", 0.5))
            spec = MixtureSpec((FddSpec(lattice, kernel), FddSpec(lattice, kernel2)),
                               (w, 1.0 - w))
    except SetMarkovError as e:
        raise ConfigError(f"/process: {e}") from None
    seed = int(raw.get("seed", 0))
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
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return parse_config(raw)


def merge_tolerance_overrides(cfg: ExperimentConfig, path: str | None):
    if path is None:
        return
    try:
        with open(path) as f:
            overrides = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError) as e:
        raise ConfigError(f"tolerance overrides: {e}") from None
    _merge_tolerances(cfg.tolerances, overrides, f"tolerance overrides {path}#")
