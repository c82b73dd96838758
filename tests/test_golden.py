"""Golden outputs: SHA-256 digests of `sample` and `fdd` CSVs and of sampled
increment arrays, recorded before the kernel classes shared one protocol;
of the `validate` and `gencheck` reports of the continuous-kind bench
configs, recorded before their checks shared quantile columns and evaluated
composed cdfs over all probes at once; and of the `gencheck` reports of the
finite-state bench configs that fit the table cap, recorded before the flow
semigroups dropped their knot-leg memo and shared one binomial-coefficient
recurrence with ``binomial_pmf``; and of the seed-0 ``validate`` reports of
those configs, recorded before the matrix flow semigroups built all Gauss
nodes of a segment as one stack.

``FDD_SHA256["compound_poisson"]`` was re-recorded when the compound
poisson tables began to come from Panjer's recursion over the values that
at most K jumps reach (K the poisson count cut), in place of the convolution
powers of the jump law up to K jumps.  The CSV keeps its 216,000 rows; the
values above K smallest jumps gained part of the mass the count cut had left
out: the largest change of one probability is 2.0e-15, and the total
variation from the old CSV 6.0e-14.  It was re-recorded once before, when
compound poisson began to weigh the law of k jumps by the log-space poisson
count table in place of an exp(-lam) recurrence (total variation 6.3e-17).

The ``fdd`` CSVs of three compound poisson configs whose value grids no
bench config covers -- jumps {1, 2.5} (step 0.5), {-1, 0, 2.5} (both signs
and a zero jump) and {-1, -2} (negative jumps only) -- and the seed-3
``sample`` CSV of the first were recorded before the exact engine moved its
finite laws from dict pmfs to vectors on the value grid
(``COMPOUND_GRID_SHA256``).

Any change to these bytes is a change of the sampler or of the exact-law
export, not a refactor.  Re-record only for an intended change of output.
"""

import hashlib
import json
from pathlib import Path

import pytest

from setmarkov import (
    CellMeasure,
    EmpiricalKernel,
    FddSpec,
    GroundGrid,
    IndexedSet,
    PoissonIncrementKernel,
    close_under_intersection,
    sample_increments,
)
from setmarkov.cli import main

SEED = 11
ROWS = 2000
WEIGHTS = [0.5, 1.0, 1.5, 2.0]

PROCESSES = {
    "empirical": {"kind": "empirical", "n": 3,
                  "measure": {"weights": [0.4, 0.3, 0.2, 0.1]}},
    "gaussian": {"kind": "gaussian", "measure": {"weights": WEIGHTS}},
    "gaussian_zero": {"kind": "gaussian", "initial": "zero",
                      "measure": {"weights": WEIGHTS}},
    "poisson": {"kind": "poisson", "measure": {"weights": WEIGHTS}},
    "poisson_zero": {"kind": "poisson", "initial": "zero",
                     "measure": {"weights": WEIGHTS}},
    "compound_poisson": {"kind": "compound_poisson", "measure": {"constant": 0.7},
                         "jumps": {"values": [1, 2.5], "probs": [0.6, 0.4]}},
    "compound_zero": {"kind": "compound_poisson", "initial": "zero",
                      "measure": {"constant": 0.7},
                      "jumps": {"values": [1, 2], "probs": [0.5, 0.5]}},
    "dirichlet": {"kind": "dirichlet", "measure": {"weights": WEIGHTS}},
    "mixture": {"kind": "empirical", "n": 2, "measure": {"uniform": True},
                "mixture": {"measure": {"weights": [0.7, 0.1, 0.1, 0.1]},
                            "weight": 0.4}},
}

SAMPLE_SHA256 = {
    "empirical":
        "6a9e0f865267b19a34cb061be09095f27fd019b450b7b0ef96d19394f2f64e16",
    "gaussian":
        "f6f76ce625be53abe2280d9ea8cc9867e89b01f95a021577d15704911a1e51d9",
    "gaussian_zero":
        "1164ffbc9db30c2b46e87a2c54ba5c9b86be5fe2ea6a0b4ae0e6c0216ba8653d",
    "poisson":
        "b5c010b2c5b34a37d7d11ae5ff24ddc752ab8c31eda8a98e15e027b67ee761a2",
    "poisson_zero":
        "6a6f11b9ca45e7316b7f99869528e70b00279b37e1e75c56f7bd8eb0f8d3176b",
    "compound_poisson":
        "120120f951daac87ec1c48832ea0570d563409bc043a2963907d04b23b63e64b",
    "compound_zero":
        "950b376aced0873b6461ca2bc01b19393df7311455f20880f9dadd29eafc2402",
    "dirichlet":
        "c7e48d42b5ace5b578115acdd8ed27a96f5aa32c0c477810da296133a3ca4250",
    "mixture":
        "e1ee638dc432d35f88bc5b52517ac6d5dd07e45b4e0080621daa425cc6cfb6e5",
}

FDD_SHA256 = {
    "empirical":
        "a74d98670975cb2d2df3f3e2a049ebe99779fff5fd2ce96d28aed020109e9195",
    "poisson":
        "f97ff3b396ac7cd09f832546892d74708eeed2f0d398bf1ae173fb00062c634f",
    "compound_poisson":
        "ddb9f582b54b3dd55995d9dad257fb7d5c43c6412a8d4267005ab8b53c12dd48",
}

# sample_increments on specs whose initial pmf overrides the kernel's own
INITIAL_OVERRIDE_SHA256 = {
    "empirical":
        "57e6faeb090d93239ebd4452a6711cea01351b7f5e62936a35a8830dd1ef0e62",
    "poisson":
        "99c7ca309e6bdd1cc5c7e08979b540eb0268cfdae9e7cd8af2aecebc9c0e6a25",
}


# (command, jump values, jump probs) -> SHA-256 of the CSV; the configs are
# those of the CI step "Compound poisson with a non-integer jump"
COMPOUND_GRID_SHA256 = {
    ("fdd", (1, 2.5), (0.6, 0.4)):
        "768d0333a76618ce37683c86db5dd41c2c1378c68c2c9404e96d6f9f513bf7d5",
    ("fdd", (-1, 0, 2.5), (0.3, 0.2, 0.5)):
        "51076c5375f6d25ccec0275d85c61fd0b7802afb3a987ca7df575294684d3a0a",
    ("fdd", (-1, -2), (0.3, 0.7)):
        "519565e4e5f935e7e4c4557a19ad21e917e0d0c8e9e57cd490d7cad3c432ba00",
    ("sample", (1, 2.5), (0.6, 0.4)):
        "7e8358262dd0a616eb9913236d56d9efeb8ddc184dbf98f849e6edae1e6d7346",
}
COMPOUND_GRID_SAMPLE = ["--seed", "3", "--n", "3000"]


CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

# (command, config stem, seed) -> SHA-256 of the JSON report
REPORT_SHA256 = {
    ("validate", "gaussian_staircase", 0):
        "4a30c96a33c3ce7c5f269f95f1f751739f7c67d3f5f0217b28d21900435a2f39",
    ("validate", "gaussian_staircase", 3):
        "9df62b4659b6e8d0824a2ad2fe88191761b57b366f414b16e25b4b04123aec43",
    ("validate", "dirichlet_staircase", 0):
        "cfdc0bded673212540e3150b53b6f61313b5b0f6fc6388346a14d938c2639ca0",
    ("validate", "dirichlet_staircase", 3):
        "a2da06cb5abaf81f2bda478c7af9441e1d492b457f01dd264721d772c0f06b66",
    ("gencheck", "gaussian_staircase", 0):
        "69abaadb98ac1ce87595a55756b1d84730a6c60bf150834e069d60aebcff80c8",
    ("gencheck", "gaussian_staircase", 3):
        "2a69338ea7fcfa023d12f460d3e1255e815608530f4cc8dd4dc2e9265160ca11",
    ("gencheck", "dirichlet_staircase", 0):
        "81045c11aafd83b5a4d5c1422d4f309e3e6cfc9010376bea4dab81fd52d41745",
    ("gencheck", "dirichlet_staircase", 3):
        "63077a39ddc758467214d4fff75873397a89d7ed787e8b5ed63559f40a69449f",
    ("gencheck", "empirical10_staircase", 0):
        "9dc8982fa2b426d0e70f183c0b6fc621a21df9c856530fd027307688c7d1a718",
    ("gencheck", "poisson_lattice4", 0):
        "92ec36c35f38f64b36c64daad941068d65baa77d11d0642f42c03d0620b6382a",
    ("gencheck", "compound_lattice3", 0):
        "a6e223bacb8a8d6feb3bc85286941519c3dacf10186c94c173bf1dec050dfbc4",
    ("gencheck", "corrupted_lattice3", 0):
        "86ef1a5246da2f126a563ab0900989532d3174349ee85c850e51da6602d47f77",
    ("validate", "empirical10_staircase", 0):
        "a2553119d2ac29a58368fbb2cad49fe117f89dc4c8633b62f30ec949fa905cad",
    ("validate", "poisson_lattice4", 0):
        "75224bac61088f226f651234e94562bb3b66a0bcb9798debdb9f819056709fb3",
    ("validate", "compound_lattice3", 0):
        "e40d62f08ee35d921bd5e7d99ce56b8d2c024670ddae45f8b007925a1d9180e1",
    ("validate", "corrupted_lattice3", 0):
        "53e1208e058029d11c006ea19346cc2f1b18e4393c50049cd842ae82d4abe296",
}

# the reports whose checks fail: the corrupted kind breaks its own generator
REPORT_EXIT = {("gencheck", "corrupted_lattice3", 0): 1,
               ("validate", "corrupted_lattice3", 0): 1}


def _config(tmp_path, name):
    cfg = {
        "grid": {"extents": [2, 2]},
        "semilattice": {"cell_lists": [[0, 1], [0, 2]]},
        "process": PROCESSES[name],
        "experiment": {"derived_sets": [{"name": "u12", "union": [1, 2]},
                                        {"name": "d1", "union": [1], "minus": [0]}]},
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(SAMPLE_SHA256))
def test_sample_csv_digest(tmp_path, name):
    out = tmp_path / "paths.csv"
    rc = main(["sample", "--config", _config(tmp_path, name), "--n", str(ROWS),
               "--seed", str(SEED), "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == SAMPLE_SHA256[name]


@pytest.mark.parametrize("name", sorted(FDD_SHA256))
def test_fdd_csv_digest(tmp_path, name):
    out = tmp_path / "law.csv"
    assert main(["fdd", "--config", _config(tmp_path, name), "--out", str(out)]) == 0
    assert _sha256(out) == FDD_SHA256[name]


def _override_spec(name):
    grid = GroundGrid((2, 2))
    lattice = close_under_intersection([IndexedSet.from_cells(grid, [0, 1]),
                                        IndexedSet.from_cells(grid, [0, 2])])
    if name == "empirical":
        F = CellMeasure(grid, [0.4, 0.3, 0.2, 0.1], "probability")
        return FddSpec(lattice, EmpiricalKernel(3, F), initial={0: 0.2, 1: 0.5, 3: 0.3})
    lam = CellMeasure(grid, WEIGHTS)
    return FddSpec(lattice, PoissonIncrementKernel(lam), initial={2: 0.25, 5: 0.75})


@pytest.mark.parametrize("name", sorted(INITIAL_OVERRIDE_SHA256))
def test_initial_override_sample_digest(name):
    arr = sample_increments(_override_spec(name), SEED, ROWS)
    assert hashlib.sha256(arr.tobytes()).hexdigest() == INITIAL_OVERRIDE_SHA256[name]


@pytest.mark.parametrize("command, stem, seed", sorted(REPORT_SHA256))
def test_report_digest(tmp_path, command, stem, seed):
    out = tmp_path / "report.json"
    rc = main([command, "--config", str(CONFIGS / f"{stem}.json"), "--seed", str(seed),
               "--out", str(out)])
    assert rc == REPORT_EXIT.get((command, stem, seed), 0)
    assert _sha256(out) == REPORT_SHA256[command, stem, seed]


@pytest.mark.parametrize("command, values, probs", sorted(COMPOUND_GRID_SHA256))
def test_compound_grid_csv_digest(tmp_path, command, values, probs):
    cfg = {"grid": {"extents": [2, 2]},
           "semilattice": {"cell_lists": [[0, 1], [0, 2]]},
           "process": {"kind": "compound_poisson", "measure": {"constant": 0.5},
                       "jumps": {"values": list(values), "probs": list(probs)}}}
    path = tmp_path / "compound.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    extra = COMPOUND_GRID_SAMPLE if command == "sample" else []
    assert main([command, "--config", str(path), *extra, "--out", str(out)]) == 0
    assert _sha256(out) == COMPOUND_GRID_SHA256[command, values, probs]
