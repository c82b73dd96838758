"""The benchmark's workloads, metrics and the layer each metric watches.

Each workload is a fixed list of CLI jobs run one after another by a single
worker process (a closed loop with one client).  The configs live in
``perfbench/configs``; the job seed comes from the benchmark seed.
"""

from __future__ import annotations

from dataclasses import dataclass

CONFIG_DIR = "perfbench/configs"
SAMPLE_ROWS = 200_000
# Job seeds cycle through this many values; reference outputs of the seed
# commit are recorded for each of them (see record_reference.py).
JOB_SEEDS = 16


@dataclass(frozen=True)
class Job:
    command: str  # validate | fdd | gencheck | sample
    config: str   # file stem under CONFIG_DIR
    workers: int = 1

    @property
    def id(self) -> str:
        suffix = f"-w{self.workers}" if self.command == "sample" else ""
        return f"{self.command}-{self.config}{suffix}"

    @property
    def config_path(self) -> str:
        return f"{CONFIG_DIR}/{self.config}.json"

    @property
    def out_ext(self) -> str:
        return "csv" if self.command in ("fdd", "sample") else "json"

    def argv(self, out: str, job_seed: int) -> list[str]:
        argv = [self.command, "--config", self.config_path, "--out", out]
        if self.command != "fdd":
            argv += ["--seed", str(job_seed)]
        if self.command == "sample":
            argv += ["--n", str(SAMPLE_ROWS), "--workers", str(self.workers)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]
    # per-layer metrics that must read exactly 0 in a traced run
    zero_layers: tuple[str, ...] = ()

    @property
    def configs(self) -> list[str]:
        return sorted({j.config_path for j in self.jobs})


_EXACT_TABLES = ("empirical10_staircase", "poisson_lattice4", "compound_lattice3")
_MC = ("gaussian_staircase", "dirichlet_staircase")
_SAMPLED = ("gaussian_staircase", "dirichlet_staircase", "empirical6_staircase",
            "compound_staircase")
_NO_TABLES = ("construction.exact_fdd_calls", "construction.table_entries")

WORKLOADS = {w.name: w for w in (
    Workload(
        "exact-tables",
        "exact joint tables, pmf kernels and conditional-independence checks "
        "dominate; nothing is sampled (dense exact engine)",
        tuple(Job("validate", c) for c in _EXACT_TABLES + ("corrupted_lattice3",))
        + tuple(Job("fdd", c) for c in _EXACT_TABLES),
    ),
    Workload(
        "mc-quadrature",
        "ck_defect, TwoStage quadrature, flow-semigroup quadrature and Monte "
        "Carlo probes dominate; no exact table is built",
        tuple(Job(cmd, c) for cmd in ("validate", "gencheck") for c in _MC),
        zero_layers=_NO_TABLES,
    ),
    Workload(
        "sample-csv",
        "step uniforms, increment sampling and row-by-row CSV writing do all "
        "the work; no check suite runs (CSV vectorisation, worker threads)",
        tuple(Job("sample", c, w) for c in _SAMPLED for w in (1, 2)),
        zero_layers=_NO_TABLES + ("kernels.ck_defect_calls",),
    ),
)}

# name, unit, better, bound: measured with tracing off, reported on every
# workload.  The per-subcommand split (validate_s, fdd_s, gencheck_s,
# sample_rows_per_s) is printed too but exists only where the workload has
# such jobs, so it is not gated.  The raw wall_s is printed but not gated:
# it swings with the load of a shared host (see speed.py).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("scaled_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
)

# name, unit, better, the end-to-end metric it should move (on which workload)
PER_LAYER = (
    ("config.load_s", "s", "lower", "setup_s, validate_s (all)"),
    ("lattice.orderings_s", "s", "lower", "setup_s, validate_s (all)"),
    ("lattice.orderings", "count", "lower", "setup_s, validate_s (all)"),
    ("construction.exact_fdd_s", "s", "lower", "validate_s, fdd_s, peak_rss_mb (exact-tables)"),
    ("construction.exact_fdd_calls", "count", "lower", "validate_s, fdd_s (exact-tables)"),
    ("construction.table_entries", "count", "lower", "validate_s, peak_rss_mb (exact-tables)"),
    ("construction.jointlaw_ops_s", "s", "lower", "validate_s (exact-tables)"),
    ("kernels.pmf_calls", "count", "lower", "validate_s (exact-tables)"),
    ("kernels.pmf_s", "s", "lower", "validate_s (exact-tables)"),
    ("distributions.binomial_pmf_calls", "count", "lower", "validate_s (exact-tables)"),
    ("distributions.compound_poisson_dict_calls", "count", "lower",
     "validate_s (exact-tables)"),
    ("verify.conditional_s", "s", "lower", "validate_s (exact-tables)"),
    ("verify.conditional_events", "count", "lower", "validate_s (exact-tables)"),
    ("verify.conditional_skipped", "count", "lower", "validate_s (exact-tables)"),
    ("kernels.ck_defect_s", "s", "lower", "validate_s (mc-quadrature)"),
    ("kernels.ck_defect_calls", "count", "lower", "validate_s (mc-quadrature)"),
    ("distributions.twostage_cdf_calls", "count", "lower", "validate_s (mc-quadrature)"),
    ("distributions.twostage_cdf_s", "s", "lower", "validate_s (mc-quadrature)"),
    ("generators.system_s", "s", "lower", "validate_s, gencheck_s (mc-quadrature)"),
    ("generators.integral_s", "s", "lower", "validate_s, gencheck_s (mc-quadrature)"),
    ("generators.permutation_s", "s", "lower", "validate_s (exact-tables, mc-quadrature)"),
    ("generators.fd_s", "s", "lower", "validate_s, gencheck_s (mc-quadrature)"),
    ("verify.mc_s", "s", "lower", "validate_s (mc-quadrature)"),
    ("construction.sample_increments_s", "s", "lower",
     "sample_rows_per_s (sample-csv), validate_s (mc-quadrature)"),
    ("construction.sampled_values", "count", "lower",
     "sample_rows_per_s (sample-csv), validate_s (mc-quadrature)"),
    ("rng.step_uniforms_s", "s", "lower",
     "sample_rows_per_s (sample-csv), validate_s (mc-quadrature)"),
    ("rng.uniforms", "count", "lower",
     "sample_rows_per_s (sample-csv), validate_s (mc-quadrature)"),
    ("grid.measure_of_calls", "count", "lower", "validate_s (mc-quadrature)"),
    ("suite.self_s", "s", "lower", "validate_s (exact-tables, mc-quadrature)"),
    ("cli.self_s", "s", "lower", "sample_rows_per_s (sample-csv)"),
    ("cli.bytes_written", "bytes", "lower", "sample_rows_per_s (sample-csv)"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced scaled_wall_s"),
)
