"""Command-line interface.

Subcommands: ``validate`` (run the check suite, JSON report), ``sample``
(seeded increment CSV), ``fdd`` (exact joint-law CSV), ``gencheck``
(generator checks, JSON).  Exit codes: 0 pass, 1 check failure, 2 usage or
configuration error.  All outputs are byte-deterministic for a fixed
(config, seed), independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import load_config, merge_tolerance_overrides
from .construction import MixtureSpec, decompose_over_lefts, exact_fdd, sample_increments
from .errors import ConfigError, SetMarkovError, UnsupportedKernelError
from .suite import FD_EPS, run_gencheck, run_validation_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
# Rows per block of the CSV writer: enough to spread numpy's per-call cost,
# few enough that a block's strings stay small next to the sample matrix.
BLOCK_ROWS = 1024


def _describe_initial(cfg) -> str:
    spec = cfg.spec
    if isinstance(spec, MixtureSpec):
        parts = [c.kernel.describe_initial(c.min_set) for c in spec.components]
        return " | ".join(f"{w:g}*({p})" for w, p in zip(spec.weights, parts))
    return spec.kernel.describe_initial(spec.min_set)


def _write_json(path, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    merge_tolerance_overrides(cfg, args.tolerance_overrides)
    if args.seed is not None:
        cfg.seed = args.seed
    rows = run_validation_suite(cfg)
    passed = all(r["pass"] for r in rows)
    report = {
        "tool": "setmarkov",
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "initial_law": _describe_initial(cfg),
        "checks": rows,
        "pass": passed,
    }
    _write_json(args.out, report)
    if not passed:
        failing = [r["name"] for r in rows if not r["pass"]]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_PASS


def format_rows(block: np.ndarray, distinct: bool) -> str:
    """CSV lines of a 2-d float array: every value as its shortest
    round-trip ``repr``, comma-separated, each line ended by CRLF -- the bytes
    ``csv.writer`` writes for those strings.

    With ``distinct`` each distinct bit pattern is formatted once and its
    string gathered into every cell that holds it (-0.0 and 0.0 stay apart);
    that pays when a block repeats few values, as finite-state kinds do.
    """
    if distinct:
        bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64).ravel()
        values, inverse = np.unique(bits, return_inverse=True)
        texts = np.array([repr(v) for v in values.view(np.float64).tolist()], dtype=object)
        cells = texts[inverse].tolist()
    else:
        cells = list(map(repr, block.ravel().tolist()))
    width = block.shape[1]
    return "".join([",".join(cells[i:i + width]) + "\r\n"
                    for i in range(0, len(cells), width)])


def _write_csv(path, header, blocks, distinct: bool) -> None:
    """The header row through ``csv.writer`` (names are quoted as needed),
    then each float block of the iterable through ``format_rows``."""
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        for block in blocks:
            f.write(format_rows(block, distinct))


def cmd_sample(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    spec = cfg.spec
    lefts = spec.lefts
    workers = max(1, args.workers)
    chunk = (args.n + workers - 1) // workers
    ranges = [(s, min(chunk, args.n - s)) for s in range(0, args.n, chunk)]

    def produce(rng):
        start, count = rng
        return sample_increments(spec, cfg.seed, count, start=start)

    if workers == 1:
        parts = [produce(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(produce, ranges))
    kernel = spec.kernel
    groups = [decompose_over_lefts(lefts, mask) for _, mask in cfg.derived_sets]

    def rows():
        for part in parts:
            for s in range(0, len(part), BLOCK_ROWS):
                inc = part[s:s + BLOCK_ROWS]
                block = np.zeros((len(inc), inc.shape[1] + len(groups)))
                block[:, :inc.shape[1]] = inc
                for j, g in enumerate(groups, inc.shape[1]):
                    for i in g:  # from 0.0, term by term, as Python's sum adds
                        block[:, j] += inc[:, i]
                yield kernel.display(block)

    header = [f"C{i}" for i in range(parts[0].shape[1])] + [n for n, _ in cfg.derived_sets]
    _write_csv(args.out, header, rows(), kernel.finite_state)
    return EXIT_PASS


def cmd_fdd(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.spec
    try:
        law = exact_fdd(spec).sorted()
    except UnsupportedKernelError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_USAGE
    kernel = spec.kernel

    def rows():
        for s in range(0, len(law.probs), BLOCK_ROWS):
            part = slice(s, s + BLOCK_ROWS)
            yield np.column_stack([kernel.display(law.keys[part]), law.probs[part]])

    _write_csv(args.out, list(law.labels) + ["probability"], rows(), kernel.finite_state)
    return EXIT_PASS


def cmd_gencheck(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    eps = [float(e) for e in args.eps.split(",")] if args.eps else FD_EPS
    rows = run_gencheck(cfg, eps, args.tolerance, ordering_index=args.ordering)
    passed = all(r["pass"] for r in rows)
    payload = {
        "tool": "setmarkov",
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "checks": rows,
        "pass": passed,
    }
    _write_json(args.out, payload)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="setmarkov",
                                description="set-indexed Markov process toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run the consistency check suite")
    v.add_argument("--config", required=True)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--out", default=None, help="report path (default stdout)")
    v.add_argument("--tolerance-overrides", default=None)
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("sample", help="draw seeded sample paths to CSV")
    s.add_argument("--config", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--workers", type=int, default=1)
    s.set_defaults(func=cmd_sample)

    f = sub.add_parser("fdd", help="exact joint law to CSV (finite-state kinds)")
    f.add_argument("--config", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fdd)

    g = sub.add_parser("gencheck", help="generator finite-difference and integral checks")
    g.add_argument("--config", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--eps", default=None, help="comma-separated step sizes")
    g.add_argument("--tolerance", type=float, default=None)
    g.add_argument("--ordering", type=int, default=0,
                   help="which consistent ordering's flow to check")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gencheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SetMarkovError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
