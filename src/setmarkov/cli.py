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
import io
import json
import math
import os
import stat
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from . import __version__
from .config import load_config, merge_tolerance_overrides
from .construction import MixtureSpec, decompose_over_lefts, exact_fdd, sample_increments
from .errors import ConfigError, SetMarkovError
from .floatfmt import WIDTH, format_floats
from .suite import FD_EPS, run_gencheck, run_validation_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
# Rows per block of the CSV writer: enough to spread numpy's per-call cost,
# few enough that a block's strings stay small next to the sample matrix.
BLOCK_ROWS = 1024
# Rows per slice of ``sample``: each worker thread draws one slice at a time,
# and the calling thread formats and writes the drawn slices in order, so
# memory is bounded by this, not by --n.  Drawing (scipy's quantiles release
# the GIL) overlaps formatting (many small numpy calls, which hold it).  On the
# ``sample-csv`` workload (2-CPU x86-64 VM, medians of 3 runs) 8,192 rows took
# 5.04 s against 4.24 s at 32,768, as glibc kept trimming the heap between
# slices; 65,536 rows took no less time and 12 MB more peak RSS (95 MB).
SLICE_ROWS = 32 * BLOCK_ROWS
# Bytes of a cell's slot in ``format_rows``: its repr, then a separator.
SLOT = WIDTH + 2


def _describe_initial(cfg) -> str:
    spec = cfg.spec
    if isinstance(spec, MixtureSpec):
        parts = [c.kernel.describe_initial(c.min_set) for c in spec.components]
        return " | ".join(f"{w:g}*({p})" for w, p in zip(spec.weights, parts))
    return spec.kernel.describe_initial(spec.min_set)


def _write_json(path, payload):
    # a NaN or infinity is not JSON: json.dumps raises rather than write it
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
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


@lru_cache(maxsize=8)
def _slots(values: bytes) -> np.ndarray:
    """The slot of each float64 in ``values``: its repr, zero bytes, then a
    comma in the next-to-last byte.  Kept for the next blocks with the same
    distinct values, as the blocks of a finite-state kind mostly are."""
    texts = np.zeros((len(values) // 8, SLOT), dtype=np.uint8)
    texts[:, :WIDTH] = format_floats(np.frombuffer(values, dtype=np.float64))
    texts[:, WIDTH] = ord(",")
    texts.flags.writeable = False
    return texts


def format_rows(block: np.ndarray, dedupe: bool = True) -> bytes:
    """CSV lines of a 2-d float array: every value as its shortest
    round-trip ``repr``, comma-separated, each line ended by CRLF -- the bytes
    ``csv.writer`` writes for those strings.

    Every cell is formatted by ``floatfmt.format_floats`` into a zero-padded
    slot that ends in a comma; the last cell of each row ends in CRLF
    instead, and dropping the zero bytes leaves the lines.  With ``dedupe``
    each distinct bit pattern of the block (-0.0 and 0.0 stay apart) is
    formatted once, through ``_slots``, and gathered back into the cells:
    this pays where values repeat, as in the blocks of a finite-state kind,
    and costs an ``np.unique`` sort where every value is distinct, as in
    those of a continuous kind.
    """
    rows, cols = block.shape
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64).ravel()
    if dedupe:
        values, inverse = np.unique(bits, return_inverse=True)
        cells = np.take(_slots(values.tobytes()), inverse, axis=0)
    else:
        cells = np.empty((len(bits), SLOT), dtype=np.uint8)
        cells[:, :WIDTH] = format_floats(bits.view(np.float64))
        cells[:, WIDTH:] = (ord(","), 0)
    cells = cells.reshape(rows, cols, SLOT)
    cells[:, -1, WIDTH:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    flat = cells.ravel()
    return flat[flat != 0].tobytes()


def _write_csv(path, header, lines) -> int:
    """The header row through ``csv.writer`` (names are quoted as needed, in
    UTF-8), then each bytes of the iterable.  Returns the bytes written.
    A draw or write that raises removes the file, if it is a regular one."""
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with open(path, "wb") as f:
        try:
            f.write(head.getvalue().encode())
            f.writelines(lines)
        except BaseException:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise
    return os.path.getsize(path)


def _report_written(command, rows, size, start) -> None:
    seconds = max(time.perf_counter() - start, 1e-9)
    print(f"{command}: {rows} rows, {size} bytes in {seconds:.3f} s "
          f"({rows / seconds:.0f} rows/s)", file=sys.stderr)


def cmd_sample(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    spec = cfg.spec
    kernel = spec.kernel
    n, workers = args.n, args.workers
    groups = [decompose_over_lefts(spec.lefts, mask) for _, mask in cfg.derived_sets]

    def slice_block(first: int) -> np.ndarray:
        """Rows first .. first + SLICE_ROWS - 1 in display units, derived sets last."""
        inc = sample_increments(spec, cfg.seed, min(SLICE_ROWS, n - first), start=first)
        block = np.zeros((len(inc), inc.shape[1] + len(groups)))
        block[:, :inc.shape[1]] = inc
        for j, g in enumerate(groups, inc.shape[1]):
            for i in g:  # from 0.0, term by term, as Python's sum adds
                block[:, j] += inc[:, i]
        return kernel.display(block)

    def formatted(block):
        """The CSV lines of a drawn slice, one bytes a block; the slice is
        let go when its last block is formatted, before the next is awaited."""
        for s in range(0, len(block), BLOCK_ROWS):
            yield format_rows(block[s:s + BLOCK_ROWS], dedupe=kernel.finite_state)

    def lines():
        # the pool draws the slices, which finish out of order; this thread
        # formats and writes them in order, and at most ``workers`` drawn
        # slices wait besides the one being formatted
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for first in range(0, n, SLICE_ROWS):
                pending.append(pool.submit(slice_block, first))
                if len(pending) > workers:
                    yield from formatted(pending.popleft().result())
            while pending:
                yield from formatted(pending.popleft().result())

    header = [f"C{i}" for i in range(len(spec.ordering))] + [name for name, _ in cfg.derived_sets]
    _report_written("sample", n, _write_csv(args.out, header, lines()), start)
    return EXIT_PASS


def cmd_fdd(args) -> int:
    start = time.perf_counter()
    cfg = load_config(args.config)
    spec = cfg.spec
    law = exact_fdd(spec).sorted()
    kernel = spec.kernel

    def lines():
        for s in range(0, len(law.probs), BLOCK_ROWS):
            part = slice(s, s + BLOCK_ROWS)
            yield format_rows(np.column_stack([kernel.display(law.keys[part]),
                                               law.probs[part]]))

    header = list(law.labels) + ["probability"]
    _report_written("fdd", len(law.probs), _write_csv(args.out, header, lines()), start)
    return EXIT_PASS


def _steps(text: str) -> list[float]:
    """The step sizes of ``gencheck --eps``: finite numbers above 0."""
    try:
        eps = [float(e) for e in text.split(",")]
    except ValueError:
        raise ConfigError(f"--eps {text}: not a comma-separated list of numbers") from None
    for e in eps:
        if not 0.0 < e < math.inf:
            raise ConfigError(f"--eps {text}: step {e:g} is not a finite number above 0")
    return eps


def cmd_gencheck(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    eps = _steps(args.eps) if args.eps else FD_EPS
    if args.tolerance is not None and not args.tolerance >= 0.0:
        raise ConfigError(f"--tolerance {args.tolerance:g} is not a number of at least 0")
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
    except OSError as e:
        # every file read goes through load_config, which reports a failure
        # as a ConfigError: what is left is the output
        print(f"error: cannot write {args.out or 'stdout'}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
