"""Output checks for the benchmark's jobs.

They compare fields, not bytes, where a legitimate refactor may change the
bytes, and each returns ``None`` for a correct output or a one-line reason.
References were recorded from the seed commit by ``record_reference.py``.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import os
from collections import Counter

REFERENCE_DIR = "perfbench/reference"
FDD_TV_BOUND = 1e-12
KEY_DECIMALS = 9  # fdd outcome values are counts/n or sums of jumps


def verdict(report: dict, rc: int) -> dict:
    """The parts of a validate or gencheck report the checks compare."""
    rows = report.get("checks", [])
    names = [r.get("name", r.get("check")) for r in rows]
    return {"rc": rc, "pass": report.get("pass"),
            "checks": sorted([n, bool(r.get("pass"))] for n, r in zip(names, rows))}


def check_report(path: str, rc: int, want: dict) -> str | None:
    """Exit code, overall ``pass`` and the multiset of (check name, pass)."""
    try:
        with open(path) as f:
            got = verdict(json.load(f), rc)
    except (OSError, json.JSONDecodeError) as e:
        return f"unreadable report: {e}"
    for key in ("rc", "pass"):
        if got[key] != want[key]:
            return f"{key} is {got[key]!r}, reference {want[key]!r}"
    if Counter(map(tuple, got["checks"])) != Counter(map(tuple, want["checks"])):
        return f"check rows {got['checks']} differ from reference {want['checks']}"
    return None


def read_fdd(lines) -> tuple[list[str], dict[tuple, float]]:
    """Header and {outcome: probability} of an fdd CSV (keys rounded)."""
    rows = csv.reader(lines)
    header = next(rows)
    law: dict[tuple, float] = {}
    for row in rows:
        key = tuple(round(float(v), KEY_DECIMALS) for v in row[:-1])
        law[key] = law.get(key, 0.0) + float(row[-1])
    return header, law


def tv(a: dict, b: dict) -> float:
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def check_fdd(path: str, reference_gz: str) -> str | None:
    """Same header; TV distance to the reference law at most 1e-12.
    Rows of probability exactly 0 may be missing."""
    try:
        with open(path, newline="") as f:
            header, law = read_fdd(f)
    except (OSError, ValueError, StopIteration, IndexError) as e:
        return f"unreadable fdd CSV: {e}"
    with gzip.open(reference_gz, "rt", newline="") as f:
        want_header, want = read_fdd(f)
    if header != want_header:
        return f"header {header} differs from reference {want_header}"
    d = tv(law, want)
    if not d <= FDD_TV_BOUND:
        return f"TV distance {d:.3g} from the reference law exceeds {FDD_TV_BOUND:g}"
    return None


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_sample(path: str, rows: int, want: dict, digest: str) -> str | None:
    """Header and row count, and the digest where the reference has one.

    ``want`` holds the reference ``header`` and ``sha256`` (may be None)."""
    try:
        with open(path, newline="") as f:
            header = next(csv.reader([f.readline()]))
            count = sum(1 for _ in f)
    except (OSError, StopIteration) as e:
        return f"unreadable sample CSV: {e}"
    if header != want["header"]:
        return f"header {header} differs from reference {want['header']}"
    if count != rows:
        return f"{count} rows, expected {rows}"
    if want.get("sha256") is not None and digest != want["sha256"]:
        return f"sha256 {digest[:16]}... differs from reference {want['sha256'][:16]}..."
    return None


class References:
    """Reference outputs of the seed commit, keyed by config and job seed."""

    def __init__(self, root: str):
        self.dir = os.path.join(root, REFERENCE_DIR)
        with open(os.path.join(self.dir, "reports.json")) as f:
            self.reports = json.load(f)
        with open(os.path.join(self.dir, "samples.json")) as f:
            self.samples = json.load(f)

    def report(self, command: str, config: str, job_seed: int) -> dict:
        return self.reports[command][config][str(job_seed)]

    def fdd(self, config: str) -> str:
        return os.path.join(self.dir, "fdd", f"{config}.csv.gz")

    def sample(self, config: str, job_seed: int) -> dict:
        ref = self.samples[config]
        return {"header": ref["header"], "sha256": ref["sha256"].get(str(job_seed))}
