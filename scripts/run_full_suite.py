#!/usr/bin/env python3
"""Run every CLI suite over the shipped configs and summarize exit codes.

Usage: python scripts/run_full_suite.py [--out DIR] [--seed N]
       python scripts/run_full_suite.py [--out DIR] --compare REF

With --compare nothing is run: each CSV under --out is compared with its
namesake under REF.  A byte-identical file is listed as identical;
otherwise every column gets its largest difference relative to the
column's largest magnitude.  The exit code is 1 if a file is missing on
either side or its header or row count changed, else 0.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from angen.cli import SUBCOMMANDS, main  # noqa: E402

CONFIGS = ["diagonal_small.json", "hermitian4.json", "identity.json"]


def _column_changes(new: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Largest |new - ref| per column over the column's largest magnitude; NaN
    against NaN is no change, NaN against a number an infinite one."""
    both_nan = np.isnan(new) & np.isnan(ref)
    diff = np.where(both_nan, 0.0, np.nan_to_num(np.abs(new - ref), nan=np.inf)).max(axis=0)
    scale = np.nanmax(np.abs(np.concatenate([new, ref])), axis=0, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff == 0.0, 0.0, diff / scale)


def compare(out: Path, ref: Path) -> int:
    """List each CSV under out or ref as identical or by its column changes."""
    names = sorted({p.relative_to(d) for d in (out, ref) for p in d.rglob("*.csv")})
    failed = 0
    for name in names:
        new_path, ref_path = out / name, ref / name
        if not (new_path.is_file() and ref_path.is_file()):
            print(f"{name}: missing under {out if ref_path.is_file() else ref}")
            failed = 1
            continue
        new_bytes, ref_bytes = new_path.read_bytes(), ref_path.read_bytes()
        if new_bytes == ref_bytes:
            print(f"{name}: identical")
            continue
        (new_head, *new_rows), (ref_head, *ref_rows) = (
            b.decode().splitlines() for b in (new_bytes, ref_bytes)
        )
        if new_head != ref_head or len(new_rows) != len(ref_rows):
            print(f"{name}: header or row count changed")
            failed = 1
            continue
        new_vals, ref_vals = (
            np.array([[float(v) for v in row.split(",")] for row in rows]) for rows in (new_rows, ref_rows)
        )
        changes = _column_changes(new_vals, ref_vals)
        listed = ", ".join(f"{col} {c:.1e}" for col, c in zip(new_head.split(","), changes))
        print(f"{name}: differs, largest relative change per column: {listed}")
    return failed


def run() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(ROOT / "out" / "full_suite"))
    ap.add_argument("--seed", default="0")
    ap.add_argument("--compare", metavar="REF", help="compare the CSVs under --out with REF")
    args = ap.parse_args()
    if args.compare is not None:
        return compare(Path(args.out), Path(args.compare))

    failures = 0
    rows = []
    for cfg in CONFIGS:
        for sub in SUBCOMMANDS:
            outdir = Path(args.out) / Path(cfg).stem / sub
            t0 = time.monotonic()
            code = main(
                [
                    sub,
                    "--config",
                    str(ROOT / "configs" / cfg),
                    "--out",
                    str(outdir),
                    "--seed",
                    args.seed,
                ]
            )
            dt = time.monotonic() - t0
            rows.append((cfg, sub, code, dt))
            if code != 0:
                failures += 1

    print()
    print(f"{'config':<22}{'subcommand':<18}{'exit':<6}{'seconds':>8}")
    for cfg, sub, code, dt in rows:
        print(f"{cfg:<22}{sub:<18}{code:<6}{dt:>8.2f}")
    print(f"\n{len(rows)} runs, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(run())
