"""Write optimizer scan values at full precision, or compare two such dumps.

    python3 scripts/dump_scan_outputs.py dump OUTDIR --seeds 0 1 7 --step 0.05
    python3 scripts/dump_scan_outputs.py compare DIR_A DIR_B [--tol TOL]

``dump`` runs ``run_scan(scenario, step, "optimizer")`` with ``OptimizerConfig(seed=SEED)``
for each scenario and seed, through the `src` tree beside this script, and
writes ``OUTDIR/<scenario>-<seed>.csv`` with one row per grid point:
``p,q,min_value,converged``. Values are written with ``repr``, so they round-trip
exactly; the CLI's CSV keeps 12 significant digits. Run it from two checkouts
and ``compare``: it prints, per file and in total, the largest difference of
``min_value``, the signed range of B - A (so a change that only lowers minima
shows a range at or below 0), and the number of cells that differ, and exits 1
when a file is missing, a grid or ``converged`` flag differs, or a value
differs by more than ``--tol`` (default 0: any difference). The scan-side
twin of `dump_certify_outputs.py`. BLAS is held to one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import math
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from entpow import scans  # noqa: E402
from entpow.witnesses import OptimizerConfig  # noqa: E402

HEADER = ["p", "q", "min_value", "converged"]


def dump(outdir: Path, seeds: list[int], step: float) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    minimize = scans.product_minima
    for scenario in scans.SCENARIOS:
        for seed in seeds:
            found = []

            def recording(*args, **kwargs):  # run_scan's one optimizer call, kept per point
                found.append(minimize(*args, **kwargs))
                return found[-1]

            scans.product_minima = recording
            try:
                result = scans.run_scan(scenario, step, "optimizer", OptimizerConfig(seed=seed))
            finally:
                scans.product_minima = minimize
            (minima,) = found
            with open(outdir / f"{scenario}-{seed}.csv", "w", newline="") as fh:
                out = csv.writer(fh, lineterminator="\n")
                out.writerow(HEADER)
                for (p, q, value), flag in zip(result.rows, minima.converged.tolist(), strict=True):
                    out.writerow([repr(p), repr(q), repr(value), flag])
    return 0


def read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != HEADER:
        raise ValueError(f"{path}: not a scan dump")
    return rows[1:]


def compare(a: Path, b: Path, tol: float) -> int:
    names_a = {p.name for p in a.glob("*.csv")}
    names_b = {p.name for p in b.glob("*.csv")}
    problems = [f"{n}: only in {a}" for n in sorted(names_a - names_b)]
    problems += [f"{n}: only in {b}" for n in sorted(names_b - names_a)]
    cells = differ = 0
    largest, low, high = 0.0, math.inf, -math.inf
    for name in sorted(names_a & names_b):
        rows_a, rows_b = read(a / name), read(b / name)
        if [r[:2] for r in rows_a] != [r[:2] for r in rows_b]:
            problems.append(f"{name}: grids differ")
            continue
        signed = [float(y[2]) - float(x[2]) for x, y in zip(rows_a, rows_b)]
        gaps = [abs(g) for g in signed]
        flags = sum(x[3] != y[3] for x, y in zip(rows_a, rows_b))
        moved = sum(x[2] != y[2] for x, y in zip(rows_a, rows_b))
        cells, differ, largest = cells + len(gaps), differ + moved, max(largest, *gaps)
        low, high = min(low, *signed), max(high, *signed)
        print(f"{name}: {moved} of {len(gaps)} values differ, largest by {max(gaps):.3g}, "
              f"B - A in [{min(signed):.3g}, {max(signed):.3g}]; {flags} converged flags differ")
        if flags:
            problems.append(f"{name}: {flags} converged flags differ")
        if max(gaps) > tol:
            problems.append(f"{name}: a value differs by {max(gaps):.3g} > {tol:.3g}")
    for line in problems:
        print(line)
    print(f"{differ} of {cells} values differ, largest by {largest:.3g}, "
          f"B - A in [{low:.3g}, {high:.3g}]; {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump")
    p_dump.add_argument("outdir", type=Path)
    p_dump.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    p_dump.add_argument("--step", type=float, default=0.05)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    p_cmp.add_argument("--tol", type=float, default=0.0)
    args = parser.parse_args()
    if args.command == "dump":
        return dump(args.outdir, args.seeds, args.step)
    return compare(args.a, args.b, args.tol)


if __name__ == "__main__":
    sys.exit(main())
