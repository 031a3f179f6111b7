"""Write the CLI output of every `certify-mix` operation, for byte comparison.

    python3 scripts/dump_certify_outputs.py OUTDIR [--seeds 1 2 3]

For each seed (1 to 10 by default: 330 files) and each of the benchmark's
eleven `certify-mix` channels (`bench/workloads.py`), runs ``classify SPEC``,
``schmidt SPEC`` and ``schmidt SPEC --cut 0,2`` (which reads the Choi matrix)
through ``entpow.cli.main`` with the `src` tree beside this script, and writes
stdout to ``OUTDIR/<seed>-<channel>-<command>.txt``, the last command named
``schmidt-cut``. It then runs each script in ``demos/`` and writes its stdout
to ``OUTDIR/demo-<stem>.txt``. Run it from two checkouts and compare with
``diff -r``: a change that keeps the search bitwise gives no difference.
`compare_certify_outputs.py` compares what must stay equal when only
stochastic evidence may change. BLAS is held to one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import entpow.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for ch in workloads.certify_channels(seed):
                spec = Path(tmp) / f"{ch.name}.json"
                spec.write_text(json.dumps(ch.spec))
                for command, *flags in (["classify"], ["schmidt"], ["schmidt", "--cut", "0,2"]):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = entpow.cli.main([command, str(spec), *flags])
                    text = out.getvalue() + f"exit {code}\n"
                    name = command + ("-cut" if flags else "")
                    (args.outdir / f"{seed}-{ch.name}-{name}.txt").write_text(text)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        (args.outdir / f"demo-{demo.stem}.txt").write_text(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
