"""entpow benchmark: CLI workloads driven in-process, with verified outputs.

    python3 bench/run.py --workload scan-optimizer --seed 1 --seconds 58 --trace 0

Workloads (see bench/README.md for why each exists):

* ``scan-optimizer``   -- ``scan --engine optimizer --step 0.05`` on
  `measurement`, then `unitary_mix`, with ``--seed`` set to the workload seed;
* ``certify-mix``      -- ``classify SPEC`` then ``schmidt SPEC`` for each of
  eleven seeded channel specs with labels known by construction;
* ``scan-closed-form`` -- ``scan --step 0.005`` (closed forms) on both
  scenarios; it runs on request but is not in BENCHMARK.json (bench/README.md
  says why).

One iteration runs every operation of the workload through ``entpow.cli.main``
and verifies its output; iterations repeat until ``--seconds`` is used up, and
at least MIN_ITERATIONS times. Between iterations one more set-up sample is
taken, so set-up and operations are both sampled across the whole run.
Times are CPU seconds of the process (all its threads), which leave out the
time the host gives the virtual CPUs to other guests; BLAS runs one thread, so
no idle BLAS thread spins on the CPU clock.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` one untraced and one traced iteration run, and it holds the
per-layer metrics. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("scan-optimizer", "scan-closed-form", "certify-mix")
MIN_ITERATIONS = 3   # so each operation's time is a median of at least three
SETUP_BEFORE = 2     # set-up samples before the first iteration; one more follows each
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import entpow.cli; print(time.process_time() - t)"
)


@dataclass
class Op:
    """One CLI invocation and the check of its output."""

    command: str
    argv: list[str]
    check: Callable[[str], object]  # stdout -> verify.Outcome
    channel: object = None          # workloads.Channel for certify-mix operations


@dataclass
class Iteration:
    wall: float = 0.0
    op_s: list = field(default_factory=list)     # per operation: CPU s of CLI call and check
    op_wall: list = field(default_factory=list)  # the same, wall-clock seconds
    command_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    expected: list = field(default_factory=list)
    decided: int = 0
    labelled: int = 0


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one iteration; certify-mix writes its spec files."""
    import verify
    import workloads

    if workload in ("scan-optimizer", "scan-closed-form"):
        reference = verify.UnitaryMixReference()
        optimizer = workload == "scan-optimizer"
        step = workloads.OPT_STEP if optimizer else workloads.CLOSED_STEP
        ops = []
        for scenario in workloads.SCENARIOS:
            out = workdir / f"{scenario}.csv"
            argv = ["scan", "--scenario", scenario, "--step", str(step), "--out", str(out)]
            if optimizer:
                argv += ["--engine", "optimizer", "--seed", str(seed)]
            engine = "optimizer" if optimizer else "closed_form"

            def check(_stdout, out=out, scenario=scenario, engine=engine):
                text = out.read_text()
                out.unlink()  # the next iteration must write its own file
                return verify.check_scan(text, scenario, step, engine, reference)

            ops.append(Op("scan", argv, check))
        return ops
    if workload == "certify-mix":
        ops = []
        for ch in workloads.certify_channels(seed):
            spec = workdir / f"{ch.name}.json"
            spec.write_text(json.dumps(ch.spec))
            ops.append(Op("classify", ["classify", str(spec)],
                          lambda out, ch=ch: verify.check_classify(ch, json.loads(out)), ch))
            ops.append(Op("schmidt", ["schmidt", str(spec)],
                          lambda out, ch=ch: verify.check_schmidt(ch, out), ch))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def run_iteration(ops: list[Op]) -> Iteration:
    """Run every operation, then verify it; failures are counted, never raised."""
    import entpow.cli
    import verify

    it = Iteration()
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = entpow.cli.main(op.argv)  # looked up per call, so tracing sees it
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception as exc:  # a crash is one failed operation
            code = f"crash: {exc!r}"
        it.command_s[op.command] = it.command_s.get(op.command, 0.0) + time.perf_counter() - t0
        if code != 0:
            problems = [verify.Problem("exit", f"exit {code}: {err.getvalue().strip()[:200]}")]
        else:
            try:
                outcome = op.check(out.getvalue())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcome = verify.Outcome([verify.Problem("format", repr(exc))], 0, 0)
            problems = outcome.problems
            it.decided += outcome.decided
            it.labelled += outcome.labelled
        it.op_s.append(time.process_time() - c0)
        it.op_wall.append(time.perf_counter() - t0)
        it.attempted += 1
        if problems:
            it.failed += 1
            name = f"{op.command} {op.channel.name if op.channel else op.argv[2]}"
            summary = f"{name}: " + "; ".join(f"[{p.kind}] {p.detail}" for p in problems[:3])
            if verify.is_expected(op.channel, problems):
                it.expected.append(summary)
            else:
                it.unexpected.append(summary)
    it.wall = time.perf_counter() - start
    return it


@dataclass
class Setup:
    """Set-up CPU time samples: `import entpow.cli` in a fresh interpreter, input generation."""

    imports: list = field(default_factory=list)
    gens: list = field(default_factory=list)

    def sample(self, workload: str, seed: int, workdir: Path) -> list[Op]:
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        self.imports.append(float(proc.stdout.strip().splitlines()[-1]))
        t0 = time.process_time()
        ops = build_ops(workload, seed, workdir)
        self.gens.append(time.process_time() - t0)
        return ops

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.gens)


def median_time(iterations: list[Iteration], attr: str = "op_s") -> float:
    """Sum over operations of each one's median time in the run.

    Load outside this process moves the machine's speed between levels up to
    1.4x apart for seconds at a time; the median keeps a short phase at
    either level out, where the fastest time would report a fast phase
    whenever a run happens to see one.
    """
    return sum(statistics.median(times)
               for times in zip(*(getattr(it, attr) for it in iterations)))


def environment(seed: int, entpow_threads: str | None, blas_before: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "entpow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: f"1 (was {blas_before[k]})" for k in BLAS_VARS},
        "ENTPOW_THREADS": "unset" if entpow_threads is None
        else f"unset (was {entpow_threads!r}, removed)",
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def per_layer(tr, untraced: Iteration, traced: Iteration) -> dict:
    calls, own, counts = tr.calls, tr.self_time, tr.counts

    def ratio(num, den):
        return num / den if den else 0.0

    mop = "witnesses.min_over_products"
    m = {
        f"{mop}.calls": calls[mop],
        f"{mop}.self_s": own[mop],
        f"{mop}.restarts": counts[f"{mop}.restarts"],
        f"{mop}.converged_ratio": ratio(counts[f"{mop}.converged"], calls[mop]),
        f"{mop}.spread_max": tr.spread_max,
        "witnesses.minimize_scalar.calls": counts["witnesses.minimize_scalar.calls"],
        "witnesses.minimize_scalar.nfev": counts["witnesses.minimize_scalar.nfev"],
        "scans.points": counts["scans.points"],
        "scans.write_csv.s": tr.total["scans.write_csv"],
        "power.classify_kraus.product_preserving_ratio": ratio(
            counts["power.classify_kraus.product_preserving"], calls["power.classify_kraus"]),
        "power.certify_kraus_channel.nested_calls":
            counts["power.certify_kraus_channel.nested_calls"],
        "channels.build.calls": counts["channels.builds"],
        "channels.build.self_s": own["channels.build"],
        "channels.kraus_ops": counts["channels.kraus_ops"],
        "cli.classify_s": untraced.command_s.get("classify", 0.0),
        "cli.schmidt_s": untraced.command_s.get("schmidt", 0.0),
        "cli.fail_ratio": ratio(untraced.failed + traced.failed,
                                untraced.attempted + traced.attempted),
        "trace.wall_s": traced.wall,
        "trace.overhead_ratio": traced.wall / untraced.wall - 1.0,
        "trace.spans": len(tr.spans),
    }
    for dims in ("2x2", "3x3", "4x4"):
        m[f"{mop}.{dims}.self_s"] = own[f"{mop}.{dims}"]
    for name in ("witnesses.unitary_mix_scan_min", "witnesses.measurement_scan_min",
                 "scans.run_scan", "power.channel_schmidt_rank", "power.classify_kraus",
                 "power.certify_kraus_channel", "power.channel_schmidt_number_bounds",
                 "tensor.numerical_rank", "tensor.operator_schmidt", "channels.dual_apply",
                 "states.schmidt_rank", "cli.main"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = own[name]
    for verdict in ("sne", "entangling", "inconclusive"):
        m[f"power.verdicts.{verdict}"] = counts[f"power.verdicts.{verdict}"]
    for layer in ("tensor", "states", "channels", "witnesses", "power", "scans",
                  "serialize", "cli"):
        m[f"{layer}.self_s"] = tr.layer_self(layer)
    return m


def write_spans(tr, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, parent, thread, start, end in tr.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                 "thread": thread, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "entpow" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no entpow sources under {SRC} (or no {spec_path.name})",
              file=sys.stderr)
        return 1
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The scan thread pool must run at its default size. BLAS gets one thread
    # before numpy is first imported, here and in the set-up subprocesses.
    entpow_threads = os.environ.pop("ENTPOW_THREADS", None)
    blas_before = {k: os.environ.get(k, "unset") for k in BLAS_VARS}
    os.environ.update({k: "1" for k in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = Setup()
        for _ in range(SETUP_BEFORE):
            ops = setup.sample(args.workload, args.seed, workdir)
        import entpow.cli  # noqa: F401  (the in-process import the iterations use)

        iterations = []
        values: dict = {}
        if args.trace:
            from tracing import Tracer

            untraced = run_iteration(ops)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_iteration(ops)
            finally:
                tracer.uninstall()
            iterations = [untraced, traced]
            values.update(per_layer(tracer, untraced, traced))
            write_spans(tracer, WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                iterations.append(run_iteration(ops))
                ops = setup.sample(args.workload, args.seed, workdir)
                cycle = time.perf_counter() - t0
                if (len(iterations) >= MIN_ITERATIONS
                        and time.perf_counter() - start + cycle > args.seconds):
                    break
        values["setup_s"] = setup.seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    labelled = sum(it.labelled for it in iterations)
    values.update({
        "cpu_s": median_time(iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_ratio": sum(it.decided for it in iterations) / labelled if labelled else 0.0,
        "pass_ratio": (attempted - failed) / attempted,
    })
    unexpected = sorted({s for it in iterations for s in it.unexpected})
    expected = sorted({s for it in iterations for s in it.expected})
    command_s = {c: statistics.median(it.command_s.get(c, 0.0) for it in iterations)
                 for c in sorted({c for it in iterations for c in it.command_s})}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, iteration walls "
          + ", ".join(f"{it.wall:.3f}" for it in iterations) + " s, CPU "
          + ", ".join(f"{sum(it.op_s):.3f}" for it in iterations) + " s, set-up CPU samples "
          + ", ".join(f"{a + b:.3f}" for a, b in zip(setup.imports, setup.gens)) + " s")
    print(f"  {'wall_s':<56} {median_time(iterations, 'op_wall'):12.6g} s   "
          "(the cpu_s sum, in wall-clock seconds)")
    for line in expected:
        print(f"expected failure (known defect): {line}")
    for line in unexpected:
        print(f"FAILED: {line}")
    for command, secs in command_s.items():
        print(f"  {command + '_s':<56} {secs:12.6g} s   (median per iteration)")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            print(f"error: metric {name} is not measured by this benchmark", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name:<56} {values[name]:12.6g} {entry['unit']}")
    print(json.dumps({"environment": environment(args.seed, entpow_threads, blas_before)}))
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
