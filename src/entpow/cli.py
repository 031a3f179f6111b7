"""Command-line front end: classification, parameter scans, Schmidt reports.

Subcommands
-----------
``entpow classify <spec.json>``
    Reads a channel spec, runs the three-way certificate (stochastically
    non-entangling / entangling / inconclusive), prints the certificate as
    one JSON line.
``entpow scan --scenario fig3|fig4 --step S --engine E --out FILE``
    Evaluates the named two-parameter scan and writes a deterministic CSV.
``entpow schmidt <spec.json> [--cut 0,2]``
    Schmidt-rank report for a state spec; for a channel spec, the one line of
    `channel_schmidt_number_bounds`, and with ``--cut`` the Schmidt rank of
    the Choi state across that cut.

Exit codes: 0 success, 2 invalid input spec, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import __version__
from .channels import KrausChannel
from .errors import EntpowError, SpecError
from .power import (
    FORM_PERMUTATION,
    certify_kraus_channel,
    channel_schmidt_number_bounds,
    classify_kraus_many,
)
from .scans import SCENARIO_ALIASES, _check_step, get_scenario, run_scan, write_csv
from .serialize import (
    certificate_to_json,
    channel_from_json,
    load_spec,
    state_from_json,
)
from .states import DensityMatrix, PureState, is_ppt, pure_from_density, schmidt_rank
from .witnesses import DEFAULT_CONFIG, OptimizerConfig

_KINK_NOTE = (
    "note: the zero contour follows q = 1/2 and 3p + 4q = 3, meeting at "
    "(p, q) = (1/3, 1/2); the kink is sometimes quoted with the coordinates "
    "transposed, as (1/2, 1/3)."
)

_SWAP_CUT_NOTE = (
    "note: pairing each reference with its own output ({cut}) gives rank d^2; "
    "the crossed pairing gives rank 1. The value d sometimes quoted for this "
    "channel belongs to neither pairing of this cut."
)


def _parse_cut(text: str, n_parties: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecError("cut", f"cut must be comma-separated integers, got {text!r}") from None
    bad = [i for i in parts if not 0 <= i < n_parties]
    if bad:
        raise SpecError("cut", f"party indices {bad} out of range for {n_parties} parties")
    if len(set(parts)) != len(parts):
        raise SpecError("cut", f"repeated party index in {text!r}")
    return parts


def _fmt_cut(cut, n_parties: int) -> str:
    rest = [i for i in range(n_parties) if i not in cut]
    return "({})|({})".format(",".join(map(str, cut)), ",".join(map(str, rest)))


def cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    ch = channel_from_json(spec)
    cert = certify_kraus_channel(ch, OptimizerConfig(restarts=args.restarts, seed=args.seed))
    print(json.dumps(certificate_to_json(cert, __version__)))
    return 0


def cmd_scan(args) -> int:
    scenario = get_scenario(args.scenario)
    _check_step(args.step)  # before the out file is opened: a bad step leaves none behind
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    try:
        open(args.out, "a", encoding="utf-8").close()  # an unwritable path fails before the grid
        result = run_scan(args.scenario, args.step, engine=args.engine, optimizer=config)
        write_csv(result, args.out)
    except OSError as exc:
        raise SpecError("out", f"cannot write: {exc}") from None
    print(f"wrote {args.out}: {len(result.rows)} rows ({scenario.name}, {args.engine})")
    if scenario.name == "measurement":
        print(_KINK_NOTE, file=sys.stderr)
    if args.engine == "optimizer" and not result.all_converged:
        print(
            "error: optimizer failed to converge at some grid points",
            file=sys.stderr,
        )
        return 3
    return 0


def _schmidt_state_report(state: PureState | DensityMatrix, args) -> int:
    cut = (0,) if args.cut is None else _parse_cut(args.cut, state.dims.n)
    if isinstance(state, DensityMatrix):
        try:
            state = pure_from_density(state)
            print("mixed spec is numerically pure; using its dominant eigenvector")
        except EntpowError:
            print(f"mixed state on dims {state.dims.dims}")
            if state.dims.n == 2:
                verdict = "positive" if is_ppt(state) else "negative"
                print(f"partial transpose across (0)|(1): {verdict}")
            print("schmidt rank applies to pure states only; none reported")
            return 0
    dims = state.dims
    if dims.n < 2:
        raise SpecError("dims", "schmidt rank needs at least two parties")
    rank = schmidt_rank(state, cut)
    print(f"pure state on dims {dims.dims}")
    print(f"cut {_fmt_cut(cut, dims.n)}: schmidt rank {rank} (SVD of amplitude matrix)")
    return 0


def _schmidt_channel_report(ch: KrausChannel, args) -> int:
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    n2 = 2 * ch.dims.n  # the Choi state's parties: references, then outputs
    cut = None if args.cut is None else _parse_cut(args.cut, n2)
    print(f"channel on dims {ch.dims.dims} with {len(ch.kraus)} Kraus operator(s)")
    bounds = channel_schmidt_number_bounds(ch, config)
    print(f"channel schmidt number bounds: ({bounds.lower}, {bounds.upper}) [{bounds.method}]")
    if cut is not None:
        choi = ch.choi()
        try:
            psi = pure_from_density(choi)
        except EntpowError:
            print(
                f"choi cut {_fmt_cut(cut, n2)}: choi matrix is mixed; "
                "pure-state schmidt rank does not apply"
            )
            return 0
        rank = schmidt_rank(psi, cut)
        print(f"choi cut {_fmt_cut(cut, n2)}: schmidt rank {rank} (brute-force SVD)")
        forms = classify_kraus_many(ch.kraus, ch.dims, config)
        if all(f.form == FORM_PERMUTATION for f in forms):
            print(_SWAP_CUT_NOTE.format(cut=_fmt_cut(cut, n2)), file=sys.stderr)
    return 0


def cmd_schmidt(args) -> int:
    spec = load_spec(args.spec)
    kind = spec.get("kind")
    if kind in ("pure", "mixed"):
        return _schmidt_state_report(state_from_json(spec), args)
    return _schmidt_channel_report(channel_from_json(spec), args)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each `parse_args` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="entpow",
        description="Entangling power of quantum channels: classification, "
        "witness scans, Schmidt measures.",
    )
    parser.add_argument("--version", action="version", version=f"entpow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    search = argparse.ArgumentParser(add_help=False)  # the OptimizerConfig of every subcommand
    search.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed)
    search.add_argument("--restarts", type=int, default=DEFAULT_CONFIG.restarts)

    p_classify = sub.add_parser("classify", parents=[search],
                                help="certify a channel spec as SNE / entangling / inconclusive")
    p_classify.add_argument("spec", help="path to a channel spec JSON file")
    p_classify.set_defaults(func=cmd_classify)

    scenarios = sorted(SCENARIO_ALIASES) + sorted(SCENARIO_ALIASES.values())
    p_scan = sub.add_parser("scan", parents=[search],
                            help="two-parameter witness-minimum scan to CSV")
    p_scan.add_argument("--scenario", required=True, choices=scenarios)
    p_scan.add_argument("--step", type=float, default=0.01)
    p_scan.add_argument(
        "--engine", choices=("closed_form", "optimizer"), default="closed_form"
    )
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=cmd_scan)

    p_schmidt = sub.add_parser("schmidt", parents=[search],
                               help="Schmidt rank / channel Schmidt measures for a spec")
    p_schmidt.add_argument("spec", help="path to a state or channel spec JSON file")
    p_schmidt.add_argument(
        "--cut",
        default=None,
        help="comma-separated 0-based party indices of one block "
        "(for channels: indices into reference+output parties of the Choi state)",
    )
    p_schmidt.set_defaults(func=cmd_schmidt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error [{exc.field}]: {exc.message}", file=sys.stderr)
        return 2
    except EntpowError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
