"""Compare two `dump_certify_outputs.py` directories; exit 1 on a difference.

    python3 scripts/compare_certify_outputs.py DIR_A DIR_B

Both directories must hold the same files. The ``schmidt`` outputs must be
byte-equal. For each ``classify`` output the two sides must agree on the
verdict, the note, every witness violation (kind "witness") and the list of
``(kind, kraus_index)`` over all violations; stochastic violations may differ
in their input and value. The benchmark's verifier (`bench/verify.py`
``check_classify``, read but never changed) must report the same problem
kinds and the same ``decided`` count on both sides. Prints one line per
difference and a summary.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench")]

import verify  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"(\d+)-(.+)-(classify|schmidt)\.txt")


@lru_cache(maxsize=None)
def channels(seed: int) -> dict:
    return {ch.name: ch for ch in workloads.certify_channels(seed)}


def certificate(text: str) -> dict:
    """The JSON printed by ``classify``, without the dump's ``exit N`` line."""
    body, _, code = text.rstrip("\n").rpartition("\n")
    if code != "exit 0":
        raise ValueError(f"classify ended with {code!r}")
    return json.loads(body)


def verifier(seed: int, name: str, blob: dict) -> tuple[list[str], int]:
    outcome = verify.check_classify(channels(seed)[name], blob)
    return sorted(p.kind for p in outcome.problems), outcome.decided


def classify_differences(seed: int, name: str, text_a: str, text_b: str) -> list[str]:
    a, b = certificate(text_a), certificate(text_b)
    out = []
    for key in ("verdict", "note"):
        if a.get(key) != b.get(key):
            out.append(f"{key} {a.get(key)!r} vs {b.get(key)!r}")
    va, vb = a.get("violations", []), b.get("violations", [])
    if [v for v in va if v["kind"] == "witness"] != [v for v in vb if v["kind"] == "witness"]:
        out.append("witness violations differ")
    kinds_a = [(v["kind"], v["kraus_index"]) for v in va]
    kinds_b = [(v["kind"], v["kraus_index"]) for v in vb]
    if kinds_a != kinds_b:
        out.append(f"(kind, kraus_index) {kinds_a} vs {kinds_b}")
    check_a, check_b = verifier(seed, name, a), verifier(seed, name, b)
    if check_a != check_b:
        out.append(f"check_classify (problems, decided) {check_a} vs {check_b}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    files_a = {p.name for p in args.a.iterdir()}
    files_b = {p.name for p in args.b.iterdir()}
    problems = [f"{f}: only in {args.a}" for f in sorted(files_a - files_b)]
    problems += [f"{f}: only in {args.b}" for f in sorted(files_b - files_a)]
    common = sorted(files_a & files_b)
    for f in common:
        m = NAME.fullmatch(f)
        if m is None:
            problems.append(f"{f}: not a dump file name")
            continue
        text_a, text_b = (args.a / f).read_text(), (args.b / f).read_text()
        if m.group(3) == "schmidt":
            if text_a != text_b:
                problems.append(f"{f}: schmidt output differs")
            continue
        try:
            found = classify_differences(int(m.group(1)), m.group(2), text_a, text_b)
        except (ValueError, KeyError) as exc:
            found = [f"unreadable: {exc!r}"]
        problems += [f"{f}: {d}" for d in found]
    for line in problems:
        print(line)
    print(f"{len(common)} files compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
