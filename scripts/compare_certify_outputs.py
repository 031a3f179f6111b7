"""Compare two `dump_certify_outputs.py` directories; exit 1 on a difference.

    python3 scripts/compare_certify_outputs.py DIR_A DIR_B

Both directories must hold the same files. The ``schmidt``, ``schmidt-cut``
and ``demo-<stem>`` outputs must be byte-equal. For each ``classify`` output the
two sides must agree on the verdict, the note, the ``kraus_forms``, the
witness violations (kind "witness") and the list of ``(kind, kraus_index)``
over the other violations; stochastic violations may differ in their input
and value. A changed form is a difference, printed per file as its
``(old, new)`` pair with a count; the summary tallies each pair over all
files. Witness violations are matched by witness label: per file it prints
the labels only one side has (dropped from A, or added in B) and, per label
on both sides, how far the value moved, and any of these that is not an
exact match is a difference. The benchmark's verifier (`bench/verify.py`
``check_classify``, read but never changed) must report the same problem
kinds and the same ``decided`` count on both sides.
Prints one line per difference and a summary.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench")]

import verify  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"(?:(\d+)-(.+)-(classify|schmidt|schmidt-cut)|demo-.+)\.txt")


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


def by_label(violations: list[dict]) -> dict:
    """Witness violations keyed by label; a repeated label gets ``#2``, ``#3``, ..."""
    out = {}
    for v in violations:
        if v["kind"] == "witness":
            label = v["witness"].get("label", "")
            key, n = label, 1
            while key in out:
                n += 1
                key = f"{label}#{n}"
            out[key] = v
    return out


def witness_differences(va: list[dict], vb: list[dict]) -> list[str]:
    """Dropped and added witness labels, then, over the labels on both sides,
    the largest value move and the labels whose violation is not equal."""
    a, b = by_label(va), by_label(vb)
    out = []
    dropped, added = [k for k in a if k not in b], [k for k in b if k not in a]
    if dropped:
        out.append(f"witness labels dropped {dropped}")
    if added:
        out.append(f"witness labels added {added}")
    kept = [k for k in a if k in b]
    if kept != [k for k in b if k in a]:
        out.append("kept witness labels in a different order")
    moved = [k for k in kept if a[k] != b[k]]
    if moved:
        moves = {k: abs(a[k]["value"] - b[k]["value"]) for k in moved}
        top = max(moves, key=moves.get)
        out.append(f"witness violations differ for {moved}; largest value move "
                   f"{moves[top]:.3g} ({top})")
    return out


def form_changes(a: dict, b: dict) -> Counter:
    """``(old, new)`` form pairs, by Kraus index, where the two certificates'
    ``kraus_forms`` differ; lists of different lengths pair up as wholes."""
    fa, fb = a.get("kraus_forms", []), b.get("kraus_forms", [])
    if len(fa) != len(fb):
        return Counter({(str(fa), str(fb)): 1})
    return Counter((x, y) for x, y in zip(fa, fb) if x != y)


def classify_differences(seed: int, name: str, text_a: str, text_b: str,
                         forms: Counter) -> list[str]:
    """The differences of one ``classify`` file; its form changes are also
    added to `forms`."""
    a, b = certificate(text_a), certificate(text_b)
    out = []
    for key in ("verdict", "note"):
        if a.get(key) != b.get(key):
            out.append(f"{key} {a.get(key)!r} vs {b.get(key)!r}")
    changes = form_changes(a, b)
    forms.update(changes)
    out += [f"kraus_forms {old} -> {new} x{count}" for (old, new), count in changes.items()]
    va, vb = a.get("violations", []), b.get("violations", [])
    out += witness_differences(va, vb)
    kinds_a = [(v["kind"], v["kraus_index"]) for v in va if v["kind"] != "witness"]
    kinds_b = [(v["kind"], v["kraus_index"]) for v in vb if v["kind"] != "witness"]
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
    forms: Counter = Counter()
    for f in common:
        m = NAME.fullmatch(f)
        if m is None:
            problems.append(f"{f}: not a dump file name")
            continue
        text_a, text_b = (args.a / f).read_text(), (args.b / f).read_text()
        if m.group(3) != "classify":
            if text_a != text_b:
                problems.append(f"{f}: {m.group(3) or 'demo'} output differs")
            continue
        try:
            found = classify_differences(int(m.group(1)), m.group(2), text_a, text_b, forms)
        except (ValueError, KeyError) as exc:
            found = [f"unreadable: {exc!r}"]
        problems += [f"{f}: {d}" for d in found]
    for line in problems:
        print(line)
    for (old, new), count in sorted(forms.items()):
        print(f"kraus_forms {old} -> {new}: {count} operator(s)")
    print(f"{len(common)} files compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
