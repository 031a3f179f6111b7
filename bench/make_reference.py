"""Regenerate the stored `unitary_mix` closed-form reference.

    python3 bench/make_reference.py

The stored file was made from entpow at the commit that introduced this
benchmark; scan outputs of later versions are checked against it, so do not
regenerate it to make a changed program pass.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from entpow.witnesses import unitary_mix_scan_min  # noqa: E402
from verify import REFERENCE, grid  # noqa: E402
from workloads import CLOSED_STEP  # noqa: E402


def main() -> None:
    values = np.array([
        unitary_mix_scan_min(i * CLOSED_STEP, j * CLOSED_STEP, shift=4.0 / 5.0)
        for i, j in grid("unitary_mix", CLOSED_STEP)
    ])
    np.save(REFERENCE, values)
    print(f"wrote {REFERENCE}: {values.size} values")


if __name__ == "__main__":
    main()
