"""Every tolerance of the package is a named entry of the table in `entpow.tensor`.

The table is the block of ``src/entpow/tensor.py`` from its ``# -- tolerances``
header to the next ``# --`` header. Outside it, no module may write an
e-notation literal or a float literal below 1e-3, except the few listed in
`ALLOWED`, each as often as listed. Every entry is read somewhere other than
the table, an import statement and `__init__.py`, so no entry is left orphaned.
"""

import io
import re
import shutil
import tokenize
from collections import Counter
from pathlib import Path

from entpow import tensor

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entpow"

# (module, literal) -> how often it may appear outside the table
ALLOWED = Counter({
    # the overflow guards of a root of a sum of squares, defined once
    ("witnesses.py", "1e-150"): 1,
    ("witnesses.py", "1e150"): 1,
    # the finite-difference spans of `_unitary_mix_peak`'s Newton steps
    ("witnesses.py", "1e-4"): 1,
    ("witnesses.py", "1e-6"): 1,
})


def table_span(source: str) -> range:
    """The 1-based line numbers of the table in the source of `tensor.py`."""
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("# -- tolerances"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("# -- "))
    return range(start + 1, end + 1)


def is_tolerance_literal(token: str) -> bool:
    text = token.lower().rstrip("j").replace("_", "")
    if text.startswith(("0x", "0o", "0b")):
        return False
    return "e" in text or 0.0 < float(text) < 1e-3


def stray_literals(package: Path) -> Counter:
    """(module, literal) -> count of the tolerance literals outside the table."""
    found = Counter()
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        skip = table_span(source) if path.name == "tensor.py" else range(0)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if (tok.type == tokenize.NUMBER and is_tolerance_literal(tok.string)
                    and tok.start[0] not in skip):
                found[path.name, tok.string] += 1
    return found


def test_no_tolerance_literal_outside_the_table():
    assert stray_literals(PACKAGE) == ALLOWED


def test_a_bare_tolerance_is_found(tmp_path):
    copy = tmp_path / "entpow"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    states = copy / "states.py"
    states.write_text(states.read_text(encoding="utf-8") + "\nCUTOFF = 1e-9\nSMALL = 0.0001\n",
                      encoding="utf-8")
    assert stray_literals(copy) - ALLOWED == Counter({("states.py", "1e-9"): 1,
                                                       ("states.py", "0.0001"): 1})


ENTRY = re.compile(r"^([A-Z_]+) = (\S+)  # (.*)$")


def test_every_entry_names_its_scale_rule():
    source = (PACKAGE / "tensor.py").read_text(encoding="utf-8")
    lines = [source.splitlines()[n - 1] for n in table_span(source)]
    entries = [ENTRY.match(line) for line in lines if line and not line.startswith("#")]
    assert all(entries)
    names = [m[1] for m in entries]
    assert len(set(names)) == len(names)
    for m in entries:
        assert getattr(tensor, m[1]) == float(m[2])
        assert m[3].startswith(("absolute", "relative"))



def unread_entries(package: Path) -> set[str]:
    """The table entries no module reads: named nowhere but in the table, in
    an import statement, or in `__init__.py`."""
    source = (package / "tensor.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    unread = {m[1] for n in table_span(source) if (m := ENTRY.match(lines[n - 1]))}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        skip = table_span(source) if path.name == "tensor.py" else range(0)
        importing = False
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NEWLINE:
                importing = False
            elif tok.type == tokenize.NAME and tok.string in ("from", "import"):
                importing = True
            elif tok.type == tokenize.NAME and not importing and tok.start[0] not in skip:
                unread.discard(tok.string)
    return unread


def test_every_entry_is_read():
    assert unread_entries(PACKAGE) == set()


def test_an_unread_entry_is_found(tmp_path):
    copy = tmp_path / "entpow"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    tensor_py = copy / "tensor.py"
    source = tensor_py.read_text(encoding="utf-8")
    entry = "SPARE_ATOL = 1e-10  # absolute: nothing\n"
    tensor_py.write_text(source.replace("\nTP_ATOL = ", "\n" + entry + "TP_ATOL = "),
                         encoding="utf-8")
    states = copy / "states.py"
    states.write_text(states.read_text(encoding="utf-8").replace(
        "from .tensor import (", "from .tensor import (\n    SPARE_ATOL,"), encoding="utf-8")
    assert unread_entries(copy) == {"SPARE_ATOL"}
