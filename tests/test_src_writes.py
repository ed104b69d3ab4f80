"""Every file ``src/`` writes goes through ``reporting.overwrite``.

Opening a file that holds data with ``O_TRUNC`` can stall for tens of
milliseconds, so ``src/`` has no ``write_text`` or ``write_bytes`` call, no
``open`` (builtin, ``io`` or ``Path``) in a mode that truncates, and no
``O_TRUNC`` flag.  ``overwrite`` writes in place and cuts the file at the
written length instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vilenkin_lab"


def truncating_writes(tree):
    """(line, what) for each truncating write in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC":
            yield node.lineno, "O_TRUNC"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        if name == "open" and owner != "os":  # os.open takes flags, checked for O_TRUNC
            # builtin and io open take the mode second, Path.open first
            position = 1 if isinstance(func, ast.Name) or owner == "io" else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            if len(node.args) > position:
                modes.append(node.args[position])
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                    yield node.lineno, "open with a computed mode"
                elif "w" in mode.value:
                    yield node.lineno, f"open mode {mode.value!r}"


def test_src_has_no_truncating_write():
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in truncating_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_scan_finds_each_form():
    source = "\n".join([
        "Path(p).write_text(t)",
        "p.write_bytes(b)",
        "open(p, 'w')",
        "open(p, mode='wb')",
        "io.open(p, 'w')",
        "Path(p).open('w')",
        "open(p, m)",
        "os.open(p, os.O_WRONLY | os.O_TRUNC)",
        # none of these truncates
        "open(p)",
        "open(p, 'rb')",
        "Path(p).open()",
        "os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)",
        "os.fdopen(fd, 'wb')",
    ])
    assert [line for line, _ in truncating_writes(ast.parse(source))] == [1, 2, 3, 4, 5, 6, 7, 8]
