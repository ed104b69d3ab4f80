"""Only ``transform._in_shares`` starts threads in ``src/``.

``_in_shares`` runs each share on a thread it starts for the call and joins
them before it returns; every share writes into arrays the calling thread
made, because full-size arrays that a worker thread allocates and frees
stay in that thread's malloc arena and raise the peak memory.  So no other
function in ``src/`` may construct a ``threading.Thread``, subclass it, or
make a thread pool that would start threads of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vilenkin_lab"
ALLOWED = {("transform.py", "_in_shares")}
THREAD_MAKERS = {"Thread", "ThreadPoolExecutor", "ThreadPool"}


def thread_constructions(tree):
    """(line, enclosing top-level function or class, what) for each call of,
    or class based on, a name in THREAD_MAKERS in ``tree``."""

    def name(node):
        return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None

    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name(node.func) in THREAD_MAKERS:
                yield node.lineno, owner, name(node.func)
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if name(base) in THREAD_MAKERS:
                        yield node.lineno, owner, f"subclass of {name(base)}"


def test_only_in_shares_constructs_a_thread():
    found, allowed = [], []
    for path in sorted(SRC.glob("*.py")):
        for line, owner, what in thread_constructions(ast.parse(path.read_text(encoding="utf-8"))):
            (allowed if (path.name, owner) in ALLOWED else found).append(f"{path.name}:{line}: {what} in {owner}")
    assert found == []
    # the scan sees the one construction it allows
    assert len(allowed) == 1 and "Thread in _in_shares" in allowed[0]


def test_the_scan_finds_each_form():
    source = "\n".join([
        "threading.Thread(target=run)",
        "def f():",
        "    return Thread(target=run)",
        "class Worker(threading.Thread):",
        "    pass",
        "def g():",
        "    with concurrent.futures.ThreadPoolExecutor(2) as pool:",
        "        pass",
        "def h():",
        "    return multiprocessing.pool.ThreadPool(2)",
        # none of these starts a thread
        "threading.get_ident()",
        "threading.Lock()",
        "thread.start()",
    ])
    found = list(thread_constructions(ast.parse(source)))
    assert [(line, owner) for line, owner, _ in found] == [
        (1, None), (3, "f"), (4, "Worker"), (7, "g"), (10, "h")
    ]
