"""No process-wide mode switches in ``src/repro``.

Behaviour is selected by objects callers create and pass (a
``SeaweedConfig``), never by a module global that one system can flip
under another, and never by the environment.  The two allow-lists name
the only exceptions and why they are not switches.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: ``global`` statements: wire.py fills its adapter registry on first use.
GLOBAL_ALLOWED = {("proto/wire.py", "_adapters_by_class")}
#: ``os.environ`` reads: the launcher copies it for child processes.
ENVIRON_ALLOWED = {"serve/launcher.py"}


def test_no_global_statements_or_environment_reads():
    globals_found, environ_found = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Global):
                globals_found.update((relative, name) for name in node.names)
            elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                environ_found.add(relative)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if {alias.name for alias in node.names} & {"environ", "getenv"}:
                    environ_found.add(relative)
    assert globals_found == GLOBAL_ALLOWED
    assert environ_found == ENVIRON_ALLOWED
