"""Every modelled wire size is stated in ``repro.proto``.

A ``wire_size`` / ``size_bytes`` / ``summary_bytes`` method on a domain
class is a second place that decides what something costs on the wire;
:mod:`repro.proto.codec` is the one.  ``framing.Frame.wire_size``, the
length of a real encoded frame, lives in ``repro.proto`` as well.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

SIZE_METHODS = {"wire_size", "size_bytes", "summary_bytes"}


def test_no_size_formula_outside_proto():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("proto/"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in SIZE_METHODS:
                found.append(f"{relative}:{node.lineno} {node.name}")
    assert found == []
