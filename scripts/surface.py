#!/usr/bin/env python
"""surface: the size and option counts a simplicity PR reports in
CHANGES.md, printed instead of counted by hand: lines, config and
deployment-spec fields, constructor parameters, CLI flags, process-wide switches and the
distinct metric series names the source registers.

    PYTHONPATH=src python scripts/surface.py
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

from repro.cli import build_parser
from repro.core.config import SeaweedConfig
from repro.core.deployment import Deployment
from repro.core.system import SeaweedSystem
from repro.net.transport import Transport
from repro.obs.observer import Observer
from repro.overlay.network import OverlayConfig
from repro.serve.transport import AsyncioTransport
from repro.sim.simulator import Simulator


def main() -> None:
    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    text = [path.read_text(encoding="utf-8") for path in source.rglob("*.py")]
    print(f"src/repro: {len(text)} files, {sum(t.count(chr(10)) for t in text)} lines")
    for config in (SeaweedConfig, OverlayConfig, Deployment):
        print(f"{config.__name__}: {len(dataclasses.fields(config))} fields")
    for cls in (SeaweedSystem, Transport, Simulator, AsyncioTransport, Observer):
        count = len(inspect.signature(cls.__init__).parameters) - 1  # not self
        print(f"{cls.__name__}.__init__: {count} parameters")
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        name: sorted(opt for action in parser._actions for opt in action.option_strings
                     if opt not in ("-h", "--help"))
        for name, parser in subparsers.choices.items()
    }
    print(f"CLI: {len(flags)} subcommands, {sum(map(len, flags.values()))} flags")
    for name, options in flags.items():
        print(f"  {name}: {' '.join(options) or '-'}")
    for label, pattern in (("global", r"^\s*global\s"), ("os.environ", r"os\.environ")):
        print(f"{label}: {sum(len(re.findall(pattern, t, re.M)) for t in text)}")
    metric_names = {
        name for t in text
        for name in re.findall(r"\.(?:counter|gauge)\(\s*\"([^\"]+)\"", t)
    }
    print(f"metric series names registered in src: {len(metric_names)}")


if __name__ == "__main__":
    main()
