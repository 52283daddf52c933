"""What several ``repro-obs`` subcommands share: loading documents,
printing lines, the "raise --X" line, and argument types."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.obs import analyze


def load_json(path: str):
    """Any JSON file; exits with ``repro-obs: ...`` on a missing file or bad JSON."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"repro-obs: no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"repro-obs: {path} is not valid JSON: {exc}")


def load_document(path: str) -> dict:
    """Any JSON object document (trace or ledger)."""
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise SystemExit(f"repro-obs: {path} is not a JSON object document")
    return payload


def load_trace(path: str) -> analyze.TraceDocument:
    """A trace document; exits naming the file when it is not one."""
    try:
        return analyze.TraceDocument.from_dict(load_document(path))
    except analyze.TraceFormatError as exc:
        raise SystemExit(f"repro-obs: {path}: {exc}")


def print_lines(lines: Sequence[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def raise_line(indent: str, hidden: str, flag: str) -> str:
    """The line that says rows were cut and which flag shows them."""
    return f"{indent}... ({hidden}; raise {flag})"


def _at_least(convert, low, *, strict=False):
    """An argparse type: ``convert(text)``, refused below ``low`` (or at it, if strict)."""

    def parse(text: str):
        value = convert(text)
        if not (value > low if strict else value >= low):
            relation = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {relation} {low}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'" names it
    return parse


row_count = _at_least(int, 1)  # rows or items to show
line_limit = _at_least(int, 0)  # lines to show, 0 for all of them
fraction = _at_least(float, 0.0)  # a relative tolerance band
positive = _at_least(float, 0.0, strict=True)  # a length of time, a drift threshold
