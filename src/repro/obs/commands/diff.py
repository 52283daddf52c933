"""``repro-obs diff`` -- numeric deltas between two JSON documents (two
traces, or any two objects), one row per numeric leaf."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.obs import analyze
from repro.obs.commands._render import load_document, print_lines
from repro.obs.export import table


def register(sub) -> argparse.ArgumentParser:
    parser = sub.add_parser(
        "diff", help="numeric deltas between two JSON documents"
    )
    parser.add_argument("base", help="baseline JSON document")
    parser.add_argument("new", help="new JSON document")
    parser.add_argument(
        "--changed-only", action="store_true", help="hide identical leaves"
    )
    return parser


def _side(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:g}"


def run(args: argparse.Namespace) -> int:
    entries = analyze.diff_documents(load_document(args.base), load_document(args.new))
    if args.changed_only:
        entries = [e for e in entries if e.base != e.new]
    print_lines(table(
        [("path", "<48"), ("base", ">12"), ("new", ">12"), ("delta", ">12")],
        (
            (e.path, _side(e.base), _side(e.new),
             "-" if e.delta is None else format(e.delta, "+g"))
            for e in entries
        ),
    ))
    return 0
