"""Plain-text graph files.

One graph per file: an ``n <order>`` line first, then ``e <u> <v>`` per
proper edge and ``l <v>`` per loop, with 0-based decimal indices.  Lines
whose first token starts with ``#`` are comments; blank lines are ignored.
"""

from __future__ import annotations

from pathlib import Path

from .errors import GraphBuildError, ParseError
from .graph_core import SelfLoopGraph, build


def parse_graph(text: str) -> SelfLoopGraph:
    """Parse the text format; raises ParseError on any malformed input."""
    order: int | None = None
    edges: list[tuple[int, int]] = []
    loops: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "n":
            if order is not None:
                raise ParseError(f"line {lineno}: second 'n' line")
            order = _int_field(tokens, 1, lineno, expected=2)
        elif tag == "e":
            if order is None:
                raise ParseError(f"line {lineno}: 'e' before the 'n' line")
            u = _int_field(tokens, 1, lineno, expected=3)
            v = _int_field(tokens, 2, lineno, expected=3)
            edges.append((u, v))
        elif tag == "l":
            if order is None:
                raise ParseError(f"line {lineno}: 'l' before the 'n' line")
            loops.append(_int_field(tokens, 1, lineno, expected=2))
        else:
            raise ParseError(f"line {lineno}: unknown directive {tag!r}")
    if order is None:
        raise ParseError("missing 'n' line")
    try:
        return build(order, edges, loops)
    except GraphBuildError as exc:
        raise ParseError(str(exc)) from exc


def _int_field(tokens: list[str], index: int, lineno: int, expected: int) -> int:
    if len(tokens) != expected:
        raise ParseError(
            f"line {lineno}: expected {expected} fields, got {len(tokens)}")
    try:
        return int(tokens[index])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {tokens[index]!r} is not an integer") from exc


def serialize_graph(graph: SelfLoopGraph, comment: str | None = None) -> str:
    """Canonical text form: sorted edges, then sorted loops."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"n {graph.order}")
    for u, v in graph.edges:
        lines.append(f"e {u} {v}")
    for v in graph.loops:
        lines.append(f"l {v}")
    return "\n".join(lines) + "\n"


def load_graph(path: str | Path) -> SelfLoopGraph:
    try:
        return parse_graph(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start} is not UTF-8 text ({exc.reason})") from None
