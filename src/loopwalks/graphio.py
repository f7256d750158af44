"""Plain-text graph files.

One graph per file: an ``n <order>`` line first, then ``e <u> <v>`` per
proper edge and ``l <v>`` per loop, with 0-based decimal indices.  Lines
whose first token starts with ``#`` are comments; blank lines are ignored.

``parse_graph`` and ``load_graph`` take a whole text, for library callers.
``load_graph_guarded``, what the CLI reads files with, takes the same
format in bounded memory: it reads one line at a time, refuses a line
longer than ``_MAX_LINE_BYTES``, applies an order guard as soon as the
``n`` line is read, and refuses more edge and loop lines than that order
holds, so it never holds more than one line and the graph's own pairs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

from .errors import GraphBuildError, ParseError
from .graph_core import SelfLoopGraph, build

# A data line at the CLI's orders (<= 640) is a tag and at most two indices
# of three digits, so 4,096 bytes, one page, limits only comments and
# padding while bounding what reading one line can hold.
_MAX_LINE_BYTES = 4096


def parse_graph(text: str) -> SelfLoopGraph:
    """Parse the text format; raises ParseError on any malformed input."""
    return _parse_lines(text.splitlines())


def _parse_lines(lines: Iterable[str],
                 require_order: Callable[[int], None] | None = None) -> SelfLoopGraph:
    """Parse the text format from its lines.  With ``require_order``, the
    order is checked as soon as its line is read, and the edge and loop
    lines are refused past the C(n, 2) + n a graph of that order holds."""
    order: int | None = None
    most_pairs = None
    edges: list[tuple[int, int]] = []
    loops: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "n":
            if order is not None:
                raise ParseError(f"line {lineno}: second 'n' line")
            order = _int_field(tokens, 1, lineno, expected=2)
            if require_order is not None:
                require_order(order)
                most_pairs = max(order, 0) * (order + 1) // 2
        elif len(edges) + len(loops) == most_pairs and tag in ("e", "l"):
            raise ParseError(f"line {lineno}: order {order} holds at most "
                             f"{most_pairs} edges and loops")
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


def load_graph_guarded(path: str | Path,
                       require_order: Callable[[int], None]) -> SelfLoopGraph:
    """``load_graph`` in bounded memory: one line at a time, each at most
    ``_MAX_LINE_BYTES``, with ``require_order`` applied to the ``n`` line as
    soon as it is read.  The lines are split as ``parse_graph`` splits its
    text, so a file ``load_graph`` accepts gives the same graph or is
    refused by a guard, and a file it refuses is refused here too."""
    with open(path, "rb") as stream:
        return _parse_lines(_bounded_lines(stream), require_order)


def _bounded_lines(stream) -> Iterable[str]:
    """The stream's lines, split as ``str.splitlines`` splits, read one
    newline-ended line of at most ``_MAX_LINE_BYTES`` at a time."""
    offset = 0
    lineno = 1
    while raw := stream.readline(_MAX_LINE_BYTES + 1):
        if len(raw) > _MAX_LINE_BYTES:
            raise ParseError(f"line {lineno}: longer than {_MAX_LINE_BYTES} bytes")
        try:
            lines = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {offset + exc.start} is not UTF-8 text "
                             f"({exc.reason})") from None
        yield from lines
        offset += len(raw)
        lineno += len(lines)
