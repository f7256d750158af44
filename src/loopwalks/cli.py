"""Command-line front end.

Subcommands::

    loopwalks walks FILE [--kmax K]
    loopwalks moments FILE [--q 0,1,2,3,4]
    loopwalks census FILE
    loopwalks verify [FILE ...] [--sample N --n-range 4,10 --edge-prob 0.5
                     --loop-prob 0.5 --seed 42] [--chain-depth 8]
                     [--rst r,s,t ...]
    loopwalks generate --family NAME [--n N | --a A --b B | --k K]
                     [--loops 0,1,3 | structured placement flags] [-o PATH]

Reports are printed as JSON (default, deterministic: sorted keys, reals
rounded to 12 significant digits) or as an aligned text table via
``--format table``.  JSON is written in one rounding pass: each real is
rounded as it is written, byte for byte what ``json.dumps(sort_keys=True,
indent=2)`` gives on the rounded report, without first building a rounded
copy.  Within one report the writer lays out each dict shape (depth and
keys in insertion order) once, writes reals, strings, bools and ints in
the dict loop without a call, and prints a real from its ``.12g`` text
unless that text has an exponent or is nan/inf, which take the ``repr``
of the rounded real instead.
Exit status: 0 when every requested check holds, 1 when a verified
inequality or cross-check fails (closed forms within 1e-7, relative above
magnitude 1), 2 on input errors.  ``verify`` skips a graph whose moment or
bound overflows a float with a per-graph note, as it skips a disconnected
graph, and reports the rest.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import NoReturn, Sequence

from . import oracle, spectral
from .errors import FloatOverflow, LoopwalksError, SizeLimitExceeded
from .families import FAMILIES, FamilySpec, generate, sample_connected_graphs
from .graph_core import SelfLoopGraph, is_connected
from .graphio import load_graph, serialize_graph
from .census import subgraph_census
from .oracle import traces_upto
from .walks import walk_counts

_DEFAULT_RST = ((1.0, 0.0, 2.0), (1.5, 2.0, 2.0), (2.0, 3.0, 3.0))


# -- report plumbing ------------------------------------------------------


def _round_real(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report, 0, {}, {}) + "\n"
    return _render_table(report)


@functools.cache
def _level(depth: int, brackets: str) -> tuple[str, str, str]:
    """The text before the first item, between items and after the last
    item of a container at this depth; built once and shared by every
    container written there."""
    indent = "\n" + "  " * depth
    return brackets[0] + indent + "  ", "," + indent + "  ", indent + brackets[1]


def _real_text(x: float) -> str:
    """``float.__repr__(_round_real(x))``, or NaN/Infinity/-Infinity.

    Rounded to at most 12 significant digits, a real has the same digits
    under ``.12g`` and ``repr``; the two lay them out alike unless ``.12g``
    switches to an exponent (decimal exponent >= 12 or < -4), so only those
    reals, nan and the infinities take the rounding route."""
    text = f"{x:.12g}"
    if "e" in text or "n" in text:
        x = _round_real(x)
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    if "." in text:
        return text
    return "0.0" if text == "-0" else text + ".0"


def _remember(reals: dict[float, str], x: float) -> str:
    """The text of a real not yet in ``reals``, stored there.  ``reals``
    holds the text of each real already written in one report; bound
    records repeat many of them."""
    text = reals[x] = _real_text(x)
    return text


def _json_text(obj, depth: int, reals: dict[float, str],
               shapes: dict[tuple, tuple]) -> str:
    """What ``json.dumps(obj, sort_keys=True, indent=2)`` writes once every
    real is rounded to 12 significant digits, written in a single pass.
    Dicts are tested first (bound records reach here from their list),
    then scalars; bools before ints, which they subclass."""
    if isinstance(obj, dict):
        return _dict_text(obj, depth, reals, shapes)
    if isinstance(obj, float):
        return reals.get(obj) or _remember(reals, obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return _sequence_text(obj, depth, reals, shapes)
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def _dict_text(obj: dict, depth: int, reals: dict[float, str],
               shapes: dict[tuple, tuple]) -> str:
    """A dict, laid out by its cached shape: ``shapes`` maps (depth, keys in
    insertion order) to the sorted keys, the text before each value (the
    opening or separator, the encoded key and ``": "``) and the closing
    text.  Bound records repeat one shape.  Reals, strings, bools and ints
    are written here without a call."""
    if not obj:
        return "{}"
    shape = shapes.get((depth, tuple(obj)))
    if shape is None:
        shape = shapes[depth, tuple(obj)] = _dict_shape(obj, depth)
    names, heads, closing = shape
    depth += 1
    parts = []
    for head, name in zip(heads, names):
        value = obj[name]
        kind = type(value)
        if kind is float:
            text = reals.get(value) or _remember(reals, value)
        elif kind is str:
            text = _encode_str(value)
        elif value is True:
            text = "true"
        elif value is False:
            text = "false"
        elif kind is int:
            text = int.__repr__(value)
        else:
            text = _json_text(value, depth, reals, shapes)
        parts.append(head)
        parts.append(text)
    parts.append(closing)
    # one join per container, so a large report is copied once per level
    return "".join(parts)


def _dict_shape(obj: dict, depth: int) -> tuple[list, list[str], str]:
    opening, separator, closing = _level(depth, "{}")
    names = sorted(obj)
    # keys must be strings: the encoder raises TypeError on any other
    keys = [_encode_str(name) + ": " for name in names]
    heads = [opening + keys[0]] + [separator + key for key in keys[1:]]
    return names, heads, closing


def _sequence_text(obj, depth: int, reals: dict[float, str],
                   shapes: dict[tuple, tuple]) -> str:
    if not obj:
        return "[]"
    opening, separator, closing = _level(depth, "[]")
    depth += 1
    items = [_json_text(item, depth, reals, shapes) for item in obj]
    items[0] = opening + items[0]
    items[-1] += closing
    return separator.join(items)


def _render_table(report: dict) -> str:
    lines: list[str] = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{_round_real(value):.12g}"
    if isinstance(value, str):
        return value
    return _repr_value(value)


def _repr_value(value) -> str:
    """``repr`` of the value with every real rounded, every int subclass but
    bool written as an int, and tuples as lists."""
    if isinstance(value, float):
        return repr(_round_real(value))
    if isinstance(value, (bool, str)) or value is None:
        return repr(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key!r}: {_repr_value(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_repr_value, value)) + "]"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(path, obj[key], lines)
    elif isinstance(obj, (list, tuple)):
        if obj and all(isinstance(item, dict) for item in obj):
            for i, item in enumerate(obj):
                _flatten(f"{prefix}[{i}]", item, lines)
        else:
            lines.append(f"{prefix:<40} {', '.join(_format_value(v) for v in obj)}")
    else:
        lines.append(f"{prefix:<40} {_format_value(obj)}")


def _graph_summary(graph: SelfLoopGraph) -> dict:
    return {"n": graph.order, "m": graph.size, "sigma": graph.sigma,
            "connected": is_connected(graph)}


def _graph_report(graph: SelfLoopGraph, **sections) -> dict:
    """A one-graph report: its summary, the given sections, and a warning
    when the graph is disconnected."""
    report = {"graph": _graph_summary(graph), **sections}
    if not is_connected(graph):
        report["warnings"] = [
            "graph is disconnected; connectivity-based results are skipped"]
    return report


# -- subcommand implementations -------------------------------------------


def cmd_walks(graph: SelfLoopGraph, kmax: int) -> tuple[dict, int]:
    """Walk counts by formula (lengths 1..4) and by matrix-power trace."""
    if kmax < 1:
        raise LoopwalksError(f"--kmax must be >= 1, got {kmax}")
    if kmax > oracle._MAX_TRACE_K:
        raise SizeLimitExceeded(
            f"--kmax must be <= {oracle._MAX_TRACE_K}, the trace sweep's guard, got {kmax}")
    oracle._require_trace_work(graph, kmax)
    wc = walk_counts(graph)
    formula = {f"w{k}": getattr(wc, f"w{k}") for k in range(1, min(kmax, 4) + 1)}
    trace = {f"w{k}": t for k, t in enumerate(traces_upto(graph, kmax), 1)}
    agree = all(formula[key] == trace[key] for key in formula)
    report = _graph_report(
        graph, walks={"formula": formula, "trace": trace, "agree": agree})
    return report, 0 if agree else 1


def cmd_moments(graph: SelfLoopGraph, qs: Sequence[float]) -> tuple[dict, int]:
    """Spectrum, exact moments, twisted moments, and closed-form checks."""
    sections = spectral.moment_report(graph, qs=qs)
    failed = (not sections["moments"]["closed_forms_agree"]
              or any(not record["holds"] for record in sections["bounds"]))
    return _graph_report(graph, **sections), 1 if failed else 0


def cmd_census(graph: SelfLoopGraph) -> tuple[dict, int]:
    """Full substructure census dump."""
    return _graph_report(graph, census=subgraph_census(graph).as_dict()), 0


def _verify_one(graph: SelfLoopGraph, chain_depth: int,
                rst: Sequence[Sequence[float]]) -> tuple[list[dict], str | None]:
    if not is_connected(graph):
        return [], "DisconnectedInput: connectivity hypotheses unmet; skipped"
    if graph.size < 1:
        return [], "HypothesisNotMet: the bounds assume at least one edge; skipped"
    try:
        rows = [spectral.mcclelland_bound(graph)]
        rows += spectral._bound_rows(graph, chain_depth, rst)
    except FloatOverflow as exc:
        return [], f"FloatOverflow: {exc}; skipped"
    return rows, None


def cmd_verify(labeled_graphs: Sequence[tuple[str, SelfLoopGraph]],
               chain_depth: int,
               rst: Sequence[Sequence[float]],
               sampler_info: dict | None = None) -> tuple[dict, int]:
    """Evaluate every inequality on every graph; exit 1 on any violation."""
    results = []
    violations = 0
    skipped = 0
    for label, graph in labeled_graphs:
        bounds, note = _verify_one(graph, chain_depth, rst)
        entry: dict = {"label": label, "graph": _graph_summary(graph)}
        if note is None:
            entry["bounds"] = bounds
            violations += sum(1 for record in bounds if not record["holds"])
        else:
            entry["note"] = note
            skipped += 1
        results.append(entry)
    report = {
        "chain_depth": chain_depth,
        "rst": [list(triple) for triple in rst],
        "cs_exponents": list(spectral._DEFAULT_CS_EXPONENTS),
        "results": results,
        "summary": {
            "graphs": len(results),
            "skipped": skipped,
            "violations": violations,
        },
    }
    if sampler_info is not None:
        report["sampler"] = sampler_info
    return report, 1 if violations else 0


def cmd_generate(args: argparse.Namespace) -> str:
    """The canonical file text of the requested family graph."""
    spec = _family_spec_from_args(args)
    graph = generate(spec)
    comment = f"{spec.family} graph, order {graph.order}, {graph.sigma} loops"
    return serialize_graph(graph, comment=comment)


# The size flags each family constructor takes (every other family takes
# --n), and the structured loop placements used when --loops is absent.
_SIZE_FLAGS = {"complete_bipartite": ("a", "b"), "kneser": ("k",),
               "petersen": ()}
_PLACEMENT_FLAGS = {"complete_bipartite": ("sigma_a", "sigma_b"),
                    "wheel": ("center_looped", "rim_loops"),
                    "star": ("center_looped", "leaf_loops")}


def _family_spec_from_args(args: argparse.Namespace) -> FamilySpec:
    loops = _parse_int_list(args.loops) if args.loops is not None else None
    family = args.family
    sizes = _SIZE_FLAGS.get(family, ("n",))
    kwargs = {name: getattr(args, name) for name in sizes}
    _require(None not in kwargs.values(), f"--family {family} needs "
             + " and ".join(f"--{name}" for name in sizes))
    if loops is None:
        kwargs.update((name, getattr(args, name))
                      for name in _PLACEMENT_FLAGS.get(family, ()))
    else:
        kwargs["loops"] = loops
    return getattr(FamilySpec, family)(**kwargs)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LoopwalksError(message)


# -- argument parsing ------------------------------------------------------


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError as exc:
        raise LoopwalksError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(token) for token in text.strip().split(","))
    except ValueError as exc:
        raise LoopwalksError(f"expected comma-separated numbers, got {text!r}") from exc
    if not all(map(math.isfinite, values)):
        raise LoopwalksError(f"expected finite numbers, got {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error:`` line and
    exit status 2, as for every other input error; its subparsers share
    the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopwalks",
        description="Closed-walk counts, subgraph census, spectral moments "
                    "and energy bounds for graphs with self-loops.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p_walks = sub.add_parser("walks", help="closed-walk counts by formula and trace")
    p_walks.add_argument("file")
    p_walks.add_argument("--kmax", type=int, default=4)
    add_format(p_walks)

    p_moments = sub.add_parser("moments", help="spectrum, moments, energy")
    p_moments.add_argument("file")
    p_moments.add_argument("--q", default="0,1,2,3,4",
                           help="comma-separated twisted-moment exponents")
    add_format(p_moments)

    p_census = sub.add_parser("census", help="substructure counts")
    p_census.add_argument("file")
    add_format(p_census)

    p_verify = sub.add_parser("verify", help="evaluate every inequality")
    p_verify.add_argument("files", nargs="*")
    p_verify.add_argument("--sample", type=int, default=None,
                          help="verify this many sampled connected graphs")
    p_verify.add_argument("--n-range", default="4,10")
    p_verify.add_argument("--edge-prob", type=float, default=0.5)
    p_verify.add_argument("--loop-prob", type=float, default=0.5)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--chain-depth", type=int, default=8)
    p_verify.add_argument("--rst", action="append", default=None,
                          help="r,s,t with 4r = s+t+2; repeatable")
    add_format(p_verify)

    p_generate = sub.add_parser("generate", help="write a family graph file")
    p_generate.add_argument("--family", required=True, choices=FAMILIES)
    p_generate.add_argument("--n", type=int, default=None)
    p_generate.add_argument("--a", type=int, default=None)
    p_generate.add_argument("--b", type=int, default=None)
    p_generate.add_argument("--k", type=int, default=None)
    p_generate.add_argument("--loops", default=None,
                            help="comma-separated looped vertices")
    p_generate.add_argument("--sigma-a", type=int, default=0)
    p_generate.add_argument("--sigma-b", type=int, default=0)
    p_generate.add_argument("--center-loop", dest="center_looped",
                            action="store_true")
    p_generate.add_argument("--rim-loops", type=int, default=0)
    p_generate.add_argument("--leaf-loops", type=int, default=0)
    p_generate.add_argument("-o", "--output", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (LoopwalksError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        text = cmd_generate(args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    if args.command == "verify":
        report, code = _verify_from_args(args)
    else:
        graph = load_graph(args.file)
        if args.command == "walks":
            report, code = cmd_walks(graph, args.kmax)
        elif args.command == "moments":
            report, code = cmd_moments(graph, _parse_float_list(args.q))
        else:
            report, code = cmd_census(graph)
    sys.stdout.write(render_report(report, args.format))
    return code


def _verify_from_args(args: argparse.Namespace) -> tuple[dict, int]:
    rst = (_DEFAULT_RST if args.rst is None
           else tuple(_parse_float_list(item) for item in args.rst))
    for triple in rst:
        spectral._require_rst(triple)
    _require(args.chain_depth >= 1,
             f"--chain-depth must be >= 1, got {args.chain_depth}")
    if args.chain_depth > spectral._MAX_CHAIN_DEPTH:
        raise SizeLimitExceeded(
            f"--chain-depth must be <= {spectral._MAX_CHAIN_DEPTH}, the ratio "
            f"chain's guard, got {args.chain_depth}")
    labeled: list[tuple[str, SelfLoopGraph]] = []
    sampler_info = None
    if args.sample is not None:
        _require(args.sample >= 1, f"--sample must be >= 1, got {args.sample}")
        bounds = _parse_int_list(args.n_range)
        _require(len(bounds) == 2 and 2 <= bounds[0] <= bounds[1],
                 f"--n-range expects LO,HI with 2 <= LO <= HI, got {args.n_range!r}")
        # the sampler draws O(n^2) pairs per graph, so refuse before it runs
        _require(bounds[1] <= spectral._MAX_DENSE_ORDER,
                 f"--n-range HI must be <= {spectral._MAX_DENSE_ORDER}, the "
                 f"eigensolver's order guard, got {bounds[1]}")
        _require(0.0 < args.edge_prob <= 1.0,
                 f"--edge-prob must lie in (0, 1], got {args.edge_prob}")
        _require(0.0 <= args.loop_prob <= 1.0,
                 f"--loop-prob must lie in [0, 1], got {args.loop_prob}")
        graphs = sample_connected_graphs(args.sample, bounds[0], bounds[1],
                                         args.edge_prob, args.loop_prob,
                                         args.seed)
        labeled.extend((f"sample[{i}]", g) for i, g in enumerate(graphs))
        sampler_info = {"count": args.sample, "n_range": list(bounds),
                        "edge_prob": args.edge_prob, "loop_prob": args.loop_prob,
                        "seed": args.seed}
    for path in args.files:
        labeled.append((path, load_graph(path)))
    if not labeled:
        raise LoopwalksError("verify needs graph files or --sample")
    return cmd_verify(labeled, args.chain_depth, rst, sampler_info=sampler_info)


def entry() -> None:
    raise SystemExit(main())
