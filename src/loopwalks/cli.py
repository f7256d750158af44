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
copy.  Exit status: 0 when every requested check holds, 1 when a verified
inequality or cross-check fails (closed forms within 1e-7, relative above
magnitude 1), 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from itertools import combinations
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Sequence

from . import spectral
from .errors import LoopwalksError, SamplerExhausted
from .families import FamilySpec, generate
from .graph_core import SelfLoopGraph, is_connected
from .graphio import load_graph, serialize_graph
from .census import subgraph_census
from .oracle import trace_power
from .walks import walk_counts

_CLOSED_FORM_TOL = 1e-7
_DEFAULT_CS_EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
_DEFAULT_RST = ((1.0, 0.0, 2.0), (1.5, 2.0, 2.0), (2.0, 3.0, 3.0))


# -- deterministic sampler ----------------------------------------------


class SplitMix64:
    """Tiny 64-bit deterministic generator backing the verify sampler."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def sample_connected_graphs(count: int, n_lo: int, n_hi: int,
                            edge_prob: float, loop_prob: float,
                            seed: int) -> list[SelfLoopGraph]:
    """Rejection-sample connected graphs with at least one edge."""
    rng = SplitMix64(seed)
    out: list[SelfLoopGraph] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * max(count, 1):
            raise SamplerExhausted("sampler keeps producing disconnected graphs; "
                                   "raise the edge probability")
        n = n_lo + rng.below(n_hi - n_lo + 1)
        edges = tuple(pair for pair in combinations(range(n), 2)
                      if rng.random() < edge_prob)
        loops = tuple(v for v in range(n) if rng.random() < loop_prob)
        graph = SelfLoopGraph(order=n, edges=edges, loops=loops)
        if graph.size >= 1 and is_connected(graph):
            out.append(graph)
    return out


# -- report plumbing ------------------------------------------------------


def _round_real(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report, 0, {}) + "\n"
    return _render_table(report)


@functools.cache
def _level(depth: int, brackets: str) -> tuple[str, str, str]:
    """The text before the first item, between items and after the last
    item of a container at this depth; built once and shared by every
    container written there."""
    indent = "\n" + "  " * depth
    return brackets[0] + indent + "  ", "," + indent + "  ", indent + brackets[1]


def _real_text(x: float) -> str:
    x = _round_real(x)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_text(obj, depth: int, reals: dict[float, str]) -> str:
    """What ``json.dumps(obj, sort_keys=True, indent=2)`` writes once every
    real is rounded to 12 significant digits, written in a single pass.
    ``reals`` caches the text of each real already written; bound records
    repeat many of them."""
    if isinstance(obj, float):
        text = reals.get(obj)
        if text is None:
            text = reals[obj] = _real_text(obj)
        return text
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        opening, separator, closing = _level(depth, "{}")
        depth += 1
        # keys must be strings: the encoder raises TypeError on any other
        items = [_encode_str(key) + ": " + _json_text(obj[key], depth, reals)
                 for key in sorted(obj)]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        opening, separator, closing = _level(depth, "[]")
        depth += 1
        items = [_json_text(item, depth, reals) for item in obj]
    else:
        raise TypeError(f"cannot render {type(obj).__name__} in a report")
    # one join per container, so a large report is copied once per level
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
    """``repr`` of the value with every real rounded and tuples as lists."""
    if isinstance(value, float):
        return repr(_round_real(value))
    if isinstance(value, (bool, int, str)) or value is None:
        return repr(value)
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


def _connectivity_warnings(graph: SelfLoopGraph) -> list[str]:
    if is_connected(graph):
        return []
    return ["graph is disconnected; connectivity-based results are skipped"]


# -- subcommand implementations -------------------------------------------


def cmd_walks(graph: SelfLoopGraph, kmax: int) -> tuple[dict, int]:
    """Walk counts by formula (lengths 1..4) and by matrix-power trace."""
    if kmax < 1:
        raise LoopwalksError(f"--kmax must be >= 1, got {kmax}")
    wc = walk_counts(graph)
    formula = {f"w{k}": getattr(wc, f"w{k}") for k in range(1, min(kmax, 4) + 1)}
    trace = {f"w{k}": trace_power(graph, k) for k in range(1, kmax + 1)}
    agree = all(formula[key] == trace[key] for key in formula)
    report = {
        "graph": _graph_summary(graph),
        "walks": {"formula": formula, "trace": trace, "agree": agree},
    }
    warnings = _connectivity_warnings(graph)
    if warnings:
        report["warnings"] = warnings
    return report, 0 if agree else 1


def cmd_moments(graph: SelfLoopGraph, qs: Sequence[float]) -> tuple[dict, int]:
    """Spectrum, exact moments, twisted moments, and closed-form checks."""
    spec = spectral.eigenvalues(graph)
    report_data = spectral.moment_report(graph, qs=qs, spectrum=spec)
    m3_direct = spectral.twisted_moment(graph, 3.0, spectrum=spec)
    m4_direct = spectral.twisted_moment(graph, 4.0, spectrum=spec)
    closed_ok = (_closed_form_agrees(report_data.m3_closed, m3_direct)
                 and _closed_form_agrees(report_data.m4_closed, m4_direct))
    bounds = [record.as_dict() for record in report_data.bounds]
    report = {
        "graph": _graph_summary(graph),
        "moments": {
            "eigenvalues": list(spec.eigenvalues),
            "residual": spec.residual,
            "sweeps": spec.sweeps_used,
            "spectral_moments": list(report_data.spectral_moments),
            "twisted": {f"{q:g}": value for q, value in report_data.twisted},
            "energy": report_data.energy,
            "m3_closed": report_data.m3_closed,
            "m3_direct": m3_direct,
            "m4_closed": report_data.m4_closed,
            "m4_direct": m4_direct,
            "closed_forms_agree": closed_ok,
        },
        "bounds": bounds,
    }
    warnings = _connectivity_warnings(graph)
    if warnings:
        report["warnings"] = warnings
    failed = (not closed_ok) or any(not record["holds"] for record in bounds)
    return report, 1 if failed else 0


def _closed_form_agrees(closed: float, direct: float) -> bool:
    """Agreement within 1e-7, relative once |direct| exceeds 1."""
    return abs(closed - direct) <= _CLOSED_FORM_TOL * max(1.0, abs(direct))


def cmd_census(graph: SelfLoopGraph) -> tuple[dict, int]:
    """Full substructure census dump."""
    report = {
        "graph": _graph_summary(graph),
        "census": subgraph_census(graph).as_dict(),
    }
    warnings = _connectivity_warnings(graph)
    if warnings:
        report["warnings"] = warnings
    return report, 0


def _verify_one(graph: SelfLoopGraph, chain_depth: int,
                rst: Sequence[Sequence[float]],
                cs_exponents: Sequence[float]) -> tuple[list[dict], str | None]:
    if not is_connected(graph):
        return [], "DisconnectedInput: connectivity hypotheses unmet; skipped"
    if graph.size < 1:
        return [], "HypothesisNotMet: the bounds assume at least one edge; skipped"
    spec = spectral.eigenvalues(graph)
    records = [spectral.mcclelland_bound(graph, spectrum=spec)]
    for p in cs_exponents:
        for q in cs_exponents:
            if p <= q:
                records.append(
                    spectral.verify_cauchy_schwarz(graph, p, q, spectrum=spec))
    records.extend(spectral.verify_ratio_chain(graph, chain_depth, spectrum=spec))
    records.extend(spectral.energy_lower_bounds(graph, rst, spectrum=spec))
    return [record.as_dict() for record in records], None


def cmd_verify(labeled_graphs: Sequence[tuple[str, SelfLoopGraph]],
               chain_depth: int,
               rst: Sequence[Sequence[float]],
               cs_exponents: Sequence[float] = _DEFAULT_CS_EXPONENTS,
               sampler_info: dict | None = None) -> tuple[dict, int]:
    """Evaluate every inequality on every graph; exit 1 on any violation."""
    results = []
    violations = 0
    skipped = 0
    for label, graph in labeled_graphs:
        bounds, note = _verify_one(graph, chain_depth, rst, cs_exponents)
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
        "cs_exponents": list(cs_exponents),
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


def cmd_generate(args: argparse.Namespace) -> tuple[str, SelfLoopGraph]:
    """Build the requested family graph and its canonical file text."""
    spec = _family_spec_from_args(args)
    graph = generate(spec)
    comment = f"{spec.family} graph, order {graph.order}, {graph.sigma} loops"
    return serialize_graph(graph, comment=comment), graph


def _family_spec_from_args(args: argparse.Namespace) -> FamilySpec:
    loops = _parse_int_list(args.loops) if args.loops is not None else None
    family = args.family
    if family == "complete":
        _require(args.n is not None, "--family complete needs --n")
        return FamilySpec.complete(args.n, loops or ())
    if family == "complete_bipartite":
        _require(args.a is not None and args.b is not None,
                 "--family complete_bipartite needs --a and --b")
        if loops is None:
            return FamilySpec.complete_bipartite(
                args.a, args.b, sigma_a=args.sigma_a, sigma_b=args.sigma_b)
        return FamilySpec.complete_bipartite(args.a, args.b, loops=loops)
    if family == "cycle":
        _require(args.n is not None, "--family cycle needs --n")
        return FamilySpec.cycle(args.n, loops or ())
    if family == "path":
        _require(args.n is not None, "--family path needs --n")
        return FamilySpec.path(args.n, loops or ())
    if family == "wheel":
        _require(args.n is not None, "--family wheel needs --n")
        if loops is None:
            return FamilySpec.wheel(args.n, center_looped=args.center_loop,
                                    rim_loops=args.rim_loops)
        return FamilySpec.wheel(args.n, loops=loops)
    if family == "star":
        _require(args.n is not None, "--family star needs --n")
        if loops is None:
            return FamilySpec.star(args.n, center_looped=args.center_loop,
                                   leaf_loops=args.leaf_loops)
        return FamilySpec.star(args.n, loops=loops)
    if family == "kneser":
        _require(args.k is not None, "--family kneser needs --k")
        return FamilySpec.kneser(args.k, loops or ())
    if family == "petersen":
        return FamilySpec.petersen(loops or ())
    raise LoopwalksError(f"unknown family {family!r}")


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_generate.add_argument("--family", required=True,
                            choices=("complete", "complete_bipartite", "cycle",
                                     "path", "wheel", "star", "kneser", "petersen"))
    p_generate.add_argument("--n", type=int, default=None)
    p_generate.add_argument("--a", type=int, default=None)
    p_generate.add_argument("--b", type=int, default=None)
    p_generate.add_argument("--k", type=int, default=None)
    p_generate.add_argument("--loops", default=None,
                            help="comma-separated looped vertices")
    p_generate.add_argument("--sigma-a", type=int, default=0)
    p_generate.add_argument("--sigma-b", type=int, default=0)
    p_generate.add_argument("--center-loop", action="store_true")
    p_generate.add_argument("--rim-loops", type=int, default=0)
    p_generate.add_argument("--leaf-loops", type=int, default=0)
    p_generate.add_argument("-o", "--output", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except LoopwalksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "walks":
        report, code = cmd_walks(load_graph(args.file), args.kmax)
        sys.stdout.write(render_report(report, args.format))
        return code
    if args.command == "moments":
        report, code = cmd_moments(load_graph(args.file), _parse_float_list(args.q))
        sys.stdout.write(render_report(report, args.format))
        return code
    if args.command == "census":
        report, code = cmd_census(load_graph(args.file))
        sys.stdout.write(render_report(report, args.format))
        return code
    if args.command == "verify":
        return _dispatch_verify(args)
    if args.command == "generate":
        text, _ = cmd_generate(args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    raise LoopwalksError(f"unknown command {args.command!r}")


def _dispatch_verify(args: argparse.Namespace) -> int:
    rst = (_DEFAULT_RST if args.rst is None
           else tuple(_parse_float_list(item) for item in args.rst))
    for triple in rst:
        if len(triple) != 3:
            raise LoopwalksError(f"--rst expects three numbers, got {triple}")
    _require(args.chain_depth >= 1,
             f"--chain-depth must be >= 1, got {args.chain_depth}")
    labeled: list[tuple[str, SelfLoopGraph]] = []
    sampler_info = None
    if args.sample is not None:
        _require(args.sample >= 1, f"--sample must be >= 1, got {args.sample}")
        bounds = _parse_int_list(args.n_range)
        _require(len(bounds) == 2 and 2 <= bounds[0] <= bounds[1],
                 f"--n-range expects LO,HI with 2 <= LO <= HI, got {args.n_range!r}")
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
    report, code = cmd_verify(labeled, args.chain_depth, rst,
                              sampler_info=sampler_info)
    sys.stdout.write(render_report(report, args.format))
    return code


def entry() -> None:
    raise SystemExit(main())
