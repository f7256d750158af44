"""The one-pass report writers against the two-pass rendering they replace:
round every real into a copy, then ``json.dumps`` or flatten the copy."""

import enum
import json
import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from loopwalks.cli import (_DEFAULT_RST, _ENTRIES_PER_TEXT, _graph_summary,
                           _real_text, _round_real, _verify_one, cmd_verify,
                           render_report)
from loopwalks.families import sample_connected_graphs
from loopwalks.spectral import _DEFAULT_CS_EXPONENTS


def _prepare(obj):
    """Round every real to 12 significant digits and turn every int
    subclass but bool into an int, recursively."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return _round_real(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {k: _prepare(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_prepare(v) for v in obj]
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


def _reference_json(report):
    return json.dumps(_prepare(report), sort_keys=True, indent=2) + "\n"


def _reference_table(report):
    lines = []

    def format_value(value):
        if isinstance(value, float):
            return f"{value:.12g}"
        return str(value)

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                flatten(f"{prefix}.{key}" if prefix else str(key), obj[key])
        elif isinstance(obj, list):
            if obj and all(isinstance(item, dict) for item in obj):
                for i, item in enumerate(obj):
                    flatten(f"{prefix}[{i}]", item)
            else:
                lines.append(f"{prefix:<40} {', '.join(format_value(v) for v in obj)}")
        else:
            lines.append(f"{prefix:<40} {format_value(obj)}")

    flatten("", _prepare(report))
    return "\n".join(lines) + "\n"


def _synthetic_report():
    return {
        "empty": {"dict": {}, "list": [], "tuple": (), "nested": [[], {}, [{}]]},
        "tuple": (1, 2.5, (3.25, -0.0), "x"),
        "reals": [-0.0, 0.0, 1e16, 1e-16, 5e-324, -5e-324, 1.7976931348623157e308,
                  math.nan, math.inf, -math.inf, 1 / 3, -2 / 3, 123456789.123456789,
                  0.1 + 0.2, 1e22, 2.5e-7, 100.0],
        "big_ints": [2 ** 53 + 1, -(2 ** 64) - 3, 10 ** 30],
        "flags": [True, False, None],
        "zero": -0.0,
        "text": "Kneser K(7,3) — λ₁ ≥ 0 \"quoted\"\t\\",
        "records": [{"name": "b", "lhs": 0.1, "holds": True},
                    {"name": "a", "lhs": -0.0, "holds": False}],
        "Zeta": {"b": {"c": [1, {"d": (None, 2.0)}]}, "a": 0},
        # the real formatter's switch points: .12g prints an exponent below
        # 1e-4 and from 1e12 on, repr below 1e-4 and from 1e16 on
        "switch_points": [1e-4, -1e-4, 9.99999999999e-05, 9.999999999995e-05,
                          1e11, 1e12, 1e13, 1e14, 1e15, 1e16, -1e16,
                          999999999999.5, 999999999999.4, 99999999999.95,
                          123456789012.0, 5e-324, 2.225073858507201e-308,
                          2.2250738585072014e-308, 0.0, -0.0, math.nan,
                          math.inf, -math.inf],
        # one key set in two insertion orders at one depth, and at two depths
        "orders": [{"y": "s", "x": 1.5, "z": True},
                   {"x": 2.5, "z": False, "y": "t"},
                   {"x": {"y": 0.25, "x": -0.0, "z": None}, "y": 3, "z": []}],
        "keys \"quoted\" {braced}": {"\"": 1.0, "}{": "v", "λ₁ ≥ 0": 2.0,
                                      "ß": {"é": [0.1]}, "": True},
    }


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Real(float):
    pass


def _synthetic_report_with_subclasses():
    """Subclasses of the exact types take the writers' fallback chains."""
    report = _synthetic_report()
    report["subclasses"] = {
        "enum": _Level.HIGH, "real": _Real(1 / 7),
        "list": [_Level.LOW, _Real(-0.0), _Real(1e300), _Real(1e13)],
        "deep": [[_Level.HIGH, True, _Real(1 / 3)], (_Level.LOW, {"x": _Level.HIGH})],
        "mapping": OrderedDict([("b", _Real(2.5)), ("a", 1)]),
        "nested": OrderedDict([("b", {"a": _Real(0.1)}), ("a", ())]),
    }
    return report


def test_json_writer_matches_json_dumps_on_synthetic_report():
    report = _synthetic_report_with_subclasses()
    assert render_report(report, "json") == _reference_json(report)
    assert render_report(report, "json") == render_report(report, "json")


def _rounded_real_text(x):
    """The formatter's fallback route, taken by every real before the
    ``.12g`` shortcut."""
    x = _round_real(x)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


@settings(derandomize=True, database=None, max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_real_formatter_matches_rounding_route(x):
    assert _real_text(x) == _rounded_real_text(x)


def test_table_writer_matches_reference_on_synthetic_report():
    report = _synthetic_report_with_subclasses()
    assert render_report(report, "table") == _reference_table(report)


def test_table_writer_rounds_negative_zero():
    report = {"a": -0.0, "b": [-0.0, 1.0], "c": [(-0.0, 2.0)]}
    text = render_report(report, "table")
    assert text == _reference_table(report)
    assert "-0" not in text


def _verify_report(labeled, chain_depth, rst):
    """The verify report as one dict, built from ``_verify_one``'s rows."""
    results = []
    for label, graph in labeled:
        rows, note = _verify_one(graph, chain_depth, rst)
        entry = {"label": label, "graph": _graph_summary(graph)}
        entry.update({"note": note} if note else {"bounds": rows})
        results.append(entry)
    return {
        "chain_depth": chain_depth,
        "rst": [list(triple) for triple in rst],
        "cs_exponents": list(_DEFAULT_CS_EXPONENTS),
        "results": results,
        "summary": {"graphs": len(results),
                    "skipped": sum("note" in entry for entry in results),
                    "violations": sum(not row["holds"] for entry in results
                                      for row in entry.get("bounds", ()))},
    }


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_writers_match_reference_on_verify_report(fmt):
    graphs = sample_connected_graphs(200, 2, 10, 0.5, 0.5, seed=42)
    labeled = [(f"sample[{i}]", g) for i, g in enumerate(graphs)]
    texts, _ = cmd_verify(labeled, 8, _DEFAULT_RST, fmt)
    reference = _reference_json if fmt == "json" else _reference_table
    assert "".join(texts) == reference(_verify_report(labeled, 8, _DEFAULT_RST))


@pytest.mark.parametrize("count", [1, 31, 32, 33, 64])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_texts_hold_a_group_of_entries_each(fmt, count):
    # the frame's head, one text per full group, then the rest with the tail
    graphs = sample_connected_graphs(count, 2, 6, 0.5, 0.5, seed=7)
    labeled = [(f"sample[{i}]", g) for i, g in enumerate(graphs)]
    texts, _ = cmd_verify(labeled, 8, _DEFAULT_RST, fmt)
    assert len(texts) == 2 + count // _ENTRIES_PER_TEXT
    reference = _reference_json if fmt == "json" else _reference_table
    assert "".join(texts) == reference(_verify_report(labeled, 8, _DEFAULT_RST))


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("bad", [{1, 2}, object(), b"bytes", [1j]])
def test_writers_reject_unknown_types(fmt, bad):
    with pytest.raises(TypeError):
        render_report({"value": bad}, fmt)


def test_json_writer_rejects_non_string_keys():
    with pytest.raises(TypeError):
        render_report({"value": {1: "int key"}}, "json")
