"""The one-pass report writers against the two-pass rendering they replace:
round every real into a copy, then ``json.dumps`` or flatten the copy."""

import json
import math

import pytest

from loopwalks.cli import (_DEFAULT_RST, _round_real, cmd_verify,
                           render_report, sample_connected_graphs)


def _prepare(obj):
    """Round every real to 12 significant digits, recursively."""
    if isinstance(obj, bool) or isinstance(obj, int) or obj is None:
        return obj
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
    }


def test_json_writer_matches_json_dumps_on_synthetic_report():
    report = _synthetic_report()
    assert render_report(report, "json") == _reference_json(report)


def test_table_writer_matches_reference_on_synthetic_report():
    report = _synthetic_report()
    assert render_report(report, "table") == _reference_table(report)


def test_table_writer_rounds_negative_zero():
    report = {"a": -0.0, "b": [-0.0, 1.0], "c": [(-0.0, 2.0)]}
    text = render_report(report, "table")
    assert text == _reference_table(report)
    assert "-0" not in text


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_writers_match_reference_on_verify_report(fmt):
    graphs = sample_connected_graphs(200, 2, 10, 0.5, 0.5, seed=42)
    report, _ = cmd_verify([(f"sample[{i}]", g) for i, g in enumerate(graphs)],
                           8, _DEFAULT_RST)
    reference = _reference_json if fmt == "json" else _reference_table
    assert render_report(report, fmt) == reference(report)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("bad", [{1, 2}, object(), b"bytes", [1j]])
def test_writers_reject_unknown_types(fmt, bad):
    with pytest.raises(TypeError):
        render_report({"value": bad}, fmt)


def test_json_writer_rejects_non_string_keys():
    with pytest.raises(TypeError):
        render_report({"value": {1: "int key"}}, "json")
