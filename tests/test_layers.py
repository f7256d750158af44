"""The layers the benchmark traces exist under the names it gives them.

The tracer wraps each ``<module>.<function>`` named by a per-layer metric
(``census.triangle_census.self_s``) and skips any name that does not
resolve, so a renamed or deleted function would silently read 0.  These
tests only read the benchmark's declaration files.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from loopwalks import FamilySpec, census, generate

ROOT = Path(__file__).resolve().parent.parent


def _traced_targets():
    names = [metric["name"] for metric in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    mapping = json.loads((ROOT / "perfbench" / "mapping.json").read_text())
    for entry in mapping["mapping"]:
        names += entry["layer_metrics"]
    # <module>.<function>.<statistic>; shorter names are run-level figures
    return sorted({name.rsplit(".", 1)[0] for name in names if name.count(".") == 2})


@pytest.mark.parametrize("target", _traced_targets())
def test_traced_layer_resolves_to_a_function(target):
    module_name, func_name = target.split(".")
    module = importlib.import_module(f"loopwalks.{module_name}")
    assert inspect.isfunction(getattr(module, func_name, None)), target


def test_subgraph_census_calls_each_part_once_by_module_name(monkeypatch):
    # the walk formula reads its totals by module name too, and never lists
    # a 4-clique
    from loopwalks import walks

    parts = ("zagreb1", "loop_degree_sum", "boundary_edges", "loop_boundary",
             "triangle_census", "four_cycle_total", "four_clique_count",
             "four_cycle_census")
    calls = {}
    for name in parts:
        def counting(graph, _name=name, _fn=getattr(census, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(graph)
        monkeypatch.setattr(census, name, counting)
    graph = generate(FamilySpec.complete(5, loops=(0, 3)))
    census.subgraph_census(graph)
    assert calls == dict.fromkeys(parts, 1)
    calls.clear()
    walks._formula.cache_clear()
    walks.walk_counts(graph)
    assert calls == dict.fromkeys(("zagreb1", "loop_degree_sum", "boundary_edges",
                                   "triangle_census", "four_cycle_total"), 1)
