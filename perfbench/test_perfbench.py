"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import Approx, Graph  # noqa: E402


def _petersen_with_loops() -> Graph:
    subsets = [frozenset(c) for c in combinations(range(5), 2)]
    edges = tuple((i, j) for i in range(10) for j in range(i + 1, 10)
                  if not subsets[i] & subsets[j])
    return Graph(10, edges, (1, 4, 7))


def test_checker_counts_corrupted_reference_as_failure(tmp_path):
    graph = _petersen_with_loops()
    path = tmp_path / "petersen.txt"
    path.write_text(workloads.graph_text(graph), encoding="utf-8")
    bench = workloads.SingleReports()
    bench.cli = workloads.import_loopwalks()["loopwalks.cli"]
    bench.files = [("petersen", path, graph)]
    bench.prepare_expected(0, bench.inputs())
    result = bench.run_pass(None, workloads.HostProbe())
    assert bench.check(result)[:2] == (3, 0)

    census = bench.expected["petersen"]["census"]["census"]
    census["c4_not_k4"] += 1
    attempted, failed, problems = bench.check(result)
    assert (attempted, failed) == (3, 1)
    assert "c4_not_k4" in problems[0]

    census["c4_not_k4"] -= 1
    eigen = bench.expected["petersen"]["moments"]["moments"]["eigenvalues"]
    eigen[0] = Approx(eigen[0].value + 1e-6, eigen[0].tol)
    assert bench.check(result)[:2] == (3, 1)


def test_verify_checker_counts_one_failed_graph():
    bench = workloads.VerifySample()
    bench.count = 20
    bench.setup(5, ROOT)
    bench.prepare_expected(5, bench.inputs())
    result = bench.run_pass(None, workloads.HostProbe())
    assert bench.check(result)[:2] == (20, 0)
    record = bench.expected_results[3]["bounds"][0]
    record["rhs"] = Approx(record["rhs"].value * (1 + 1e-6), record["rhs"].tol)
    assert bench.check(result)[:2] == (20, 1)


def test_reference_counts_match_hand_counts():
    k4 = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), (0, 1, 3))
    counts = reference.census(k4)
    assert (counts["triangles_total"], counts["k4_count"], counts["c4_not_k4"]) == (4, 1, 0)
    assert counts["tri_loops"] == [0, 3, 1]
    # Closed 4-walks of this graph: 207, the paper's checkpoint.
    assert reference.closed_walk_traces(k4)[3] == 207
    square = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)), ())
    assert reference.census(square)["c4_not_k4"] == 1


def _span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, 0)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),     # overlaps a: root loses [1, 6] once
        _span("c", 8.0, 12.0, 0),    # runs past root: only [8, 10] counts
        _span("a1", 2.0, 3.0, 1),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_install_rebinds_names_imported_by_other_modules():
    modules = workloads.import_loopwalks()
    walks = modules["loopwalks.walks"]
    build = modules["loopwalks.graph_core"].build
    recorder = tracer.Tracer()
    bindings = tracer.install(recorder, ["walks.walk_counts", "census.subgraph_census"])
    try:
        walks.walk_counts(build(3, [(0, 1), (1, 2)], [0]))
    finally:
        tracer.uninstall(bindings)
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("walks.walk_counts", -1), ("census.subgraph_census", 0)]
    assert not hasattr(walks.walk_counts, "__wrapped__")


def test_every_benchmark_metric_is_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify_sample",
             "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
