"""The three workloads: inputs from the seed, one timed pass, and its check.

Each workload is a closed loop with a single caller: one process, no
threads, and the next request starts only when the previous one returned.
A pass calls the package through module attributes at call time, so the
tracer's wrappers are seen when they are installed.

``setup`` and ``run_pass`` run in the measured process.  ``inputs`` is what
that process hands over besides its pass results; ``prepare_expected`` and
``check`` run in the process that checks them, so the reference's data never
adds to the measured process's memory or garbage-collection work.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import reference
from reference import Graph

clock = time.perf_counter
PROBE_INTERVAL_S = 0.25


class HostProbe:
    """Times a fixed loop of plain bytecode that never calls the package.

    On a shared host the core runs this process up to about 1.8x slower for
    minutes at a time while other tenants load it.  Such a slowdown stretches
    the probe and the package alike, so the probe's median over a run
    measures the host's speed during that run (see ``run.py``).  The loop
    allocates no container objects, so it never triggers a garbage
    collection and the package's heap does not change its time.
    """

    iterations = 20_000

    def __init__(self):
        self.samples: list[float] = []
        self._last = clock()

    def run(self) -> None:
        start = clock()
        total = 0
        table = [0] * 64
        for i in range(self.iterations):
            total += i * i % 7
            table[i & 63] = total
        self._last = clock()
        self.samples.append(self._last - start)

    def due(self) -> None:
        """Run the probe if ``PROBE_INTERVAL_S`` has passed since it last ran."""
        if clock() - self._last >= PROBE_INTERVAL_S:
            self.run()


@dataclass
class PassResult:
    wall: float                         # seconds inside requests, probes excluded
    graphs: int
    latencies: list[float]              # seconds per graph
    stages: dict[str, float] = field(default_factory=dict)
    outputs: list = field(default_factory=list)


def import_loopwalks():
    """Import the package afresh, so repeated set-ups each pay for it."""
    for name in [n for n in sys.modules if n == "loopwalks" or n.startswith("loopwalks.")]:
        del sys.modules[name]
    importlib.import_module("loopwalks.cli")
    return sys.modules


def run_cli(cli, argv: list[str], tracer, request: int) -> tuple[int, str, str]:
    """One in-process CLI call with output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                tracer.request = request
                code = tracer.record("request", cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = -1
            err.write(repr(exc))
    return code, out.getvalue(), err.getvalue()


def check_output(code: int, text: str, err: str, expected: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[:200]}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return reference.mismatches(report, expected)


# -- single_reports -------------------------------------------------------


def _gnm(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform graph with exactly m edges and exactly n // 2 looped vertices."""
    edges = sorted(rng.sample(list(combinations(range(n), 2)), m))
    return Graph(n, tuple(edges), tuple(sorted(rng.sample(range(n), n // 2))))


def single_report_graphs(seed: int) -> list[tuple[str, Graph]]:
    """G(28, 1/2), G(56, 1/2), a connected sparse G(64, 0.08) and Kneser
    K(7, 3), each with half its vertices looped.  Edge and loop counts are
    fixed, so seeds change which graph is drawn but not its size."""
    rng = random.Random(seed)
    graphs = [("G28", _gnm(rng, 28, 189)), ("G56", _gnm(rng, 56, 770))]
    sparse = _gnm(rng, 64, 161)
    while not reference.is_connected(sparse):
        sparse = _gnm(rng, 64, 161)
    graphs.append(("G64_sparse", sparse))
    subsets = [frozenset(c) for c in combinations(range(1, 8), 3)]
    kneser_edges = tuple((i, j) for i, j in combinations(range(len(subsets)), 2)
                         if not subsets[i] & subsets[j])
    kneser_loops = tuple(sorted(rng.sample(range(len(subsets)), len(subsets) // 2)))
    graphs.append(("K7_3", Graph(len(subsets), kneser_edges, kneser_loops)))
    return graphs


def graph_text(graph: Graph) -> str:
    lines = [f"n {graph.order}"]
    lines += [f"e {u} {v}" for u, v in graph.edges]
    lines += [f"l {v}" for v in graph.loops]
    return "\n".join(lines) + "\n"


class SingleReports:
    """census, walks --kmax 4 and moments on four graph files."""

    name = "single_reports"
    subcommands = ("census", "walks", "moments")

    def setup(self, seed: int, work_dir: Path) -> None:
        self.cli = import_loopwalks()["loopwalks.cli"]
        input_dir = work_dir / "inputs" / f"single_reports_{seed}"
        input_dir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for label, graph in single_report_graphs(seed):
            path = input_dir / f"{label}.txt"
            path.write_text(graph_text(graph), encoding="utf-8")
            self.files.append((label, path, graph))

    def inputs(self) -> list[tuple[str, Graph]]:
        return [(label, graph) for label, _, graph in self.files]

    def prepare_expected(self, seed: int, inputs: list[tuple[str, Graph]]) -> None:
        self.expected = {label: reference.single_reports(graph) for label, graph in inputs}

    def request_graph(self, request: int) -> str:
        return self.files[request // len(self.subcommands)][0]

    def run_pass(self, tracer, probe: HostProbe) -> PassResult:
        stages = {f"{sub}_s": 0.0 for sub in self.subcommands}
        latencies = []
        outputs = []
        for index, (label, path, _) in enumerate(self.files):
            probe.due()
            graph_start = clock()
            for offset, sub in enumerate(self.subcommands):
                argv = [sub, str(path)] + (["--kmax", "4"] if sub == "walks" else [])
                call_start = clock()
                code, text, err = run_cli(self.cli, argv, tracer,
                                          index * len(self.subcommands) + offset)
                stages[f"{sub}_s"] += clock() - call_start
                outputs.append((label, sub, code, text, err))
            latencies.append(clock() - graph_start)
        return PassResult(sum(latencies), len(self.files), latencies, stages, outputs)

    def check(self, result: PassResult) -> tuple[int, int, list[str]]:
        """(operations attempted, operations failed, what differed)."""
        problems = []
        failed = 0
        for label, sub, code, text, err in result.outputs:
            found = check_output(code, text, err, self.expected[label][sub])
            if found:
                failed += 1
                problems.extend(f"{label} {sub}: {p}" for p in found[:3])
        return len(result.outputs), failed, problems


# -- verify_sample ------------------------------------------------------------


class VerifySample:
    """verify --sample 1000 over orders 4..10, default depth, rst and format."""

    name = "verify_sample"
    count = 1000
    n_range = (4, 10)

    def setup(self, seed: int, work_dir: Path) -> None:
        self.cli = import_loopwalks()["loopwalks.cli"]
        self.seed = seed

    def inputs(self) -> None:
        return None

    def prepare_expected(self, seed: int, inputs: None) -> None:
        graphs = reference.sampled_graphs(self.count, *self.n_range, 0.5, 0.5, seed)
        self.expected_top = reference.verify_report(graphs)
        self.expected_results = [reference.verify_result(f"sample[{i}]", g)
                                 for i, g in enumerate(graphs)]

    def request_graph(self, request: int) -> str:
        return "sample"

    def run_pass(self, tracer, probe: HostProbe) -> PassResult:
        argv = ["verify", "--sample", str(self.count), "--seed", str(self.seed),
                "--n-range", f"{self.n_range[0]},{self.n_range[1]}"]
        start = clock()
        code, text, err = run_cli(self.cli, argv, tracer, 0)
        wall = clock() - start
        # Every graph's result reaches the caller when the call returns.
        return PassResult(wall, self.count, [wall] * self.count, {}, [(code, text, err)])

    def check(self, result: PassResult) -> tuple[int, int, list[str]]:
        (code, text, err), = result.outputs
        problems = check_output(code, text, err, self.expected_top)
        if problems:
            return self.count, self.count, problems
        results = json.loads(text).get("results")
        if not isinstance(results, list) or len(results) != self.count:
            return self.count, self.count, ["results: wrong length"]
        failed = 0
        for actual, expected in zip(results, self.expected_results):
            found = reference.mismatches(actual, expected, f"${expected['label']}")
            if found:
                failed += 1
                problems.extend(found[:3])
        return self.count, failed, problems


# -- exhaustive_routes ----------------------------------------------------------


class ExhaustiveRoutes:
    """Formula, trace and enumeration routes for k = 1..4 on every labeled
    graph of order 1..5 with every loop subset, as acceptance criterion 1."""

    name = "exhaustive_routes"
    graph_count = 2 + 8 + 64 + 1024 + 32768

    def setup(self, seed: int, work_dir: Path) -> None:
        modules = import_loopwalks()
        self.walks = modules["loopwalks.walks"]
        self.oracle = modules["loopwalks.oracle"]
        families = modules["loopwalks.families"]
        self.graphs = [g for n in range(1, 6) for g in families.enumerate_all_graphs(n)]

    def inputs(self) -> list[Graph]:
        return [Graph(g.order, g.edges, g.loops) for g in self.graphs]

    def prepare_expected(self, seed: int, inputs: list[Graph]) -> None:
        self.keys = inputs
        self.enumeration_ok = (len(inputs) == self.graph_count
                               and len(set(inputs)) == self.graph_count)
        self.expected = [reference.closed_walk_traces(key) for key in inputs]

    def request_graph(self, request: int) -> str:
        return f"n{self.graphs[request].order}"

    def _routes(self, graph):
        wc = self.walks.walk_counts(graph)
        traced = []
        enumerated = []
        for k in range(1, 5):
            traced.append(self.oracle.trace_power(graph, k))
            enumerated.append(self.oracle.enumerate_closed_walks(graph, k).total)
        return (wc.w1, wc.w2, wc.w3, wc.w4), tuple(traced), tuple(enumerated)

    def run_pass(self, tracer, probe: HostProbe) -> PassResult:
        latencies = []
        outputs = []
        for index, graph in enumerate(self.graphs):
            probe.due()
            graph_start = clock()
            try:
                if tracer is None:
                    outputs.append(self._routes(graph))
                else:
                    tracer.request = index
                    outputs.append(tracer.record("request", self._routes, graph))
            except Exception as exc:  # counted as a failed operation by check()
                outputs.append(repr(exc))
            latencies.append(clock() - graph_start)
        return PassResult(sum(latencies), len(self.graphs), latencies, {}, outputs)

    def check(self, result: PassResult) -> tuple[int, int, list[str]]:
        attempted = len(result.outputs)
        if not self.enumeration_ok:
            return attempted, attempted, ["enumerate_all_graphs did not yield the 33,866 distinct graphs"]
        failed = 0
        problems = []
        for graph, routes, expected in zip(self.keys, result.outputs, self.expected):
            if isinstance(routes, str) or any(route != expected for route in routes):
                failed += 1
                problems.append(f"{graph}: routes {routes} vs traces {expected}")
        return attempted, failed, problems


WORKLOADS = {w.name: w for w in (SingleReports, VerifySample, ExhaustiveRoutes)}
