"""loopwalks benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload exhaustive_routes --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The command starts one worker process, which is the process measured: it
sets up (imports the package and makes the inputs) several times, then
again before every pass, and repeats passes until their summed time reaches
``--seconds``.  It writes every pass's results to a file and exits.  This
process then computes the expected values with ``reference.py``, checks
every pass against them and reports the worker's peak resident memory, so
neither the reference nor the checking adds to what is measured.

Other tenants of the host can slow this process by up to about 1.8x for
minutes at a time.  The worker therefore runs a host probe (see
``workloads.HostProbe``) between set-ups and requests, and every timing is
reported at the host speed at which the probe takes ``PROBE_REFERENCE_S``:
the raw time multiplied by ``PROBE_REFERENCE_S`` over the probe's median in
the same run.  The raw figures and the probe's median are in the context.

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics named in ``BENCHMARK.json``; the spans of the last traced
pass are written to ``.perfbench/spans_<workload>.tsv``.  The last line of
standard output is the result object; the line before it holds the run's
context.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from tracer import Tracer, install, self_times, uninstall, write_spans
from workloads import WORKLOADS, HostProbe, clock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 10
# wall_s is the median of at least this many untraced passes; one pass of
# exhaustive_routes takes 10-19 s on a 2-vCPU host, so a run of a few tens of
# seconds would otherwise hold only one or two.
MIN_UNTRACED_PASSES = 3
WORKER_TIMEOUT_S = 170
# The host probe's time on an unloaded core of the 2 GHz Xeon vCPU the
# benchmark was defined on.  Every timing is reported at the host speed at
# which the probe takes this long; the raw figures are in the context line.
PROBE_REFERENCE_S = 0.002
# Unit -> the power of (PROBE_REFERENCE_S / probe median) a value is multiplied by.
RESCALED = {"s": 1.0, "us": 1.0, "1/s": -1.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """Identifies the package source where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "loopwalks").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# -- per-layer metrics ---------------------------------------------------------
#
# Per-layer names come from BENCHMARK.json.  Most are <module>.<function>.<stat>:
# calls, self_s, total_s and exp come from the function's spans; sweeps_sum,
# residual_max and bytes from its return values (see LayerStats).
# census.useful_ratio is distinct graphs per subgraph_census call.  The names
# in RUN_LEVEL are measured on the run's untraced passes, not on spans.

SPAN_STATS = ("calls", "self_s", "total_s", "exp")
RETURN_STATS = ("sweeps_sum", "residual_max", "bytes")
RUN_LEVEL = ("trace.overhead_s", "failed_frac", "census_s", "walks_s", "moments_s",
             "graph_p999_us")


def span_names(names: list[str]) -> list[str]:
    """The per-layer names one traced pass determines."""
    return [name for name in names if name not in RUN_LEVEL]


def traced_functions(names: list[str]) -> list[str]:
    """The <module>.<function> targets the per-layer names need wrapped."""
    targets = {name.rsplit(".", 1)[0] for name in names if name.count(".") == 2}
    if "census.useful_ratio" in names:
        targets.add("census.subgraph_census")
    return sorted(targets)


class LayerStats:
    """Observations the tracer hands over besides spans."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.census_graphs: set = set()

    def observers(self) -> dict:
        values = self.values

        def spectrum(args, result):
            values["spectral.eigenvalues.sweeps_sum"] += result.sweeps_used
            values["spectral.eigenvalues.residual_max"] = max(
                values["spectral.eigenvalues.residual_max"], result.residual)

        def rendered(args, result):
            values["cli.render_report.bytes"] += len(result.encode("utf-8"))

        def census(args, result):
            g = args[0]
            self.census_graphs.add((g.order, g.edges, g.loops))

        return {"spectral.eigenvalues": spectrum, "cli.render_report": rendered,
                "census.subgraph_census": census}


def traced_pass(workload, names: list[str], probe: HostProbe):
    stats = LayerStats()
    tracer = Tracer(stats.observers())
    bindings = install(tracer, traced_functions(names))
    try:
        result = workload.run_pass(tracer, probe)
    finally:
        uninstall(bindings)
    return result, tracer.spans, layer_metrics(workload, names, tracer.spans, stats)


def layer_metrics(workload, names: list[str], spans, stats: LayerStats) -> dict[str, float]:
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    by_graph: dict[tuple[str, str], float] = defaultdict(float)
    scaled = {name.rsplit(".", 1)[0] for name in names if name.endswith(".exp")}
    for span, self_s in zip(spans, self_times(spans)):
        calls[span.name] += 1
        own[span.name] += self_s
        total[span.name] += span.end - span.start
        if span.name in scaled:
            by_graph[span.name, workload.request_graph(span.request)] += self_s
    out: dict[str, float] = {}
    for name in names:
        function, stat = name.rsplit(".", 1)
        if name == "census.useful_ratio":
            census_calls = calls["census.subgraph_census"]
            out[name] = len(stats.census_graphs) / census_calls if census_calls else 0.0
        elif name.count(".") != 2 or stat not in SPAN_STATS + RETURN_STATS:
            raise ValueError(f"no way to measure per-layer metric {name!r}")
        elif stat in RETURN_STATS:
            out[name] = stats.values[name]
        elif stat == "calls":
            out[name] = calls[function]
        elif stat == "self_s":
            out[name] = own[function]
        elif stat == "total_s":
            out[name] = total[function]
        else:
            # log2 of the time on G(56, 1/2) over G(28, 1/2): a measured exponent.
            small, large = by_graph[function, "G28"], by_graph[function, "G56"]
            out[name] = math.log2(large / small) if small > 0 and large > 0 else 0.0
    return out


# -- the measured process --------------------------------------------------------


def worker(args) -> int:
    """Set up, run passes and write them to ``args.worker``; checks nothing.

    The file holds pickled records: the workload's inputs, then one
    (PassResult, per-layer values or None) per pass, then a dict of the
    set-up times and the host probe's samples.
    """
    sys.path.insert(0, str(ROOT / "src"))
    names = span_names([m["name"] for m in load_spec()["per_layer"]])
    work_dir = ROOT / ".perfbench"
    workload = WORKLOADS[args.workload]()
    setup_times = []
    probe = HostProbe()

    def set_up():
        gc.collect()
        probe.run()
        start = clock()
        workload.setup(args.seed, work_dir)
        setup_times.append(clock() - start)
        probe.run()

    for _ in range(SETUP_REPEATS):
        set_up()
    spans = None
    with open(args.worker, "wb") as out:
        pickle.dump(workload.inputs(), out, pickle.HIGHEST_PROTOCOL)
        measured = 0.0
        untraced = 0
        # A traced run reports per-layer figures from its traced passes; one
        # untraced pass gives trace.overhead_s and the latency tail.
        min_untraced = 1 if args.trace else MIN_UNTRACED_PASSES
        while measured < args.seconds or untraced < min_untraced:
            for with_trace in (False, True)[:1 + args.trace]:
                # Fresh inputs, so no pass finds graph caches an earlier pass filled.
                set_up()
                layers = None
                if with_trace:
                    result, spans, layers = traced_pass(workload, names, probe)
                else:
                    result = workload.run_pass(None, probe)
                    untraced += 1
                measured += result.wall
                pickle.dump((result, layers), out, pickle.HIGHEST_PROTOCOL)
                del result
        pickle.dump({"setup": setup_times, "probe": probe.samples}, out,
                    pickle.HIGHEST_PROTOCOL)
    if spans is not None:
        write_spans(spans, work_dir / f"spans_{args.workload}.tsv")
    return 0


# -- the checking process ----------------------------------------------------------


def report(args, spec: dict, workload, passes_file: Path, peak_rss_mb: float):
    """(context, result object) from the worker's records, each pass checked."""
    untraced, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    with open(passes_file, "rb") as data:
        workload.prepare_expected(args.seed, pickle.load(data))
        while not isinstance(record := pickle.load(data), dict):
            result, layers = record
            pass_attempted, pass_failed, pass_problems = workload.check(result)
            attempted += pass_attempted
            failed += pass_failed
            problems.extend(pass_problems[:5])
            result.outputs = None
            if layers is None:
                untraced.append(result)
            else:
                traced.append((result.wall, layers))
        setup_times, probe_samples = record["setup"], record["probe"]

    for line in problems[:20]:
        print(f"mismatch: {line}", file=sys.stderr)

    wall = statistics.median(r.wall for r in untraced)
    # Every graph's latency in every untraced pass, so a pause that hits a few
    # graphs of one pass is part of the tail.
    samples = [latency for r in untraced for latency in r.latencies]
    probe_s = statistics.median(probe_samples)
    speed = PROBE_REFERENCE_S / probe_s
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "untraced_passes": len(untraced), "traced_passes": len(traced),
        "graphs_per_pass": untraced[0].graphs, "latency_samples": len(samples),
        "setup_samples": len(setup_times),
        "operations_attempted": attempted,
        "probe_median_s": probe_s, "probe_samples": len(probe_samples),
        "raw_wall_s": wall, "raw_setup_s": statistics.median(setup_times),
    }
    if args.trace:
        wanted = spec["per_layer"]
        values = {name: statistics.median(layers[name] for _, layers in traced)
                  for name in span_names([m["name"] for m in wanted])}
        values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - wall
        values["failed_frac"] = failed / attempted
        values["graph_p999_us"] = percentile(samples, 0.999) * 1e6
        for stage in ("census_s", "walks_s", "moments_s"):
            values[stage] = statistics.median(r.stages.get(stage, 0.0) for r in untraced)
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "graphs_per_s": untraced[0].graphs / wall,
            "graph_p50_us": statistics.median(samples) * 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {m["name"]: {"value": values[m["name"]] * speed ** RESCALED.get(m["unit"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    return context, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                     "metrics": metrics}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "loopwalks" / "__init__.py").is_file():
        print(f"error: no loopwalks package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    spec = load_spec()
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    passes_file = work_dir / f"passes_{args.workload}.pkl"
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv,
                           "--worker", str(passes_file)],
                          cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    # The worker is the only child waited for so far, so this is its peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if done.returncode != 0:
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]()
    context, result = report(args, spec, workload, passes_file, peak_rss_mb)
    passes_file.unlink()
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
