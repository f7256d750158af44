import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from loopwalks import (FamilySpec, InvalidSpec, NoConvergence, ParseError,
                       SizeLimitExceeded, census, generate, parse_graph,
                       serialize_graph, spectral, walks)
from loopwalks.cli import main
from loopwalks.families import SplitMix64, sample_connected_graphs

# the census totals the walk formula reads, and the parts only the census
# report adds
_FORMULA_PARTS = ("loop_degree_sum", "triangle_census", "zagreb1",
                  "boundary_edges", "four_cycle_total")
_CENSUS_PARTS = (*_FORMULA_PARTS, "loop_boundary", "four_clique_count",
                 "four_cycle_census")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4s.txt"
    code = main(["generate", "--family", "complete", "--n", "4",
                 "--loops", "0,1,3", "-o", str(path)])
    assert code == 0
    return str(path)


# -- file format -------------------------------------------------------------


def test_parse_round_trip():
    text = "# sample\nn 4\ne 0 1\ne 2 3\nl 1\n"
    g = parse_graph(text)
    assert g.order == 4 and g.edges == ((0, 1), (2, 3)) and g.loops == (1,)
    assert parse_graph(serialize_graph(g)) == g


def test_parse_ignores_blank_lines_and_comments():
    g = parse_graph("\n# c\n\nn 2\n# another\ne 0 1\n")
    assert g.size == 1


@pytest.mark.parametrize("text", [
    "e 0 1\nn 2\n",            # edge before the order line
    "n 2\nn 2\n",              # two order lines
    "n 2\nq 1\n",              # unknown directive
    "n 2\ne 0\n",              # wrong arity
    "n 2\ne 0 x\n",            # not an integer
    "n 2\ne 0 2\n",            # index out of range
    "n 2\ne 0 1\ne 1 0\n",     # duplicate edge
    "n 2\nl 0\nl 0\n",         # duplicate loop
    "",                        # missing order line
    "l 0\nn 2\n",              # loop before the order line
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


@pytest.mark.parametrize("data", [
    b"# c\r\nn 4\re 0 1\x0ce 2 3\n\nl 1\xe2\x80\xa8l 3",   # every line break
    b"n 2\ne 0 1\ne 1 0\n",
    b"n 2\ne 0 x\n\xc2\x85q",
    b"n 3\ne 0 1\n\xe2\x80\xa8\xff\n",                     # not UTF-8 at byte 13
    b"\n\n\xc3",
])
def test_guarded_loader_reads_what_the_library_reads(tmp_path, data):
    # the CLI's line-by-line reader gives load_graph's graph or error; it
    # reports the first error in file order, where load_graph reports a
    # decoding error before any other
    from loopwalks.graphio import load_graph, load_graph_guarded

    path = tmp_path / "g.txt"
    path.write_bytes(data)
    results = []
    for load in (load_graph, lambda p: load_graph_guarded(p, census._require_census_order)):
        try:
            results.append(load(path))
        except ParseError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


# -- generate ----------------------------------------------------------------


def test_generate_writes_parseable_file(k4_file, capsys):
    code, report = run_json(capsys, "census", k4_file)
    assert code == 0
    assert report["graph"] == {"n": 4, "m": 6, "sigma": 3, "connected": True}


def test_generate_to_stdout_round_trips(capsys):
    code, out = run_cli(capsys, "generate", "--family", "path", "--n", "8",
                        "--loops", "1,2,4,6")
    assert code == 0
    g = parse_graph(out)
    assert g.order == 8 and g.loops == (1, 2, 4, 6)


def test_generate_petersen_single_loop(capsys):
    code, out = run_cli(capsys, "generate", "--family", "petersen", "--loops", "1")
    assert code == 0
    g = parse_graph(out)
    assert g.order == 10 and g.size == 15 and g.loops == (1,)


def test_generate_structured_bipartite(capsys):
    code, out = run_cli(capsys, "generate", "--family", "complete_bipartite",
                        "--a", "2", "--b", "3", "--sigma-a", "1", "--sigma-b", "2")
    assert code == 0
    assert parse_graph(out).loops == (0, 2, 3)


@pytest.mark.parametrize("flags", [["complete", "--n", "641"],
                                   ["kneser", "--k", "1000000"]])
def test_generate_refuses_an_order_no_subcommand_reads(monkeypatch, capsys, flags):
    from loopwalks import families

    def not_reached(*args):
        raise AssertionError("a graph was built past the order guard")

    monkeypatch.setattr(families, "build", not_reached)
    _assert_input_error(capsys, ["generate", "--family", *flags], "order <= 640")


def test_generate_rejects_bad_spec(capsys):
    code = main(["generate", "--family", "cycle", "--n", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flags,spec", [
    (["complete", "--n", "4", "--loops", "0,2"], FamilySpec.complete(4, (0, 2))),
    (["complete", "--n", "4"], FamilySpec.complete(4)),
    (["complete_bipartite", "--a", "2", "--b", "3", "--loops", "1,4"],
     FamilySpec.complete_bipartite(2, 3, loops=(1, 4))),
    (["complete_bipartite", "--a", "2", "--b", "3", "--sigma-a", "2",
      "--sigma-b", "1"], FamilySpec.complete_bipartite(2, 3, sigma_a=2, sigma_b=1)),
    (["cycle", "--n", "5", "--loops", "0,3"], FamilySpec.cycle(5, (0, 3))),
    (["cycle", "--n", "5"], FamilySpec.cycle(5)),
    (["path", "--n", "4", "--loops", "3"], FamilySpec.path(4, (3,))),
    (["path", "--n", "4"], FamilySpec.path(4)),
    (["wheel", "--n", "6", "--loops", "2", "--center-loop"],
     FamilySpec.wheel(6, loops=(2,))),
    (["wheel", "--n", "6", "--center-loop", "--rim-loops", "3"],
     FamilySpec.wheel(6, center_looped=True, rim_loops=3)),
    (["wheel", "--n", "6", "--rim-loops", "5"], FamilySpec.wheel(6, rim_loops=5)),
    (["star", "--n", "5", "--loops", "1,4", "--leaf-loops", "1"],
     FamilySpec.star(5, loops=(1, 4))),
    (["star", "--n", "5", "--center-loop", "--leaf-loops", "2"],
     FamilySpec.star(5, center_looped=True, leaf_loops=2)),
    (["star", "--n", "5", "--leaf-loops", "4"], FamilySpec.star(5, leaf_loops=4)),
    (["kneser", "--k", "3", "--loops", "0,34"], FamilySpec.kneser(3, (0, 34))),
    (["kneser", "--k", "2"], FamilySpec.kneser(2)),
    (["petersen", "--loops", "1"], FamilySpec.petersen((1,))),
    (["petersen"], FamilySpec.petersen()),
])
def test_generate_every_family_both_placements(capsys, flags, spec):
    # --loops wins over the structured placement flags when both are given
    code, out = run_cli(capsys, "generate", "--family", *flags)
    assert code == 0
    assert parse_graph(out) == generate(spec)


@pytest.mark.parametrize("flags,needs", [
    (["complete"], "--n"),
    (["cycle", "--loops", "0"], "--n"),
    (["path"], "--n"),
    (["wheel", "--center-loop"], "--n"),
    (["star", "--leaf-loops", "1"], "--n"),
    (["complete_bipartite", "--a", "2"], "--a and --b"),
    (["complete_bipartite", "--b", "2", "--sigma-b", "1"], "--a and --b"),
    (["kneser", "--n", "7"], "--k"),
])
def test_generate_missing_size_flag_is_input_error(capsys, flags, needs):
    assert main(["generate", "--family", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --family {flags[0]} needs {needs}\n"


# -- walks ---------------------------------------------------------------------


def test_walks_k4_example(k4_file, capsys):
    code, report = run_json(capsys, "walks", k4_file, "--kmax", "4")
    assert code == 0
    assert report["walks"]["formula"] == {"w1": 3, "w2": 15, "w3": 54, "w4": 207}
    assert report["walks"]["trace"] == {"w1": 3, "w2": 15, "w3": 54, "w4": 207}
    assert report["walks"]["agree"] is True


def test_walks_kmax_above_four_traces_only(k4_file, capsys):
    code, report = run_json(capsys, "walks", k4_file, "--kmax", "6")
    assert code == 0
    assert "w6" in report["walks"]["trace"]
    assert "w6" not in report["walks"]["formula"]


def test_walks_loopless_path(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    main(["generate", "--family", "path", "--n", "4", "-o", str(path)])
    code, report = run_json(capsys, "walks", str(path))
    assert code == 0
    assert report["walks"]["formula"]["w1"] == 0
    assert report["walks"]["formula"]["w2"] == 2 * 3


# -- moments --------------------------------------------------------------------


def test_moments_hat_k22(tmp_path, capsys):
    path = tmp_path / "hk22.txt"
    main(["generate", "--family", "complete_bipartite", "--a", "2", "--b", "2",
          "--sigma-a", "2", "--sigma-b", "2", "-o", str(path)])
    code, report = run_json(capsys, "moments", str(path), "--q", "0,1,2,4")
    assert code == 0
    moments = report["moments"]
    assert moments["energy"] == pytest.approx(4.0, abs=1e-9)
    assert moments["twisted"]["0"] == 4
    assert moments["twisted"]["2"] == pytest.approx(8.0, abs=1e-9)
    assert moments["twisted"]["4"] == pytest.approx(32.0, abs=1e-9)
    assert moments["closed_forms_agree"] is True
    assert all(b["holds"] for b in report["bounds"])


@pytest.mark.parametrize("offset,expected", [(1e-12, 0), (1e-6, 1)])
def test_moments_closed_form_tolerance_scales_with_magnitude(
        monkeypatch, tmp_path, capsys, offset, expected):
    # M_4 of K_30 with 15 loops is about 7.1e5: a relative 1e-12 offset of
    # the direct value is rounding noise, a relative 1e-6 one is a failure
    from loopwalks import spectral
    direct = spectral.twisted_moment

    def shifted(graph, q):
        return direct(graph, q) * (1.0 + offset)

    path = tmp_path / "k30.txt"
    assert main(["generate", "--family", "complete", "--n", "30",
                 "--loops", ",".join(map(str, range(15))), "-o", str(path)]) == 0
    monkeypatch.setattr(spectral, "twisted_moment", shifted)
    code, report = run_json(capsys, "moments", str(path))
    assert report["moments"]["m4_direct"] > 7e5
    assert report["moments"]["closed_forms_agree"] is (expected == 0)
    assert code == expected


def test_moments_disconnected_warns(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("n 4\ne 0 1\ne 2 3\n")
    code, report = run_json(capsys, "moments", str(path))
    assert code == 0
    assert report["graph"]["connected"] is False
    assert report["bounds"] == []
    assert any("disconnected" in w for w in report["warnings"])


@pytest.mark.parametrize("text", ["n 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\nl 1\nl 3\n",
                                  "n 4\ne 0 1\ne 2 3\nl 2\n"])
def test_moments_report_is_the_moment_report_sections(tmp_path, capsys, text):
    # cmd_moments adds only the graph summary and warning to moment_report
    from loopwalks.cli import _graph_report, render_report
    path = tmp_path / "g.txt"
    path.write_text(text)
    graph = parse_graph(text)
    qs = (0.0, 0.5, 1.0, 3.0)
    _, report = run_json(capsys, "moments", str(path), "--q", "0,0.5,1,3")
    sections = spectral.moment_report(graph, qs)
    assert json.loads(render_report(_graph_report(graph, **sections), "json")) == report


def test_moments_refuses_an_order_past_the_solver_guard(monkeypatch, tmp_path, capsys):
    # refused before the dense matrix, the traces or the census are built
    from loopwalks import oracle

    def not_reached(*args):
        raise AssertionError("work done past the order guard")

    monkeypatch.setattr(spectral, "adjacency_rows", not_reached)
    monkeypatch.setattr(oracle, "matrix_power_diagonal", not_reached)
    for part in _CENSUS_PARTS:
        monkeypatch.setattr(census, part, not_reached)
    spectral._spectrum.cache_clear()
    walks._formula.cache_clear()
    path = tmp_path / "edgeless.txt"
    path.write_text(f"n {spectral._MAX_DENSE_ORDER + 1}\n")
    assert main(["moments", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


# -- census -----------------------------------------------------------------------


def test_census_k4_loops(k4_file, capsys):
    code, report = run_json(capsys, "census", k4_file)
    assert code == 0
    assert report["census"]["tri_loops"] == [0, 3, 1]
    assert report["census"]["k4_count"] == 1


def test_census_k23(tmp_path, capsys):
    path = tmp_path / "k23.txt"
    main(["generate", "--family", "complete_bipartite", "--a", "2", "--b", "3",
          "-o", str(path)])
    code, report = run_json(capsys, "census", str(path))
    assert report["census"]["c4_not_k4"] == 3
    assert report["census"]["triangles_total"] == 0


def test_census_edgeless(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("n 3\n")
    code, report = run_json(capsys, "census", str(path))
    assert code == 0
    census = report["census"]
    assert census["zagreb1"] == 0 and census["triangles_total"] == 0
    assert census["c4_not_k4"] == 0 and census["k4_count"] == 0


def test_large_edgeless_graph_walks_and_census(tmp_path, capsys):
    # the census is linear in the order on edgeless graphs; at its guard
    path = tmp_path / "empty.txt"
    path.write_text(f"n {census._MAX_CENSUS_ORDER}\n")
    code, report = run_json(capsys, "walks", str(path), "--kmax", "1")
    assert code == 0
    assert report["walks"]["formula"] == report["walks"]["trace"] == {"w1": 0}
    code, report = run_json(capsys, "census", str(path))
    assert code == 0
    assert report["census"]["c4_not_k4"] == 0 and report["census"]["k4_count"] == 0


def test_census_refuses_an_order_past_its_guard(monkeypatch, tmp_path, capsys):
    # refused before any census part runs, even on an edgeless graph;
    # moments meets the solver's guard first
    def not_reached(*args):
        raise AssertionError("census work done past the order guard")

    for part in _CENSUS_PARTS:
        monkeypatch.setattr(census, part, not_reached)
    walks._formula.cache_clear()
    path = tmp_path / "edgeless.txt"
    path.write_text(f"n {census._MAX_CENSUS_ORDER + 1}\n")
    _assert_input_error(capsys, ["census", str(path)], "census is guarded")
    _assert_input_error(capsys, ["walks", str(path)], "census is guarded")
    _assert_input_error(capsys, ["moments", str(path)], "eigensolver")


# -- verify -----------------------------------------------------------------------


def test_verify_hat_k33_equality_slack(tmp_path, capsys):
    path = tmp_path / "hk33.txt"
    main(["generate", "--family", "complete_bipartite", "--a", "3", "--b", "3",
          "--sigma-a", "3", "--sigma-b", "3", "-o", str(path)])
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    bounds = {b["name"]: b for b in report["results"][0]["bounds"]}
    assert abs(bounds["energy_lb_moments"]["slack"]) < 1e-9
    assert report["summary"]["violations"] == 0


def test_verify_disconnected_noted_exit_zero(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("n 4\ne 0 1\ne 2 3\n")
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    entry = report["results"][0]
    assert "DisconnectedInput" in entry["note"]
    assert report["summary"]["skipped"] == 1


def test_verify_sample_mode(capsys):
    code, report = run_json(capsys, "verify", "--sample", "5", "--seed", "7",
                            "--n-range", "3,6")
    assert code == 0
    assert report["summary"]["graphs"] == 5
    assert report["summary"]["violations"] == 0
    assert report["sampler"]["seed"] == 7


def test_verify_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "verify", "--sample", "8", "--seed", "11")
    _, second = run_cli(capsys, "verify", "--sample", "8", "--seed", "11")
    assert first == second


def test_verify_needs_input(capsys):
    assert main(["verify"]) == 2


def test_verify_rejects_bad_rst(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 2\ne 0 1\n")
    assert main(["verify", str(path), "--rst", "1,1,2"]) == 2
    assert main(["verify", str(path), "--rst", "1,2"]) == 2


def _assert_input_error(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0]


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_verify_rejects_nonpositive_chain_depth(capsys, tmp_path, depth):
    path = tmp_path / "g.txt"
    path.write_text("n 2\ne 0 1\n")
    _assert_input_error(capsys, ["verify", str(path), "--chain-depth", depth],
                        "--chain-depth")
    _assert_input_error(capsys, ["verify", "--sample", "3", "--chain-depth", depth],
                        "--chain-depth")


def test_moments_rejects_non_finite_exponents(k4_file, capsys):
    _assert_input_error(capsys, ["moments", k4_file, "--q", "nan,inf"], "nan,inf")
    _assert_input_error(capsys, ["moments", k4_file, "--q", "1,-inf"], "-inf")


def test_verify_rejects_non_finite_rst(k4_file, capsys):
    _assert_input_error(capsys, ["verify", k4_file, "--rst", "nan,0,2"], "nan")


def _k12_two_loops(tmp_path):
    # K_12 with two loops: |lambda - sigma/n| reaches about 11, and 11^296
    # is past the largest float
    path = tmp_path / "k12.txt"
    assert main(["generate", "--family", "complete", "--n", "12",
                 "--loops", "0,1", "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("argv,named", [
    (["moments", "--q", "400"], "q=400"),
])
def test_exponent_past_float_range_is_input_error(tmp_path, capsys, argv, named):
    _assert_input_error(capsys, [argv[0], _k12_two_loops(tmp_path), *argv[1:]],
                        named)


@pytest.mark.parametrize("flags,named", [
    (["--chain-depth", "400"], "overflows a float"),
    # M_148^2 and M_295^2 overflow although each moment is finite
    (["--rst", "148,295,295"], "r=148,s=295,t=295"),
    (["--rst", "149,297,297"], "q=297"),
])
def test_verify_notes_a_graph_past_float_range(tmp_path, capsys, flags, named):
    # the overflowing graph is skipped with a note; K_2, whose deviations
    # are +-1, is still verified in the same run
    k2 = tmp_path / "k2.txt"
    k2.write_text("n 2\ne 0 1\n")
    code, report = run_json(capsys, "verify", _k12_two_loops(tmp_path), str(k2),
                            *flags)
    assert code == 0
    overflowed, verified = report["results"]
    assert "bounds" not in overflowed
    assert overflowed["note"].startswith("FloatOverflow: ")
    assert named in overflowed["note"] and overflowed["note"].endswith("; skipped")
    assert verified["bounds"] and all(row["holds"] for row in verified["bounds"])
    assert report["summary"] == {"graphs": 2, "skipped": 1, "violations": 0}


def test_verify_refuses_a_file_past_the_solver_guard(tmp_path, capsys):
    # only an overflow becomes a note: an oversized graph still exits 2
    path = tmp_path / "path.txt"
    order = spectral._MAX_DENSE_ORDER + 1
    path.write_text(f"n {order}\n" + "".join(f"e {v} {v + 1}\n"
                                            for v in range(order - 1)))
    _assert_input_error(capsys, ["verify", str(path)], "eigensolver")


def test_verify_refuses_a_disconnected_file_past_the_solver_guard_on_load(
        monkeypatch, tmp_path, capsys):
    # refused as it is read, before the connectivity check builds bit rows
    from loopwalks import cli

    def not_reached(*args):
        raise AssertionError("work done past the order guard")

    monkeypatch.setattr(cli, "is_connected", not_reached)
    path = tmp_path / "edgeless.txt"
    path.write_text(f"n {spectral._MAX_DENSE_ORDER + 1}\n")
    _assert_input_error(capsys, ["verify", str(path)], "eigensolver")


@pytest.mark.parametrize("text, flag", [
    ("n 2\ne 0 5\n", "out of range"),
    (f"n {spectral._MAX_DENSE_ORDER + 1}\n", "eigensolver")],
    ids=["malformed", "oversized"])
def test_verify_refuses_a_bad_file_before_sampling(monkeypatch, tmp_path, capsys,
                                                   text, flag):
    from loopwalks import cli

    def not_reached(*args):
        raise AssertionError("sampled before the files were loaded")

    monkeypatch.setattr(cli, "sample_connected_graphs", not_reached)
    path = tmp_path / "g.txt"
    path.write_text(text)
    _assert_input_error(capsys, ["verify", "--sample", "20", "--n-range", "600,640",
                                 str(path)], flag)


def test_verify_reports_sampled_graphs_before_files(k4_file, capsys):
    _, report = run_json(capsys, "verify", k4_file, "--sample", "2",
                         "--n-range", "3,4", "--seed", "5")
    assert [entry["label"] for entry in report["results"]] == [
        "sample[0]", "sample[1]", k4_file]


def test_verify_sample_keeps_the_graphs_that_do_not_overflow(capsys):
    # one sampled graph's moment overflows at q = 449; the other graphs are
    # still reported, and the exit status follows the reported rows
    code, report = run_json(capsys, "verify", "--sample", "100", "--seed", "1",
                            "--chain-depth", "512")
    results = report["results"]
    assert len(results) == 100
    noted = [entry for entry in results if "note" in entry]
    overflowed = [entry for entry in noted
                  if entry["note"].startswith("FloatOverflow: ")]
    assert "q=449" in overflowed[0]["note"]
    assert report["summary"]["skipped"] == len(noted)
    verified = [entry for entry in results if "bounds" in entry]
    assert len(verified) + len(noted) == 100 and verified
    violations = sum(not row["holds"] for entry in verified for row in entry["bounds"])
    assert report["summary"]["violations"] == violations
    assert code == (1 if violations else 0)


def _traced_peak_per_output_byte(capsys, argv):
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak / len(capsys.readouterr().out)


@pytest.mark.parametrize("flags", [
    ["--sample", "100", "--seed", "42"],
    ["--sample", "50", "--seed", "5", "--chain-depth", "20", "--format", "table"],
], ids=["json", "table"])
def test_verify_memory_is_its_output_plus_one_graph(capsys, flags):
    # each graph's entry is rendered once its rows are built and no
    # whole-report string is built, so the traced peak is the entry texts,
    # the captured output and one graph's rows: 2.15x (json) and 2.21x
    # (table)
    spectral._spectrum.cache_clear()
    code, ratio = _traced_peak_per_output_byte(capsys, ["verify", *flags])
    assert code == 0
    assert ratio <= 2.5


def test_verify_prints_nothing_when_a_later_graph_fails(monkeypatch, capsys):
    spectral._spectrum.cache_clear()
    solve = spectral.eigenvalues
    solves = []

    def failing_fifth(graph):
        solves.append(graph)
        if len(solves) == 5:
            raise NoConvergence("QL iteration did not converge")
        return solve(graph)

    monkeypatch.setattr(spectral, "eigenvalues", failing_fifth)
    assert main(["verify", "--sample", "50", "--seed", "42"]) == 2
    captured = capsys.readouterr()
    assert len(solves) == 5
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_nonpositive_sample(capsys, count):
    _assert_input_error(capsys, ["verify", "--sample", count], "--sample")


@pytest.mark.parametrize("n_range", ["1,1", "1,4", "0,3"])
def test_verify_rejects_n_range_below_two(capsys, n_range):
    _assert_input_error(capsys, ["verify", "--sample", "2", "--n-range", n_range],
                        "--n-range")


@pytest.mark.parametrize("prob", ["0", "-0.5", "1.5", "nan"])
def test_verify_rejects_edge_prob_outside_unit_interval(capsys, prob):
    _assert_input_error(capsys, ["verify", "--sample", "2", "--edge-prob", prob],
                        "--edge-prob")


@pytest.mark.parametrize("prob", ["-0.1", "1.01", "nan"])
def test_verify_rejects_loop_prob_outside_unit_interval(capsys, prob):
    _assert_input_error(capsys, ["verify", "--sample", "2", "--loop-prob", prob],
                        "--loop-prob")


def test_verify_accepts_probability_end_points(capsys):
    code, report = run_json(capsys, "verify", "--sample", "2", "--n-range", "2,3",
                            "--edge-prob", "1", "--loop-prob", "0")
    assert code == 0
    assert report["summary"]["graphs"] == 2


def test_verify_sampler_exhaustion_is_input_error(capsys):
    _assert_input_error(capsys, ["verify", "--sample", "1", "--n-range", "6,6",
                                 "--edge-prob", "1e-9"], "edge probability")


@pytest.mark.parametrize("budget, expected", [(44, 0), (43, 2)])
def test_verify_sampler_gives_up_past_the_rejected_draw_budget(
        monkeypatch, capsys, budget, expected):
    # at order 6 an attempt draws 1 + 21 numbers, and seed 42 rejects two
    # attempts before it accepts one
    from loopwalks import families
    monkeypatch.setattr(families, "_MAX_REJECTED_DRAWS", budget)
    argv = ["verify", "--sample", "1", "--n-range", "6,6", "--edge-prob", "0.2"]
    if expected:
        _assert_input_error(capsys, argv, "edge probability")
    else:
        assert main(argv) == 0


def test_verify_refuses_n_range_past_the_solver_guard(monkeypatch, capsys):
    # refused before the sampler draws its O(n^2) pairs
    from loopwalks import cli

    def not_reached(*args):
        raise AssertionError("sampled past the order guard")

    monkeypatch.setattr(cli, "sample_connected_graphs", not_reached)
    hi = spectral._MAX_DENSE_ORDER + 1
    _assert_input_error(capsys, ["verify", "--sample", "1", "--n-range",
                                 f"{hi},{hi}"], "--n-range")


def test_verify_refuses_chain_depth_past_the_guard(monkeypatch, tmp_path, capsys):
    # refused before the sampler draws or any spectrum is solved
    from loopwalks import cli

    def not_reached(*args):
        raise AssertionError("sampled or solved past the chain-depth guard")

    monkeypatch.setattr(cli, "sample_connected_graphs", not_reached)
    monkeypatch.setattr(spectral, "eigenvalues", not_reached)
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ne 0 1\n")
    depth = str(spectral._MAX_CHAIN_DEPTH + 1)
    _assert_input_error(capsys, ["verify", "--sample", "1", "--chain-depth", depth],
                        "--chain-depth")
    _assert_input_error(capsys, ["verify", str(path), "--chain-depth", depth],
                        "--chain-depth")


@pytest.mark.parametrize("rst,named", [
    ("1,0,0", "4r = s + t + 2"),
    ("-1,-4,-2", ">= 0"),
    ("1,2", "three numbers"),
])
def test_verify_refuses_bad_rst_before_sampling(monkeypatch, tmp_path, capsys,
                                                rst, named):
    # refused before the sampler draws or any spectrum is solved
    from loopwalks import cli

    def not_reached(*args):
        raise AssertionError("sampled or solved past the --rst check")

    monkeypatch.setattr(cli, "sample_connected_graphs", not_reached)
    monkeypatch.setattr(spectral, "eigenvalues", not_reached)
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ne 0 1\n")
    _assert_input_error(capsys, ["verify", "--sample", "20", "--n-range", "300,320",
                                 f"--rst={rst}"], named)
    _assert_input_error(capsys, ["verify", str(path), f"--rst={rst}"], named)


def test_verify_runs_at_the_chain_depth_guard(tmp_path, capsys):
    # K_2's deviations are +-1, so no moment overflows at any depth
    path = tmp_path / "k2.txt"
    path.write_text("n 2\ne 0 1\n")
    depth = spectral._MAX_CHAIN_DEPTH
    code, report = run_json(capsys, "verify", str(path), "--chain-depth", str(depth))
    assert code == 0
    names = [row["name"] for row in report["results"][0]["bounds"]]
    assert names.count(f"twisted_positive[q={depth}]") == 1
    assert names.count(f"ratio_chain[q={depth - 1}]") == 1


@pytest.mark.parametrize("flags", [
    ["--family", "complete_bipartite", "--a", "20", "--b", "30"],
    ["--family", "star", "--n", "400"],
])
def test_verify_exit_zero_at_exact_equality(tmp_path, capsys, flags):
    # cauchy_schwarz[p=0.5,q=3] prints lhs = rhs = 864000000.0 on K(20,30)
    # with a float slack of -1.19e-7, one ulp; the equality is certified
    path = tmp_path / "g.txt"
    assert main(["generate", *flags, "-o", str(path)]) == 0
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0 and report["summary"]["violations"] == 0
    bounds = report["results"][0]["bounds"]
    assert any(row["slack"] < -1e-9 and row["holds"] for row in bounds)


def test_verify_exit_zero_on_complete_bipartite_sweep(tmp_path, capsys):
    files = []
    for a in range(1, 16):
        for b in range(a, 16):
            for hat in (False, True):
                spec = (FamilySpec.complete_bipartite(a, b, sigma_a=a, sigma_b=b)
                        if hat else FamilySpec.complete_bipartite(a, b))
                path = tmp_path / f"k{a}_{b}_{int(hat)}.txt"
                path.write_text(serialize_graph(generate(spec)))
                files.append(str(path))
    code, report = run_json(capsys, "verify", *files)
    assert code == 0
    assert report["summary"] == {"graphs": 240, "skipped": 0, "violations": 0}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_sample_solves_each_eigenproblem_once(monkeypatch, capsys):
    spectral._spectrum.cache_clear()
    solves = _count_calls(monkeypatch, spectral, "eigenvalues")
    code, report = run_json(capsys, "verify", "--sample", "50", "--seed", "42")
    assert code == 0 and report["summary"]["graphs"] == 50
    assert len(solves) == 50


def test_moments_solves_and_takes_census_once(monkeypatch, k4_file, capsys):
    # the formula reads each census total once, through its memo
    spectral._spectrum.cache_clear()
    walks._formula.cache_clear()
    solves = _count_calls(monkeypatch, spectral, "eigenvalues")
    parts = [_count_calls(monkeypatch, census, part) for part in _FORMULA_PARTS]
    code, _ = run_json(capsys, "moments", k4_file)
    assert code == 0
    assert len(solves) == 1 and [len(calls) for calls in parts] == [1] * 5


def test_verify_exit_one_on_violation(monkeypatch, tmp_path, capsys):
    # force a falsified record through the counting path
    from loopwalks import spectral

    def broken_bound(graph):
        return {"name": "mcclelland", "lhs": 2.0, "rhs": 1.0, "slack": -1.0,
                "holds": False}

    monkeypatch.setattr(spectral, "mcclelland_bound", broken_bound)
    path = tmp_path / "g.txt"
    path.write_text("n 2\ne 0 1\n")
    code, report = run_json(capsys, "verify", str(path))
    assert code == 1
    assert report["summary"]["violations"] == 1


# -- report rendering and exit codes ------------------------------------------------


def test_reports_are_deterministic(k4_file, capsys):
    _, first = run_cli(capsys, "moments", k4_file)
    _, second = run_cli(capsys, "moments", k4_file)
    assert first == second


def test_reals_render_with_twelve_significant_digits(k4_file, capsys):
    _, out = run_cli(capsys, "moments", k4_file)
    energy_line = next(line for line in out.splitlines() if '"energy"' in line)
    digits = energy_line.split(":")[1].strip().rstrip(",").replace(".", "").lstrip("-")
    assert len(digits) <= 12


def test_table_format(k4_file, capsys):
    code, out = run_cli(capsys, "walks", k4_file, "--format", "table")
    assert code == 0
    assert "walks.formula.w4" in out
    assert "207" in out


def test_missing_file_is_input_error(capsys):
    assert main(["walks", "/nonexistent/file.txt"]) == 2


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n 2\ne 0 5\n")
    assert main(["walks", str(path)]) == 2


def test_bad_kmax_is_input_error(k4_file, capsys):
    assert main(["walks", k4_file, "--kmax", "0"]) == 2


def test_walks_refuses_kmax_past_the_trace_guard(monkeypatch, tmp_path, capsys):
    # refused before the census or any trace runs, even on one vertex
    from loopwalks import cli, oracle

    def not_reached(*args):
        raise AssertionError("work done past the --kmax guard")

    monkeypatch.setattr(cli, "walk_counts", not_reached)
    monkeypatch.setattr(cli, "traces_upto", not_reached)
    path = tmp_path / "vertex.txt"
    path.write_text("n 1\nl 0\n")
    assert main(["walks", str(path), "--kmax", str(oracle._MAX_TRACE_K + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "--kmax" in captured.err
    assert "Traceback" not in captured.err


def test_walks_refuses_trace_work_past_the_budget(monkeypatch, tmp_path, capsys):
    # K_102 with two loops at kmax 64 is just past the trace route's work
    # budget (K_101 is inside it): refused before the census or any trace
    from loopwalks import cli

    def not_reached(*args):
        raise AssertionError("work done past the trace work guard")

    monkeypatch.setattr(cli, "walk_counts", not_reached)
    monkeypatch.setattr(cli, "traces_upto", not_reached)
    path = tmp_path / "k102.txt"
    assert main(["generate", "--family", "complete", "--n", "102",
                 "--loops", "0,1", "-o", str(path)]) == 0
    _assert_input_error(capsys, ["walks", str(path), "--kmax", "64"],
                        "the trace route is guarded")


_ARGUMENT_ERRORS = [
    # a comma list that starts with "-" is a value, so its flag's check names it
    (["verify", "{path}", "--rst", "-1,-4,-2"],
     "--rst: exponents must be finite and >= 0, got -1,-4,-2"),
    (["walks", "{path}", "--kmax"], "--kmax: expected one argument"),
    (["moments", "{path}", "--q", "-1,2"],
     "--q: exponents must be finite and >= 0, got -1,2"),
    (["verify", "--n-range", "-1,5"],
     "--n-range: sampled orders need 2 <= LO <= HI, got -1,5"),
    (["moments", "{path}", "--q", "abc"],
     "--q: expected comma-separated numbers, got 'abc'"),
]


@pytest.mark.parametrize("argv,message", _ARGUMENT_ERRORS,
                         ids=[f"argv{i}" for i in range(len(_ARGUMENT_ERRORS))])
def test_argument_errors_are_one_line(tmp_path, capsys, argv, message):
    # argparse's own errors leave main by the one input-error path
    path = tmp_path / "g.txt"
    path.write_text("n 2\ne 0 1\n")
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: argument {message}"]


# the address space each module run may take: a reader that held a whole
# unbounded file would fail here instead of filling the host's memory
_CHILD_ADDRESS_SPACE = 1 << 30


def _limit_child(close_stdout: bool):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE,) * 2)
        if close_stdout:
            os.close(1)
    return limit


def _run_module(*args, close_stdout=False):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "loopwalks", *args],
                          stdin=subprocess.DEVNULL,
                          stdout=None if close_stdout else subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60,
                          preexec_fn=_limit_child(close_stdout))


def test_module_exits_2_on_an_argument_error(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 2\ne 0 1\n")
    done = _run_module("walks", str(path), "--kmax")
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: argument --kmax: ")


_BAD_FILES = {"not_utf8": b"\xff\xfe", "nul_byte": b"n 3\x00\n",
              "huge_order": b"n 99999999999999999999999\n",
              "long_n_line": b"n " + b" " * (1 << 20) + b"5\n",
              "repeated_edges": b"n 3\n" + b"e 0 1\n" * 100_000}


@pytest.mark.parametrize("kind", [*_BAD_FILES, "directory", "missing",
                                  "dev_zero", "closed_stdout"])
def test_bad_input_file_is_one_line_exit_2(tmp_path, kind):
    # a bad file or a closed stdout never ends in a traceback, whichever
    # subcommand meets it; an endless file is refused in bounded memory
    path = tmp_path / kind
    commands = ["walks", "moments", "census", "verify"]
    if kind == "directory":
        path.mkdir()
    elif kind in _BAD_FILES:
        path.write_bytes(_BAD_FILES[kind])
    elif kind == "dev_zero":
        path = Path("/dev/zero")
        if not path.exists():
            pytest.skip("no zero device")
    elif kind == "closed_stdout":
        path.write_text("n 3\ne 0 1\ne 1 2\nl 0\n")
        commands.append("generate")
    for command in commands:
        argv = (["generate", "--family", "path", "--n", "3"]
                if command == "generate" else [command, str(path)])
        done = _run_module(*argv, close_stdout=kind == "closed_stdout")
        assert (done.returncode, done.stdout or "") == (2, ""), (command, done.stderr)
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["walks", "FILE", "--kmax", "0"],
    ["walks", "FILE", "--kmax", "65"],
    ["walks", "FILE", "--kmax", "x"],
    ["moments", "FILE", "--q", "1,nan"],
    ["moments", "FILE", "--q=-1"],
    ["moments", "FILE", "--q", "-1,2"],
    ["moments", "FILE", "--q", "abc"],
    ["verify", "--sample", "0"],
    ["verify", "--sample", "5", "--n-range", "2,641"],
    ["verify", "FILE", "--n-range", "5,4"],
    ["verify", "--sample", "5", "--edge-prob", "0"],
    ["verify", "FILE", "--edge-prob", "0"],
    ["verify", "FILE", "--loop-prob", "2"],
    ["verify", "FILE", "--chain-depth", "0"],
    ["verify", "--sample", "5", "--chain-depth", "1025"],
    ["verify", "FILE", "--rst", "1,0,0"],
    ["generate", "--family", "path", "--n", "3", "--loops", "a"],
], ids=" ".join)
def test_bad_flag_is_refused_before_any_work(monkeypatch, capsys, argv):
    # each flag is checked as it is parsed: no file is read, no graph is
    # sampled and no spectrum is solved, whatever the subcommand
    from loopwalks import cli

    def not_reached(*args):
        raise AssertionError("work done past a bad flag")

    monkeypatch.setattr(cli, "load_graph_guarded", not_reached)
    monkeypatch.setattr(cli, "sample_connected_graphs", not_reached)
    monkeypatch.setattr(spectral, "eigenvalues", not_reached)
    flag = next(arg.split("=")[0] for arg in reversed(argv) if arg.startswith("--"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: argument {flag}: ")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert "--chain-depth" in capsys.readouterr().out


# -- sampler ---------------------------------------------------------------------


def test_splitmix_is_deterministic():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    assert 0.0 <= SplitMix64(1).random() < 1.0


def test_sampler_respects_bounds_and_connectivity():
    from loopwalks import is_connected
    graphs = sample_connected_graphs(20, 3, 7, 0.5, 0.5, seed=123)
    assert len(graphs) == 20
    for g in graphs:
        assert 3 <= g.order <= 7
        assert g.size >= 1
        assert is_connected(g)


def test_sampler_reproducible():
    first = sample_connected_graphs(10, 4, 10, 0.5, 0.5, seed=5)
    second = sample_connected_graphs(10, 4, 10, 0.5, 0.5, seed=5)
    assert first == second


@pytest.mark.parametrize("n_lo, n_hi, edge_prob, loop_prob, error", [
    (5, 4, 0.5, 0.5, InvalidSpec),
    (7, 5, 0.5, 0.5, InvalidSpec),
    (8, 5, 0.5, 0.5, InvalidSpec),
    (1, 5, 0.5, 0.5, InvalidSpec),
    (2, 641, 0.5, 0.5, SizeLimitExceeded),
    (4, 10, 0.0, 0.5, InvalidSpec),
    (4, 10, 1.5, 0.5, InvalidSpec),
    (4, 10, 0.5, -0.5, InvalidSpec),
])
def test_sampler_refuses_bad_input_before_drawing(monkeypatch, n_lo, n_hi,
                                                  edge_prob, loop_prob, error):
    # (5, 4) once divided by zero and (7, 5) once gave only order 7
    from loopwalks import families

    def not_reached(seed):
        raise AssertionError("drew from the generator past a bad input")

    monkeypatch.setattr(families, "SplitMix64", not_reached)
    with pytest.raises(error):
        sample_connected_graphs(20, n_lo, n_hi, edge_prob, loop_prob, seed=1)
