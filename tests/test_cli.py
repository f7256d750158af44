import json

import pytest

from loopwalks import ParseError, parse_graph, serialize_graph
from loopwalks.cli import SplitMix64, main, sample_connected_graphs
from loopwalks.spectral import BoundRecord


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
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_graph(text)


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


def test_generate_rejects_bad_spec(capsys):
    code = main(["generate", "--family", "cycle", "--n", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


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

    def shifted(graph, q, k=1, spectrum=None):
        return direct(graph, q, k, spectrum) * (1.0 + offset)

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


def test_verify_exit_one_on_violation(monkeypatch, tmp_path, capsys):
    # force a falsified record through the counting path
    from loopwalks import spectral

    def broken_bound(graph, spectrum=None):
        return BoundRecord(name="mcclelland", lhs=2.0, rhs=1.0, slack=-1.0,
                           holds=False)

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
