import json
import subprocess
import sys
import time

import pytest

from turanlab import cli, solvers
from turanlab.cli import JobSpec, dispatch, main
from turanlab.hypergraph import from_json_dict, dumps_canonical, from_graph6


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "turanlab.cli", *args],
        capture_output=True,
        text=True,
    )
    status = json.loads(proc.stderr.strip().splitlines()[-1])
    return proc.returncode, proc.stdout, status


class TestSolve:
    def test_ex_four_cycle(self):
        code, out, status = run_cli("solve", "ex", "--n", "7", "--pattern", "C4")
        assert code == 0
        assert status["value"] == 9
        payload = json.loads(out)
        assert payload["value"] == 9
        assert len(payload["witness"]["edges"]) == 9

    def test_ex_with_degree_floor(self):
        code, out, _ = run_cli(
            "solve", "ex", "--n", "5", "--pattern", "C4", "--degree-floor", "4"
        )
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_z_quantity(self):
        code, out, _ = run_cli(
            "solve", "z", "--m", "3", "--n", "3", "--pattern", "K{2,2}"
        )
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_zexp_quantity(self):
        code, out, _ = run_cli(
            "solve", "zexp", "--m", "3", "--n", "3",
            "--ordered-pattern", "K{2,2}+", "--core-pattern", "K{2,2}+",
        )
        assert code == 0
        assert json.loads(out)["value"] == 9

    def test_multiple_patterns(self):
        code, out, _ = run_cli(
            "solve", "ex", "--n", "5", "--pattern", "C4", "--pattern", "K{1,3}"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 5

    def test_missing_pattern_is_malformed(self):
        code, _, status = run_cli("solve", "ex", "--n", "5")
        assert code == 2
        assert status["status"] == "error"

    def test_cap_exit_code(self):
        code, _, status = run_cli("solve", "ex", "--n", "50", "--pattern", "C4")
        assert code == 3
        assert status["exit"] == 3

    def test_bad_pattern_exit_code(self):
        code, _, _ = run_cli("solve", "ex", "--n", "5", "--pattern", "Q7")
        assert code == 2

    def test_ordered_pattern_on_a_plain_host_exits_2(self, capsys, monkeypatch):
        # n = 3 cannot hold C4 at all; the placement is refused all the same,
        # before the search (the re-check's finder, which would refuse it
        # after, is kept out of the way)
        monkeypatch.setattr(solvers, "find_in_graph", lambda host, spec: None)
        assert main(["solve", "ex", "--n", "3", "--pattern", "C4 ordered"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        status = json.loads(captured.err.strip().splitlines()[-1])
        assert status["exit"] == 2 and "needs a host with parts" in status["error"]


class TestConstruct:
    def test_normgraph_round_trip(self, tmp_path):
        out = tmp_path / "pg.json"
        code, _, status = run_cli(
            "construct", "normgraph", "--q", "3", "--s", "3", "-o", str(out)
        )
        assert code == 0
        raw = out.read_text()
        g = from_json_dict(json.loads(raw))
        assert g.n == 18
        assert dumps_canonical(g) + "\n" == raw
        assert status["edges"] == g.edge_count

    def test_graph6_round_trip(self, tmp_path):
        out = tmp_path / "pg.g6"
        code, _, _ = run_cli(
            "construct", "normgraph", "--q", "3", "--s", "2",
            "--format", "graph6", "-o", str(out),
        )
        assert code == 0
        g = from_graph6(out.read_text().strip())
        assert g.n == 6

    def test_graph6_rejected_for_bipartite(self):
        code, _, status = run_cli(
            "construct", "bipartite", "--q", "3", "--s", "2", "--format", "graph6"
        )
        assert code == 2
        assert "graph6" in status["error"]

    def test_composed_layer_choice(self):
        # the full composed run is covered by the acceptance suite; this
        # only exercises the flag validation
        code, _, status = run_cli(
            "construct", "composed", "--p", "2", "--s1", "3", "--s2", "3",
            "--layer", "bogus",
        )
        assert code == 2

    def test_deletion_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                "construct", "deletion", "--n", "14", "--pattern", "C4",
                "--seed", "5", "-o", str(path),
            )
            assert code == 0
        assert a.read_text() == b.read_text()

    def test_deletion_seed_changes_output(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            path = tmp_path / f"s{seed}.json"
            run_cli(
                "construct", "deletion", "--n", "14", "--pattern", "C4",
                "--seed", seed, "-o", str(path),
            )
            outs.append(path.read_text())
        assert outs[0] != outs[1]


class TestCheck:
    def test_pg_properties_pass(self):
        code, _, status = run_cli("check", "pg-properties", "--q", "3", "--s", "2")
        assert code == 0
        assert status["violations"] == 0

    def test_norm_map_pass(self):
        code, _, status = run_cli("check", "norm-map", "--q", "3", "--s", "3")
        assert code == 0
        assert status["expected_fiber"] == 4

    def test_ratio_count_pass(self):
        code, _, status = run_cli("check", "ratio-count", "--q", "3", "--s", "3")
        assert code == 0
        assert status["triples"] == 144
        assert status["ratio_floor"] == 3

    def test_random_suites_pass(self):
        for suite in ("fullness", "greedy-extend", "decomposition"):
            code, _, status = run_cli(
                "check", suite, "--n", "8", "--count", "10", "--seed", "1"
            )
            assert code == 0, suite
            assert status["violations"] == 0

    def test_missing_flags_malformed(self):
        code, _, status = run_cli("check", "pg-properties")
        assert code == 2
        assert "--q" in status["error"]

    @pytest.mark.parametrize("suite", ["fullness", "greedy-extend", "decomposition"])
    @pytest.mark.parametrize("flag", ["--count", "--n"])
    def test_negative_size_rejected(self, capsys, suite, flag):
        assert main(["check", suite, flag, "-5"]) == 2
        captured = capsys.readouterr()
        status = json.loads(captured.err.strip().splitlines()[-1])
        assert status["exit"] == 2 and status["status"] == "error"
        assert status["error"] == f"{flag} must be non-negative, got -5"


    @pytest.mark.parametrize(
        "suite, s, error",
        [
            ("norm-map", "1", "need s >= 2"),
            ("norm-map", "-2", "need s >= 2"),
            ("ratio-count", "2", "ratio counts need s >= 3"),
            ("ratio-count", "1", "ratio counts need s >= 3"),
            ("ratio-count", "0", "ratio counts need s >= 3"),
        ],
    )
    def test_small_s_names_s(self, capsys, suite, s, error):
        assert main(["check", suite, "--q", "3", "--s", s]) == 2
        status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert status["exit"] == 2 and status["status"] == "error"
        assert status["error"] == error


class TestScanAndReport:
    def test_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, status = run_cli(
            "scan", "--pattern", "C4", "--n", "5", "--n", "6",
            "--alpha", "1", "--alpha", "1/2", "-o", str(out),
        )
        assert code == 0
        assert status["cells"] == 4
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("pattern,host_kind,n,alpha")

    def test_scan_rejects_zero_denominator_alpha(self, capsys):
        assert main(["scan", "--pattern", "C4", "--n", "5", "--alpha", "1/0"]) == 2
        status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert status["exit"] == 2 and status["status"] == "error"
        assert "'1/0'" in status["error"]

    def test_no_command_takes_jobs(self, capsys):
        for command in (["solve", "ex", "--n", "5", "--pattern", "C4"],
                        ["scan", "--pattern", "C4", "--n", "5", "--alpha", "1"]):
            assert main([*command, "--jobs", "2"]) == 2
            status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert status == {"command": None, "exit": 2, "status": "error"}

    def test_report_merges(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("x,y\n1,2\n")
        second.write_text("y,z\n3,4\n")
        merged = tmp_path / "m.csv"
        code, _, status = run_cli(
            "report", str(first), str(second), "-o", str(merged)
        )
        assert code == 0
        rows = merged.read_text().strip().splitlines()
        assert rows[0] == "x,y,z"
        assert rows[1] == "1,2,"
        assert rows[2] == ",3,4"

    def test_report_missing_file(self, tmp_path):
        code, _, status = run_cli("report", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_report_to_stdout_keeps_crlf(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("x,y\n1,2\n")
        second.write_text("y,z\n3,4\n")
        assert main(["report", str(first), str(second)]) == 0
        assert capsys.readouterr().out == "x,y,z\r\n1,2,\r\n,3,4\r\n"

    @pytest.mark.parametrize("body, got", [("a,b\n1,2,3\n", 3), ("a,b\n1,2\n3\n", 1)])
    def test_report_rejects_ragged_rows(self, tmp_path, capsys, body, got):
        path = tmp_path / "ragged.csv"
        path.write_text(body)
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        status = json.loads(captured.err.strip().splitlines()[-1])
        assert status["exit"] == 2 and status["status"] == "error"
        line = body.count("\n")
        assert status["error"] == f"{path}: line {line}: expected 2 fields, got {got}"

    @pytest.mark.parametrize(
        "body, error",
        [
            ("a,a\n1,2\n", "line 1: column 'a' appears more than once"),
            ("a\n" + "x" * 140_000 + "\n", "line 2: field larger than field limit (131072)"),
        ],
        ids=["repeated-column", "oversized-field"],
    )
    def test_report_rejects_unreadable_csv(self, tmp_path, capsys, body, error):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        status = json.loads(captured.err.strip().splitlines()[-1])
        assert status["exit"] == 2 and status["status"] == "error"
        assert status["error"] == f"{path}: {error}"


class TestBound:
    def test_bound_certificate(self):
        code, out, status = run_cli(
            "bound", "kst_z", "--set", "m=3", "--set", "n=3",
            "--set", "s=2", "--set", "t=2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(3 * 3**0.5 + 3)
        assert payload["branch"] == "direct"

    def test_bound_bad_params(self):
        code, _, _ = run_cli("bound", "kst_z", "--set", "m=3")
        assert code == 2
        code, _, _ = run_cli("bound", "kst_z", "--set", "m=x")
        assert code == 2

    def test_bound_repeated_key_rejected(self, capsys):
        argv = ["bound", "kst_z", "--set", "m=3", "--set", "n=3", "--set", "s=2",
                "--set", "t=2", "--set", "t=3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        status = json.loads(captured.err.strip().splitlines()[-1])
        assert status["error"] == "parameter 't' is set more than once"


class TestJobSpec:
    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("paint", {})

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError):
            JobSpec("bound", {"bound_id": "kst_ex", "sets": [], "extra": 1})

    def test_dispatch_programmatic(self, capsys):
        spec = JobSpec("bound", {"bound_id": "kst_ex", "sets": ["n=4", "s=2", "t=2"]})
        code, extras = dispatch(spec)
        assert code == 0
        assert extras["value"] == pytest.approx(6.0)
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"] == {"n": 4, "s": 2, "t": 2}

    def test_main_in_process(self, capsys):
        code = main(["solve", "ex", "--n", "4", "--pattern", "C4"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["value"] == 4
        assert json.loads(captured.err.strip().splitlines()[-1])["status"] == "ok"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_internal_error_is_not_malformed(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "ex_exact", broken)
        assert main(["solve", "ex", "--n", "4", "--pattern", "C4"]) == 1
        status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert status == {"command": "solve", "status": "internal-error",
                          "error": "KeyError: 'boom'", "exit": 1}


class TestUnusedFlags:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["solve", "z", "--m", "3", "--n", "3", "--pattern", "C4", "--degree-floor", "2"],
             "solve z does not use --degree-floor"),
            (["construct", "normgraph", "--q", "3", "--s", "2", "--n", "7"],
             "construct normgraph does not use --n"),
            (["construct", "bipartite", "--q", "3", "--s", "2", "--layer", "v1", "--seed", "4"],
             "construct bipartite does not use --layer, --seed"),
            (["solve", "zexp", "--m", "2", "--n", "2", "--ordered-pattern", "K{2,2}+",
              "--core-pattern", "K{2,2}+", "--pattern", "C4"],
             "solve zexp does not use --pattern"),
            (["solve", "ex", "--n", "4", "--pattern", "C4", "--m", "3"],
             "solve ex does not use --m"),
            (["check", "pg-properties", "--q", "3", "--s", "2", "--count", "4"],
             "check pg-properties does not use --count"),
            # typed at its default value, a flag is still typed
            (["solve", "z", "--m", "3", "--n", "3", "--pattern", "C4", "--host-kind", "graph"],
             "solve z does not use --host-kind"),
            (["construct", "normgraph", "--q", "3", "--s", "2", "--layer", "hypergraph"],
             "construct normgraph does not use --layer"),
        ],
    )
    def test_flag_the_job_does_not_read_is_rejected(self, capsys, argv, error):
        assert main(argv) == 2
        status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert status == {"command": argv[0], "status": "error", "error": error, "exit": 2}

    def test_flags_the_job_reads_pass(self, capsys):
        assert main(["check", "fullness", "--n", "6", "--count", "2", "--seed", "3"]) == 0
        assert main(["solve", "ex", "--n", "4", "--pattern", "C4", "--host-kind", "graph"]) == 0
        assert main(["solve", "z", "--m", "2", "--n", "2", "--pattern", "C4"]) == 0
        status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert status["status"] == "ok" and status["value"] == 3


class TestPatternFiles:
    def test_pattern_from_file(self, tmp_path):
        core = {"kind": "bipartite", "m": 2, "n": 2,
                "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]}
        path = tmp_path / "core.json"
        path.write_text(json.dumps(core))
        code, out, _ = run_cli("solve", "ex", "--n", "5", "--pattern", f"@{path}")
        assert code == 0
        assert json.loads(out)["value"] == 6

    def test_pattern_file_missing(self):
        code, _, _ = run_cli("solve", "ex", "--n", "5", "--pattern", "@/nope.json")
        assert code == 2

    def test_pattern_file_with_huge_part_hits_the_cap(self, tmp_path):
        # 50 bytes naming a part of five million vertices: refused before
        # any adjacency is allocated
        path = tmp_path / "core.json"
        path.write_text('{"kind":"bipartite","m":5000000,"n":1,"edges":[]}')
        code, _, status = run_cli("solve", "ex", "--n", "4", "--pattern", f"@{path}")
        assert code == 3
        assert status["exit"] == 3 and "capped at 64" in status["error"]


class TestPatternCap:
    def test_large_star_hits_the_cap(self):
        # refused before the core's automorphism scan, which takes seconds
        # at this size
        code, _, status = run_cli("solve", "ex", "--n", "4", "--pattern", "K{200,1}")
        assert code == 3
        assert status["exit"] == 3 and "capped at 64" in status["error"]

    def test_huge_star_hits_the_cap(self):
        # deeper than the recursion limit of the automorphism scan: a cap,
        # not an internal error
        code, _, status = run_cli("solve", "ex", "--n", "4", "--pattern", "K{2000,1}")
        assert code == 3
        assert status["exit"] == 3 and status["status"] == "error"


class TestConstructionCap:
    # norm_graph(16, 4) would hold about 125.8M edges (tens of GB); each of
    # these is refused before any edge is built
    @pytest.mark.parametrize("args", [
        ("construct", "normgraph", "--q", "16", "--s", "4"),
        ("check", "pg-properties", "--q", "16", "--s", "4"),
        ("check", "composed", "--p", "2", "--s1", "4", "--s2", "4"),
    ], ids=lambda args: " ".join(args[:2]))
    def test_oversized_norm_graph_hits_the_cap(self, args):
        t0 = time.monotonic()
        code, out, status = run_cli(*args)
        assert time.monotonic() - t0 < 1.0
        assert code == 3 and out == ""
        assert status["exit"] == 3 and status["status"] == "error"
        assert "125798400 edges" in status["error"]

    # both layers pass their caps; the triple bound, layer edges times cross
    # degree, refuses the pair before either layer (about 1M edges) is built
    @pytest.mark.parametrize("args, bound", [
        (("check", "composed", "--p", "2", "--s1", "3", "--s2", "4"), 233_506_560),
        (("construct", "composed", "--p", "2", "--s1", "4", "--s2", "3"), 250_185_600),
    ], ids=["check composed", "construct composed"])
    def test_oversized_composed_hits_the_triple_bound(self, args, bound):
        t0 = time.monotonic()
        code, out, status = run_cli(*args)
        assert time.monotonic() - t0 < 1.0
        assert code == 3 and out == ""
        assert status["exit"] == 3 and status["status"] == "error"
        assert f"would hold up to {bound} triples" in status["error"]


class TestSuiteCap:
    @pytest.mark.parametrize("suite", ["fullness", "greedy-extend", "decomposition"])
    def test_seeded_suite_over_the_cap_exits_3(self, suite):
        t0 = time.monotonic()
        code, out, status = run_cli("check", suite, "--n", "33")
        assert time.monotonic() - t0 < 1.0
        assert code == 3 and out == ""
        assert status["exit"] == 3 and status["status"] == "error"
        assert status["error"] == "--n is capped at 32 vertices, got 33"

    @pytest.mark.parametrize("suite", ["fullness", "greedy-extend", "decomposition"])
    def test_seeded_suite_at_the_cap_runs(self, capsys, suite):
        assert main(["check", suite, "--n", "32", "--count", "0"]) == 0
        status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert status["exit"] == 0 and status["violations"] == 0


@pytest.mark.parametrize(
    "core, field",
    [
        ({"kind": "bipartite", "m": "x", "n": 2, "edges": []}, "'m'"),
        ({"kind": "bipartite", "n": 2, "edges": []}, "'m'"),
        ({"kind": "bipartite", "m": 2, "n": -1, "edges": []}, "'n'"),
        ({"kind": "bipartite", "m": 2, "n": 2, "edges": [[0, "a"]]}, "'edges'"),
        ({"kind": "bipartite", "m": 2, "n": 2, "edges": [[0, 0, 1]]}, "'edges'"),
        ({"kind": "bipartite", "m": 2, "n": 2}, "'edges'"),
        ([1, 2], "bipartite graph"),
    ],
)
def test_malformed_pattern_file_is_reported(tmp_path, capsys, core, field):
    path = tmp_path / "core.json"
    path.write_text(json.dumps(core))
    assert main(["solve", "ex", "--n", "4", "--pattern", f"@{path}"]) == 2
    status = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert status["exit"] == 2 and status["status"] == "error"
    assert field in status["error"]
