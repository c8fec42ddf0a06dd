import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import stsramsey
from stsramsey import bose, build_system, fano, skolem
from stsramsey.cli import cli
from stsramsey.io import read_system, write_system


def run(*args):
    return CliRunner().invoke(cli, list(args))


def test_import_does_not_load_numpy():
    src = str(Path(stsramsey.__file__).resolve().parents[1])
    code = "import stsramsey, stsramsey.cli, sys; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("args", [
    ["gen", "--construction", "bose", "--n", "9", "-o"],
    ["color", "-i", "{sys}", "--scheme", "bose", "-o"],
    ["random", "--process", "sts", "--n", "9", "--seed", "1", "-o"],
    ["experiment", "discrepancy", "--n", "9", "--samples", "1", "--seed", "1", "--csv"],
], ids=["gen", "color", "random", "discrepancy"])
def test_unwritable_output_exit_3(tmp_path, args):
    system = tmp_path / "b9.sts"
    run("gen", "--construction", "bose", "--n", "9", "-o", str(system))
    out = str(tmp_path / "missing" / "x")
    res = run(*[a.format(sys=system) for a in args], out)
    assert res.exit_code == 3
    assert res.stderr.splitlines()[-1].startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("args", [
    ["analyze", "-i", "{bad}"],
    ["color", "-i", "{sys}", "--scheme", "hole", "--hole-file", "{bad}"],
], ids=["analyze", "color"])
def test_non_utf8_input_exit_3(tmp_path, args):
    system = tmp_path / "b9.sts"
    run("gen", "--construction", "bose", "--n", "9", "-o", str(system))
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe\x00")
    res = run(*[a.format(sys=system, bad=bad) for a in args])
    assert res.exit_code == 3
    assert res.stderr.startswith("error: cannot read ") and "not UTF-8" in res.stderr


class TestGen:
    def test_bose27_file(self, tmp_path):
        out = tmp_path / "b27.sts"
        res = run("gen", "--construction", "bose", "--n", "27", "-o", str(out))
        assert res.exit_code == 0
        assert read_system(out).m == 117

    def test_skolem7_stdout(self):
        res = run("gen", "--construction", "skolem", "--n", "7")
        assert res.exit_code == 0
        body = [ln for ln in res.stdout.splitlines() if ln and not ln.startswith("#")]
        assert body[0] == "7 7" and len(body) == 8

    def test_bad_order_exit_2(self):
        res = run("gen", "--construction", "bose", "--n", "13")
        assert res.exit_code == 2

    def test_missing_n_exit_2(self):
        res = run("gen", "--construction", "bose")
        assert res.exit_code == 2
        assert res.stderr == "error: --n is required for bose\n"

    def test_round_trip_matches_in_memory(self, tmp_path):
        out = tmp_path / "b15.sts"
        run("gen", "--construction", "bose", "--n", "15", "-o", str(out))
        assert read_system(out) == bose(15)

    def test_random_quasigroup_rejected_for_skolem(self):
        res = run("gen", "--construction", "skolem", "--n", "13",
                  "--quasigroup", "random")
        assert res.exit_code == 2
        # the option is gone, so click rejects it for Bose orders too
        res = run("gen", "--construction", "bose", "--n", "15",
                  "--quasigroup", "random", "--qseed", "5")
        assert res.exit_code == 2 and "No such option" in res.stderr

    @pytest.mark.parametrize("construction", ["fano", "s9"])
    def test_fixed_system_with_another_order_exit_2(self, construction):
        n = {"fano": 7, "s9": 9}[construction]
        assert run("gen", "--construction", construction, "--n", str(n)).exit_code == 0
        res = run("gen", "--construction", construction, "--n", str(n + 6))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"{construction} has {n} vertices, not --n {n + 6}" in res.stderr


class TestAnalyze:
    def test_fano_all_params(self, tmp_path):
        path = tmp_path / "f.sts"
        run("gen", "--construction", "fano", "-o", str(path))
        res = run("analyze", "-i", str(path), "--param", "all")
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["schema"] == "sts-report/1"
        p = doc["parameters"]
        assert p["alpha_star3"]["value"] == 1 and p["alpha_star3"]["exact"]
        assert p["mc3"]["value"] == 6 and p["mc3"]["exact"]
        assert all(v["pass"] for v in doc["verdicts"])
        assert doc["bounds"] == {"gyarfas": 6, "alpha_upper": 1, "hole_upper": 6, "hole_lower": 5,
                                 "z2": 5.207825, "z2_exceeds_gyarfas": True}

    def test_partial_system_has_no_steiner_bounds(self, tmp_path):
        # one triple on 1100 points: alpha*_3 is 366, past the Steiner-only
        # alpha_upper of 365, so no closed form or verdict is reported; the
        # probe reaches the cap 1100 // 3 well within the node cap
        path = tmp_path / "one.sts"
        path.write_text("1100 1\n0 1 2\n")
        res = run("analyze", "-i", str(path), "--param", "alpha-star3", "--max-nodes", "2000")
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert not doc["input"]["steiner"]
        assert doc["bounds"] is None and doc["verdicts"] == []
        hole = doc["parameters"]["alpha_star3"]
        assert hole["exact"] and hole["value"] == 366 and hole["nodes"] <= 2000

    def test_s9_mc3_only(self, tmp_path):
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        res = run("analyze", "-i", str(path), "--param", "mc3")
        doc = json.loads(res.stdout)
        assert doc["parameters"]["mc3"]["value"] == 7

    def test_construction_tag_detected(self, tmp_path):
        path = tmp_path / "b15.sts"
        run("gen", "--construction", "bose", "--n", "15", "-o", str(path))
        doc = json.loads(run("analyze", "-i", str(path), "--param", "alpha").stdout)
        assert doc["input"]["construction"] == "bose"
        path2 = tmp_path / "f.sts"
        run("gen", "--construction", "fano", "-o", str(path2))
        doc2 = json.loads(run("analyze", "-i", str(path2), "--param", "alpha").stdout)
        assert doc2["input"]["construction"] is None

    def test_budgeted_b27_uses_coloring_bound(self, tmp_path):
        # alpha_star and the L2 enumeration share the one node cap: at 5000
        # nodes the hole found so far gives 20, below the Bose coloring's 21,
        # which wins only once the cap stops the hole search near its start
        path = tmp_path / "b27.sts"
        run("gen", "--construction", "bose", "--n", "27", "-o", str(path))
        for cap, value, source in (("5000", 20, "hole_coloring"), ("50", 21, "bose_coloring")):
            res = run("analyze", "-i", str(path), "--param", "mc3",
                      "--max-nodes", cap, "--max-seconds", "5")
            mc3 = json.loads(res.stdout)["parameters"]["mc3"]
            assert (mc3["value"], mc3["exact"], mc3["nodes"]) == (value, False, int(cap))
            assert mc3["upper_bound_source"] == source
            assert mc3["lower_bound_source"] is None

    def test_steiner_mc3_comes_from_the_decomposition(self, tmp_path):
        path = tmp_path / "sk19.sts"
        run("gen", "--construction", "skolem", "--n", "19", "-o", str(path))
        mc3 = json.loads(run("analyze", "-i", str(path), "--param", "mc3").stdout)["parameters"]["mc3"]
        assert (mc3["value"], mc3["exact"], mc3["lower_bound_source"]) == (14, True, "decomposition")

    def test_partial_system_mc3_comes_from_the_search(self, tmp_path):
        path = tmp_path / "tr.sts"
        run("random", "--process", "triangle-removal", "--n", "19", "--m", "28", "--seed", "7",
            "-o", str(path))
        doc = json.loads(run("analyze", "-i", str(path)).stdout)
        mc3 = doc["parameters"]["mc3"]
        assert not doc["input"]["steiner"]
        assert mc3["exact"] and mc3["lower_bound_source"] == "search"

    def test_verdicts_recompute(self, tmp_path):
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        doc = json.loads(run("analyze", "-i", str(path)).stdout)
        n = doc["input"]["n"]
        a = doc["parameters"]["alpha_star3"]["value"]
        mc = doc["parameters"]["mc3"]["value"]
        expected = {
            "alpha_star3_upper": a <= n // 3 - 1,
            "mc3_gyarfas_lower": mc >= -(-2 * n // 3) + 1,
            "mc3_hole_chain": n - 2 * a <= mc <= n - a,
            "mc3_le_n_minus_hole": mc <= n - a,
        }
        got = {v["name"]: v["pass"] for v in doc["verdicts"]}
        assert got == expected

    def test_unreadable_input_exit_3(self):
        res = run("analyze", "-i", "/nonexistent/x.sts")
        assert res.exit_code == 3

    def test_invalid_file_exit_3(self, tmp_path):
        path = tmp_path / "bad.sts"
        path.write_text("not a system\n")
        res = run("analyze", "-i", str(path))
        assert res.exit_code == 3

    @pytest.mark.parametrize("flag", ["--max-nodes", "--max-seconds"])
    def test_non_positive_budget_exit_5(self, tmp_path, flag):
        path = tmp_path / "f.sts"
        run("gen", "--construction", "fano", "-o", str(path))
        res = run("analyze", "-i", str(path), flag, "0")
        assert res.exit_code == 5
        assert res.output.strip() == "error: budget fields must be positive"

    def test_nan_budget_exit_5(self, tmp_path):
        # a NaN deadline would never pass, removing the time cap
        path = tmp_path / "f.sts"
        run("gen", "--construction", "fano", "-o", str(path))
        res = run("analyze", "-i", str(path), "--max-seconds", "nan")
        assert res.exit_code == 5
        assert res.output.strip() == "error: budget fields must be positive"

    def test_degenerate_single_triple(self, tmp_path):
        path = tmp_path / "n3.sts"
        path.write_text("3 1\n0 1 2\n")
        res = run("analyze", "-i", str(path))
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["input"]["degenerate"] is True
        p = doc["parameters"]
        assert p["alpha"]["value"] == 2
        assert p["alpha_star3"]["value"] == 0
        assert p["mc3"]["value"] == 3
        assert doc["verdicts"] == []


class TestColor:
    def test_s9_hole_scheme(self, tmp_path):
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        out = tmp_path / "s9.cols"
        res = run("color", "-i", str(path), "--scheme", "hole", "-o", str(out))
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["max_component"]["size"] == 7
        assert out.read_text().startswith("colors 3\n")

    def test_b27_bose_scheme(self, tmp_path):
        path = tmp_path / "b27.sts"
        run("gen", "--construction", "bose", "--n", "27", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", "bose")
        doc = json.loads(res.stdout)
        assert all(pc["span"] <= 21 for pc in doc["per_color"])
        assert doc["guaranteed_bound"] == 21

    def test_sk19_skolem_scheme(self, tmp_path):
        path = tmp_path / "sk19.sts"
        run("gen", "--construction", "skolem", "--n", "19", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", "skolem")
        doc = json.loads(res.stdout)
        assert all(pc["span"] <= 14 for pc in doc["per_color"])
        assert doc["guaranteed_bound"] == 14

    def test_fano_bose_scheme_exit_4(self, tmp_path):
        path = tmp_path / "f.sts"
        run("gen", "--construction", "fano", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", "bose")
        assert res.exit_code == 4

    @pytest.mark.parametrize("system, scheme, message", [
        (lambda: build_system(3, [(0, 1, 2)]), "bose", "no labeled construction exists on n=3"),
        (lambda: build_system(27, bose(27).triples[1:]), "bose",
         "Bose pattern needs one type-1 triple per quasigroup element"),
        # every triple matches the pattern, so the Steiner check after it speaks
        (lambda: build_system(27, bose(27).triples[:100]), "bose",
         "pair (3, 17) is covered by no triple"),
        (fano, "skolem", "triple (0, 1, 3) matches no Skolem pattern"),
        (lambda: skolem(19), "bose", "n=19 is not a Bose order (need n = 3 mod 6)"),
        (lambda: bose(27), "skolem", "n=27 is not a Skolem order (need n = 1 mod 6)"),
    ], ids=["n3", "b27-no-first-triple", "b27-first-100", "fano-skolem", "s19-bose",
            "b27-skolem"])
    def test_layer_scheme_mismatch_exit_4(self, tmp_path, system, scheme, message):
        path = tmp_path / "x.sts"
        write_system(system(), str(path))
        res = run("color", "-i", str(path), "--scheme", scheme)
        assert res.exit_code == 4
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--max-nodes", "--max-seconds"])
    def test_non_positive_budget_exit_5(self, tmp_path, flag):
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", "hole", flag, "-1")
        assert res.exit_code == 5
        assert res.output.strip() == "error: budget fields must be positive"

    def test_nan_budget_exit_5(self, tmp_path):
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", "hole", "--max-seconds", "nan")
        assert res.exit_code == 5
        assert res.output.strip() == "error: budget fields must be positive"

    def test_hole_file_input(self, tmp_path):
        # s9's one triple through 0 and 1 is (0, 1, 2), so no triple holds
        # 0, 1 and 3: {0}, {1}, {3} is a hole of size 1
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        hole_path = tmp_path / "h.json"
        hole_path.write_text('{"k": 3, "a": 1, "parts": [[0], [1], [3]]}\n')
        res = run("color", "-i", str(path), "--scheme", "hole",
                  "--hole-file", str(hole_path))
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["guaranteed_bound"] == 8 == doc["max_component"]["size"]

    def test_crossing_hole_file_exit_4(self, tmp_path):
        # (0, 3, 6) is a triple of s9
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        hole_path = tmp_path / "h.json"
        hole_path.write_text('{"k": 3, "a": 1, "parts": [[0], [3], [6]]}\n')
        res = run("color", "-i", str(path), "--scheme", "hole",
                  "--hole-file", str(hole_path))
        assert res.exit_code == 4
        assert res.stderr.strip() == "error: certificate admits a crossing triple"

    @pytest.mark.parametrize("parts", ["[[0.5], [1.5], [2.5]]", '[["x"], ["y"], ["z"]]',
                                       "[[true], [false], [2]]"])
    def test_hole_file_with_non_integer_vertices_exit_3(self, tmp_path, parts):
        # 0.5, 1.5, 2.5 meet no triple, so accepting them would claim the
        # bound n - 1 = 8 for a coloring whose largest component is 9
        path = tmp_path / "b9.sts"
        run("gen", "--construction", "bose", "--n", "9", "-o", str(path))
        hole_path = tmp_path / "h.json"
        hole_path.write_text('{"k": 3, "a": 1, "parts": %s}\n' % parts)
        res = run("color", "-i", str(path), "--scheme", "hole",
                  "--hole-file", str(hole_path))
        assert res.exit_code == 3
        assert "is not an integer" in res.output

    @pytest.mark.parametrize("k, a", [("3.9", "1"), ('"3"', "1"), ("true", "1"),
                                      ("3", "1.0"), ("3", '"1"'), ("3", "true")])
    def test_hole_file_with_non_integer_k_or_a_exit_3(self, tmp_path, k, a):
        path = tmp_path / "b9.sts"
        run("gen", "--construction", "bose", "--n", "9", "-o", str(path))
        hole_path = tmp_path / "h.json"
        hole_path.write_text('{"k": %s, "a": %s, "parts": [[0], [1], [2]]}\n' % (k, a))
        res = run("color", "-i", str(path), "--scheme", "hole",
                  "--hole-file", str(hole_path))
        assert res.exit_code == 3
        assert "is not an integer" in res.output

    @pytest.mark.parametrize("scheme", ["bose", "skolem", "bicolor"])
    def test_hole_file_without_hole_scheme_exit_4(self, tmp_path, scheme):
        path = tmp_path / "b9.sts"
        run("gen", "--construction", "bose", "--n", "9", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", scheme,
                  "--hole-file", "/nonexistent")
        assert res.exit_code == 4
        assert "--hole-file applies only to --scheme hole" in res.stderr

    def test_bicolor_scheme_on_s9(self, tmp_path):
        path = tmp_path / "s9.sts"
        run("gen", "--construction", "s9", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", "bicolor")
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["guaranteed_bound"] == 8

    def test_bicolor_scheme_deeper_than_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.sts"
        path.write_text("# sts v1\n1100 1\n0 1 2\n")
        res = run("color", "-i", str(path), "--scheme", "bicolor")
        assert res.exit_code == 0
        assert json.loads(res.stdout)["guaranteed_bound"] == 1099

    def test_bicolor_scheme_without_a_bicoloring_exit_4(self, tmp_path):
        # the complete 3-graph on 4 points: bicoloring_search returns None
        path = tmp_path / "k4.sts"
        write_system(build_system(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]), str(path))
        res = run("color", "-i", str(path), "--scheme", "bicolor")
        assert res.exit_code == 4
        assert res.stderr.splitlines()[-1] == "error: system admits no bicoloring"

    def test_hole_file_with_an_empty_hole_exit_4(self, tmp_path):
        path = tmp_path / "b9.sts"
        run("gen", "--construction", "bose", "--n", "9", "-o", str(path))
        hole_path = tmp_path / "h.json"
        hole_path.write_text('{"k": 3, "a": 0, "parts": [[], [], []]}\n')
        res = run("color", "-i", str(path), "--scheme", "hole", "--hole-file", str(hole_path))
        assert res.exit_code == 4
        assert res.stderr == "error: no non-trivial hole available\n"

    def test_bicolor_scheme_out_of_budget_exit_4(self, tmp_path):
        path = tmp_path / "r99.sts"
        run("random", "--process", "sts", "--n", "99", "--seed", "1", "-o", str(path))
        res = run("color", "-i", str(path), "--scheme", "bicolor", "--max-nodes", "1000")
        assert res.exit_code == 4
        assert "ran out of budget" in res.stderr
        assert "admits no bicoloring" not in res.stderr


class TestRandomCmd:
    def test_triangle_removal_file(self, tmp_path):
        out = tmp_path / "tr.sts"
        res = run("random", "--process", "triangle-removal", "--n", "19",
                  "--m", "28", "--seed", "7", "-o", str(out))
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["linear"] and not doc["stuck"]
        assert read_system(out).m == 28

    def test_missing_p_exit_5(self):
        res = run("random", "--process", "binomial", "--n", "10", "--seed", "1")
        assert res.exit_code == 5

    @pytest.mark.parametrize("process, option", [("triangle-removal", "--m"),
                                                 ("linearized", "--p")])
    def test_missing_option_exit_5(self, process, option):
        res = run("random", "--process", process, "--n", "7", "--seed", "0")
        assert res.exit_code == 5
        assert res.stderr == f"error: {option} is required for {process}\n"

    def test_binomial_stdout(self):
        res = run("random", "--process", "binomial", "--n", "9", "--p", "0.1", "--seed", "3")
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {
            "n": 9, "p": 0.1, "process": "binomial", "schema": "sts-report/1", "seed": 3,
            "system": ["# sts v1", "9 7", "0 5 8", "0 7 8", "1 4 8", "2 3 5", "2 3 8",
                       "3 7 8", "5 6 8"],
            "triples": 7,
        }

    def test_stuck_triangle_removal_exit_0(self):
        # seed 0 gets stuck before 7 steps on 7 points
        res = run("random", "--process", "triangle-removal", "--n", "7", "--m", "7",
                  "--seed", "0")
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {"m": 7, "n": 7, "process": "triangle-removal",
                                          "schema": "sts-report/1", "seed": 0,
                                          "stuck": True}

    def test_bad_m_exit_5(self):
        res = run("random", "--process", "triangle-removal", "--n", "7",
                  "--m", "99", "--seed", "1")
        assert res.exit_code == 5

    @pytest.mark.parametrize("process, extra", [
        ("sts", ["--m", "5"]), ("binomial", ["--m", "5"]), ("linearized", ["--m", "5"]),
        ("sts", ["--p", "0.3"]), ("triangle-removal", ["--m", "5", "--p", "0.3"])],
        ids=["sts-m", "binomial-m", "linearized-m", "sts-p", "triangle-removal-p"])
    def test_option_the_process_does_not_read_exit_5(self, process, extra):
        res = run("random", "--process", process, "--n", "9", "--seed", "1", *extra)
        assert res.exit_code == 5
        assert f"{extra[-2]} applies only to" in res.stderr

    def test_deterministic_stdout(self):
        a = run("random", "--process", "linearized", "--n", "15", "--p", "0.05",
                "--seed", "3")
        b = run("random", "--process", "linearized", "--n", "15", "--p", "0.05",
                "--seed", "3")
        assert a.stdout == b.stdout

    def test_sts_process(self, tmp_path):
        out = tmp_path / "r13.sts"
        res = run("random", "--process", "sts", "--n", "13", "--seed", "11",
                  "-o", str(out))
        assert res.exit_code == 0
        assert json.loads(res.stdout)["steiner"]
        assert read_system(out).m == 26


class TestExperimentCmd:
    def test_discrepancy_rows_and_determinism(self, tmp_path):
        csv1 = tmp_path / "d1.csv"
        csv2 = tmp_path / "d2.csv"
        args = ["experiment", "discrepancy", "--n", "13", "--samples", "3",
                "--seed", "1"]
        res1 = run(*args, "--csv", str(csv1))
        res2 = run(*args, "--csv", str(csv2))
        assert res1.exit_code == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        lines = csv1.read_text().splitlines()
        assert len(lines) == 1 + 6  # header + 2 rows per sample

    def test_cdr_table(self):
        res = run("experiment", "cdr", "--kmax", "12")
        doc = json.loads(res.stdout)  # exact values travel as decimal strings
        assert doc["terms"][1]["M"] == "2160" and doc["terms"][1]["N"] == "2241"
        assert len(doc["terms"]) == 13
        assert len(doc["terms"][12]["M"]) > 1000  # thousands of digits, exact

    def test_cdr_negative_kmax_exit_5(self):
        res = run("experiment", "cdr", "--kmax", "-1")
        assert res.exit_code == 5
        assert res.stderr == "error: k_max must be >= 0\n"

    def test_bad_order_exit_5(self, tmp_path):
        res = run("experiment", "discrepancy", "--n", "8", "--samples", "1",
                  "--seed", "1", "--csv", str(tmp_path / "x.csv"))
        assert res.exit_code == 5

    def test_nan_budget_exit_5(self, tmp_path):
        res = run("experiment", "discrepancy", "--n", "13", "--samples", "1",
                  "--seed", "1", "--csv", str(tmp_path / "x.csv"), "--max-seconds", "nan")
        assert res.exit_code == 5
        assert res.output.strip() == "error: budget fields must be positive"
