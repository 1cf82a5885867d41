"""End-to-end checks of the command-line harness: report content, formats,
determinism, file I/O, and exit codes."""

import json

import pytest

from invariant_eq_lab.cli import _render_json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["schema"] == "invariant-eq-lab/1"
    return report


class TestCount:
    def test_interval_both(self, capsys):
        report = run_json(
            capsys, "count", "--set", "1,2,3,4,5", "--N", "5", "--eq", "1,1,-2", "--both"
        )
        assert report["total"] == 13
        assert report["trivial"] == 5
        assert report["agreement"] is True
        assert report["N"] == 5

    def test_full_group(self, capsys):
        report = run_json(capsys, "count", "--full-group", "--p", "5", "--eq", "1,1,-2")
        assert report["total"] == 25
        assert report["normalized"] == 1.0

    def test_singleton(self, capsys):
        report = run_json(capsys, "count", "--set", "1", "--N", "1", "--eq", "1,1,-2")
        assert report["total"] == 1 and report["trivial"] == 1

    def test_bruteforce_method_agrees(self, capsys):
        fast = run_json(capsys, "count", "--set", "0,1,5,9", "--p", "31", "--eq", "1,1,-2")
        brute = run_json(
            capsys,
            "count",
            "--set", "0,1,5,9",
            "--p", "31",
            "--eq", "1,1,-2",
            "--method", "bruteforce",
            "--both",
        )
        assert fast["total"] == brute["total"]
        assert brute["agreement"] is True

    def test_generated_behrend_set(self, capsys):
        report = run_json(
            capsys, "count", "--behrend", "5,2,1,4", "--eq", "1,1,1,-3", "--both"
        )
        assert report["N"] == 125
        assert report["total"] == 82
        assert report["agreement"] is True

    def test_bad_equation_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "--set", "1", "--N", "3", "--eq", "1,1,-1")
        assert code == 2
        assert "sum" in err

    def test_missing_domain_exits_2(self, capsys):
        code, _, _ = run(capsys, "count", "--set", "1,2", "--eq", "1,1,-2")
        assert code == 2


class TestBehrend:
    def test_reference_parameters(self, capsys):
        report = run_json(capsys, "behrend", "--M", "5", "--d", "2", "--dprime", "1", "--k", "4")
        assert report["N"] == 125
        assert report["set_size"] == 10
        assert report["count"] == 82
        assert report["bound"] == 250
        assert report["diagonal_ok"] is True

    def test_degenerate_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, "behrend", "--M", "2", "--d", "1", "--dprime", "0", "--k", "4")
        assert code == 2
        assert "sphere" in err

    def test_count_past_int64_entries_exits_2(self, capsys):
        # |A|^(k-2) is about 1.9e22: the convolution entries may pass 2^63.
        code, _, err = run(capsys, "behrend", "--M", "13", "--d", "1", "--dprime", "2", "--k", "12")
        assert code == 2
        assert "int64" in err

    def test_both_is_only_a_count_flag(self, capsys):
        code, _, err = run(
            capsys, "behrend", "--M", "5", "--d", "2", "--dprime", "1", "--k", "4", "--both"
        )
        assert code == 2
        assert "--both" in err

    def test_alpha_mode(self, capsys):
        report = run_json(capsys, "behrend", "--alpha", "0.01", "--k", "4")
        assert report["measured_density"] >= 0.01
        assert report["diagonal_ok"] is True

    def test_set_out_round_trips_through_count(self, capsys, tmp_path):
        path = tmp_path / "behrend.txt"
        report = run_json(
            capsys,
            "behrend",
            "--M", "5", "--d", "2", "--dprime", "1", "--k", "4",
            "--set-out", str(path),
        )
        lines = path.read_text().splitlines()
        assert len(lines) == report["set_size"]
        counted = run_json(
            capsys,
            "count",
            "--set-file", str(path),
            "--N", str(report["N"]),
            "--eq", "1,1,1,-3",
            "--both",
        )
        assert counted["total"] == report["count"]
        assert counted["agreement"] is True


class TestBohr:
    def test_enumerate_example(self, capsys):
        report = run_json(
            capsys, "bohr", "--p", "13", "--gamma", "1", "--rho", "1", "--enumerate"
        )
        assert report["members"] == [0, 1, 2, 11, 12]
        assert report["size"] == 5

    def test_diagnostics(self, capsys):
        report = run_json(
            capsys,
            "bohr",
            "--p", "13",
            "--gamma", "1",
            "--rho", "1",
            "--regular-check",
            "--find-regular-dilate",
            "--size-bound", "0.5",
        )
        assert report["regular"] is True
        assert 0.5 <= report["regular_dilate"] <= 1.0
        assert report["size_bound"]["dilate_size"] == 3
        assert report["size_bound"]["holds"] is True

    def test_bad_modulus_exits_2(self, capsys):
        code, _, _ = run(capsys, "bohr", "--p", "12", "--gamma", "1", "--rho", "1")
        assert code == 2


class TestSpectrum:
    def test_interval_spectrum(self, capsys):
        report = run_json(
            capsys, "spectrum", "--p", "31", "--set", "0,1,2,3,4", "--delta", "0.9"
        )
        assert report["frequencies"] == [0, 1, 30]


class TestPeriods:
    def test_example(self, capsys):
        report = run_json(
            capsys,
            "periods",
            "--p", "7",
            "--A", "0,1",
            "--L", "0",
            "--eps", "0.5",
            "--norm", "1",
        )
        assert report["periods"] == [0]

    def test_norm_validation(self, capsys):
        code, _, _ = run(
            capsys, "periods", "--p", "7", "--A", "0,1", "--L", "0", "--eps", "0.5", "--norm", "0.5"
        )
        assert code == 2

    # Each of these printed a report with exit 0: "norm": NaN (not JSON),
    # "bound": NaN, or an empty period set, although 0 is always a period.
    @pytest.mark.parametrize(
        "flag, value", [("--norm", "nan"), ("--eps", "nan"), ("--eps", "-1"), ("--eps", "inf")]
    )
    def test_bad_inputs_exit_2(self, capsys, flag, value):
        argv = {"--eps": "0.5", "--norm": "2"}
        argv[flag] = value
        code, out, err = run(
            capsys, "periods", "--p", "7", "--A", "0,1", "--L", "0",
            "--eps", argv["--eps"], "--norm", argv["--norm"],
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_render_json_keeps_int_lists_and_rounds_the_rest():
    report = {"ints": [3, 0, 12], "mixed": [True, 1, 0.1 + 0.2], "pair": (1, 2.5), "empty": []}
    assert json.loads(_render_json(report)) == {
        "ints": [3, 0, 12], "mixed": [True, 1, 0.3], "pair": [1, 2.5], "empty": [],
    }


class TestSidon:
    def test_true_case(self, capsys):
        assert run_json(capsys, "sidon", "--set", "1,2,5,11")["sidon"] is True

    def test_false_case(self, capsys):
        assert run_json(capsys, "sidon", "--set", "1,2,3")["sidon"] is False

    def test_cyclic_mode(self, capsys):
        report = run_json(capsys, "sidon", "--set", "0,1,3,5", "--p", "7")
        assert report["mode"] == "cyclic"
        assert report["sidon"] is False


class TestIncrement:
    def test_trace_reported(self, capsys):
        report = run_json(
            capsys,
            "increment",
            "--p", "31",
            "--set", "0,1,2,5,11,13",
            "--eq", "1,1,-2",
            "--max-steps", "6",
            "--min-size", "5",
        )
        assert report["steps"][0]["mechanism"] == "initial"
        assert report["terminal_reason"] in (
            "DENSITY_CAP",
            "NO_INCREMENT_FOUND",
            "SIZE_FLOOR",
            "STEP_BUDGET",
        )
        for row in report["steps"]:
            assert set(row) == {
                "index",
                "density",
                "set_size",
                "bohr_size",
                "dimension",
                "width",
                "mechanism",
            }

    def test_byte_identical_runs(self, capsys):
        args = (
            "increment",
            "--behrend", "5,2,1,4",
            "--eq", "1,1,1,-3",
            "--max-dim", "1",
            "--max-steps", "16",
            "--seed", "7",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestOutputHandling:
    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--full-group", "--p", "5", "--eq", "1,1,-2", "--format", "csv"
        )
        assert code == 0
        header, values = out.strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert row["total"] == "25"
        assert row["schema"] == "invariant-eq-lab/1"

    def test_csv_trace_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "increment",
            "--p", "31",
            "--set", "0,1,2",
            "--eq", "1,1,-2",
            "--format", "csv",
            "--max-steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        table = [l for l in lines if not l.startswith("#")]
        assert any("terminal_reason" in l for l in meta)
        assert table[0].split(",")[0] == "bohr_size"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "count", "--full-group", "--p", "5", "--eq", "1,1,-2", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["total"] == 25

    def test_float_formatting_12_digits(self, capsys):
        report = run_json(capsys, "count", "--set", "0,1,2", "--p", "13", "--eq", "1,1,-2")
        # 3/13 rounded to 12 significant digits.
        assert report["alpha"] == 0.230769230769

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_invariant_violation_exits_3(self, capsys, monkeypatch):
        import invariant_eq_lab.cli as cli_mod
        from invariant_eq_lab.errors import InvariantViolation

        def broken(args):
            raise InvariantViolation("sphere pigeonhole failed")

        monkeypatch.setattr(cli_mod, "cmd_sidon", broken)
        code, _, err = run(capsys, "sidon", "--set", "1,2")
        assert code == 3
        assert "sphere pigeonhole" in err

    def test_random_set_is_seed_deterministic(self, capsys):
        a = run_json(capsys, "spectrum", "--p", "31", "--random", "6", "--delta", "0.4", "--seed", "5")
        b = run_json(capsys, "spectrum", "--p", "31", "--random", "6", "--delta", "0.4", "--seed", "5")
        c = run_json(capsys, "spectrum", "--p", "31", "--random", "6", "--delta", "0.4", "--seed", "6")
        assert a == b
        assert a["frequencies"] != c["frequencies"] or a == c  # different seeds may still agree
