"""Command-line interface: output formats, exit codes, round trips."""

import json

import pytest

from pdmm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_cat_2_2_2_table(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--family", "catx", "-K", "2", "-L", "2", "-T", "2", "-x", "1"
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows[0] == ["0", "1", "9", "2"]
        assert rows[1] == ["0", "0", "1", "9", "2"]
        assert rows[2] == ["3", "3", "4", "2", "5"]
        assert rows[3] == ["6", "6", "7", "5", "8"]
        assert rows[4] == ["7", "7", "8", "6", "9"]
        assert "N = 10" in out

    def test_gasp_r_4_4_4(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--family", "gasp-r",
            "-K", "4", "-L", "4", "-T", "4", "-r", "2",
        )
        assert code == 0
        assert out.strip().endswith("N = 36")

    def test_dog_rs_7_7_6(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--family", "dog-rs",
            "-K", "7", "-L", "7", "-T", "6", "-r", "1", "-s", "3",
        )
        assert code == 0
        assert out.strip().endswith("N = 88")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--family", "catx",
            "-K", "2", "-L", "2", "-T", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_p"] == [0, 3]
        assert doc["q"] == 10
        assert doc["N"] == 10

    def test_missing_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "-K", "2", "-L", "2", "-T", "2")
        assert code == 2
        assert "family" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "construct", "--family", "bogus", "-K", "2", "-L", "2", "-T", "2"
        )
        assert code == 2

    def test_env_var_sets_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("PDMM_FORMAT", "json")
        code, out, _ = run(
            capsys, "construct", "--family", "catx", "-K", "2", "-L", "2", "-T", "2"
        )
        assert code == 0
        assert json.loads(out)["N"] == 10


class TestValidate:
    def test_valid_cat_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--family", "catx", "-K", "3", "-L", "3", "-T", "3"
        )
        assert code == 0
        assert "IV: pass" in out

    def test_construct_json_round_trips(self, capsys, tmp_path):
        table = tmp_path / "table.json"
        for table_args in (
            ("--family", "gasp-r", "-K", "3", "-L", "2", "-T", "2", "-r", "1"),
            ("--family", "catx", "-K", "2", "-L", "2", "-T", "2"),
        ):
            code, out, _ = run(capsys, "construct", *table_args, "--format", "json")
            assert code == 0
            table.write_text(out)
            code, out, _ = run(capsys, "validate", "--table", str(table), "--format", "json")
            assert code == 0
            _, direct, _ = run(capsys, "validate", *table_args, "--format", "json")
            assert json.loads(out) == json.loads(direct)

    def test_duplicate_alpha_fails(self, capsys, tmp_path):
        table = tmp_path / "bad.json"
        table.write_text(json.dumps({
            "alpha_p": [0, 1], "alpha_s": [1, 6], "beta_p": [0, 2], "beta_s": [4, 5],
        }))
        code, out, _ = run(capsys, "validate", "--table", str(table))
        assert code == 1
        assert "IV: FAIL" in out

    def test_cyclic_mask_collapse_surfaced(self, capsys, tmp_path):
        # Mask degrees (1, 6) over q = 10: step 5 shares a factor with q, so
        # the privacy-critical submatrices go singular.
        table = tmp_path / "challenge.json"
        table.write_text(json.dumps({
            "family": "catx", "q": 10,
            "alpha_p": [0, 3], "alpha_s": [1, 6], "beta_p": [0, 1], "beta_s": [9, 2],
        }))
        code, out, _ = run(capsys, "validate", "--table", str(table))
        assert code == 1
        assert "IV: FAIL" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--family", "catx",
            "-K", "2", "-L", "2", "-T", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["n_unique"] == 10

    def test_requires_family_or_table(self, capsys):
        code, _, _ = run(capsys, "validate", "-K", "2", "-L", "2", "-T", "2")
        assert code == 2


class TestSimulate:
    def test_cat_exact_match(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "catx",
            "-K", "2", "-L", "2", "-T", "2", "--dims", "4x4x4", "--seed", "7",
        )
        assert code == 0
        assert "decode: exact match" in out
        assert "privacy rank: pass" in out
        assert "p = 11" in out

    def test_gasp_small_exact_match(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "gasp-small",
            "-K", "2", "-L", "2", "-T", "2", "--dims", "4x3x4",
        )
        assert code == 0
        assert "decode: exact match" in out

    def test_padding_reported(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "catx",
            "-K", "2", "-L", "2", "-T", "2", "--dims", "5x4x4",
        )
        assert code == 0
        assert "padding: 1 rows, 0 cols" in out
        assert "decode: exact match" in out

    def test_field_above_int64_bound_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--family", "catx",
            "-K", "2", "-L", "2", "-T", "2", "--dims", "4x4x4", "--min-p", "4000000000",
        )
        assert code == 2
        assert err.startswith("error:") and "3037000499" in err

    def test_bad_dims_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--family", "catx",
            "-K", "2", "-L", "2", "-T", "2", "--dims", "4by4",
        )
        assert code == 2


class TestSweepAndSearch:
    def test_csv_header_and_fixture_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--K-range", "2,3,7", "--T-range", "2,3,6",
            "--mode", "KequalsL",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "K,L,T,N_catx,N_gaspr,r_gaspr,N_gasprs,r_gasprs,s_gasprs,"
            "N_dogrs,r_dogrs,s_dogrs,winner,margin"
        )
        rows = {tuple(line.split(",")[:3]): line for line in lines[1:]}
        assert rows[("2", "2", "2")].startswith("2,2,2,10,11,1,")
        assert rows[("2", "2", "2")].endswith("CATX,1")
        assert rows[("7", "7", "6")] == "7,7,6,89,91,3,89,2,3,88,1,3,DOG_RS,1"

    def test_missing_catx_rendered_empty(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--K-range", "2", "--T-range", "3", "--mode", "KequalsL"
        )
        assert code == 0
        assert out.strip().splitlines()[1].startswith("2,2,3,,")

    def test_range_syntax(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--K-range", "2..3", "--T-range", "2", "--mode", "KequalsL"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_search_pretty(self, capsys):
        code, out, _ = run(capsys, "search", "-K", "7", "-L", "7", "-T", "6")
        assert code == 0
        assert "winner: DOG_RS (margin 1" in out

    def test_search_json(self, capsys):
        code, out, _ = run(
            capsys, "search", "-K", "2", "-L", "2", "-T", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["winner"] == "CATX"
        assert doc["catx"]["N"] == 10
        assert doc["polegap"] == "n/a"


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "sweep", "--K-range", "2", "--T-range", "2", "-o", str(dest)
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("K,L,T,")
