"""Command-line interface: output formats, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdmm
from pdmm.cli import CSV_HEADER, _exact_product, main
from pdmm.linalg import _exact_type

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "-K", "3", "-L", "3", "-T", "3"),
            ("sweep", "--K-range", "2", "--T-range", "2"),
            ("construct", "--family", "catx", "-K", "2", "-L", "2", "-T", "2"),
        ],
    )
    def test_unknown_env_format_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("PDMM_FORMAT", "xml")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "PDMM_FORMAT" in err and "'xml'" in err

    def test_env_pretty_gives_csv_sweep(self, capsys, monkeypatch):
        monkeypatch.setenv("PDMM_FORMAT", "pretty")
        code, out, _ = run(capsys, "sweep", "--K-range", "2", "--T-range", "2")
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER


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

    @pytest.mark.parametrize("modulus", [None, 2**62])
    def test_entries_at_2_62_are_usage_errors(self, capsys, tmp_path, modulus):
        # Sums of two such entries would wrap int64; the table is refused.
        doc = {"alpha_p": [0, 1], "alpha_s": [2**62 - 1, 2], "beta_p": [0, 2], "beta_s": [4, 5]}
        if modulus is None:
            doc["alpha_s"][0] = 2**62
        else:
            doc.update(family="catx", q=modulus)
        table = tmp_path / "huge.json"
        table.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_q_makes_a_table_cyclic_without_a_family(self, capsys, tmp_path):
        # Read as an integer table, the q = 10 document counted N = 13 and
        # passed IV; mod 10 it has N = 10 and fails IIIb, IIIc and IV.
        doc = json.loads((DATA / "table_cyclic_q10.json").read_text())
        del doc["family"]
        table = tmp_path / "q10.json"
        table.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--table", str(table))
        _, want, _ = run(capsys, "validate", "--table", str(DATA / "table_cyclic_q10.json"))
        assert code == 1
        assert "N = 10" in out.splitlines() and "IV: FAIL" in out
        assert out == want

    @pytest.mark.parametrize(
        "doc,words",
        [
            ({"alpha_p": [0, 1], "alpha_s": [1, 6], "beta_p": [0, 2]}, "beta_s"),
            ([[0, 1], [1, 6], [0, 2], [4, 5]], "JSON object"),
            ({"alpha_p": [0, 1], "alpha_s": [0.5, 6], "beta_p": [0, 2], "beta_s": [4, 5]}, "0.5"),
        ],
        ids=["missing-beta_s", "list", "half-exponent"],
    )
    def test_malformed_table_is_a_usage_error(self, capsys, tmp_path, doc, words):
        # Exit 1 means the table failed validation; these are no tables.
        table = tmp_path / "bad.json"
        table.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and words in err

    @pytest.mark.parametrize("name,value", [("alpha_p", 5), ("alpha_s", "ab")])
    def test_vector_that_is_no_list_is_named(self, capsys, tmp_path, name, value):
        doc = {"alpha_p": [0, 1], "alpha_s": [1, 6], "beta_p": [0, 2], "beta_s": [4, 5]}
        doc[name] = value
        table = tmp_path / "bad.json"
        table.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} must be a list of integers")


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "-K", "3", "-L", "3", "-T", "3", *flag)
            for flag in (("-r", "9"), ("-s", "2"), ("-x", "1"), ("--seed", "5"), ("--min-p", "7"))
        ]
        + [
            (command, "--family", "catx", "-K", "2", "-L", "2", "-T", "2", *flag)
            for command in ("construct", "validate")
            for flag in (("--seed", "5"), ("--min-p", "7"))
        ],
    )
    def test_unread_flag_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (("search", "-K", "2", "-L", "2"), "-T"),
            (("construct", "-K", "2", "-L", "2", "-T", "2"), "--family"),
            (("simulate", "--family", "catx", "-L", "2", "--dims", "2x2x2"), "-K, -T"),
        ],
    )
    def test_missing_required_flag_is_usage_error(self, capsys, argv, missing):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.rstrip().endswith(f"error: the following arguments are required: {missing}")

    def test_l_range_in_k_equals_l_mode_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--mode", "KequalsL", "--K-range", "2..4", "--L-range", "9",
            "--T-range", "2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--L-range" in err

    @pytest.mark.parametrize(
        "command, fmt",
        [("simulate", "json"), ("simulate", "csv"), ("construct", "csv"), ("validate", "csv"),
         ("sweep", "pretty")],
    )
    def test_unwritten_format_is_usage_error(self, capsys, command, fmt):
        code, out, err = run(capsys, *FORMAT_ARGV[command], "--format", fmt)
        assert code == 2
        assert out == ""
        assert "invalid choice" in err and repr(fmt) in err

    @pytest.mark.parametrize(
        "command, env, fallback",
        [("simulate", "json", "pretty"), ("simulate", "csv", "pretty"),
         ("construct", "csv", "pretty"), ("validate", "csv", "pretty"),
         ("sweep", "pretty", "csv")],
    )
    def test_unwritten_env_format_falls_back(self, capsys, monkeypatch, command, env, fallback):
        want = run(capsys, *FORMAT_ARGV[command], "--format", fallback)
        monkeypatch.setenv("PDMM_FORMAT", env)
        assert run(capsys, *FORMAT_ARGV[command]) == want
        assert want[0] == 0


# One small invocation per subcommand, without --format.
FORMAT_ARGV = {
    "simulate": (
        "simulate", "--family", "catx", "-K", "2", "-L", "2", "-T", "2", "--dims", "2x2x2"
    ),
    "construct": ("construct", "--family", "catx", "-K", "2", "-L", "2", "-T", "2"),
    "validate": ("validate", "--family", "catx", "-K", "2", "-L", "2", "-T", "2"),
    "sweep": ("sweep", "--K-range", "2", "--T-range", "2"),
}


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

    @pytest.mark.parametrize(
        "argv, level, fields",
        [
            (("--family", family, "-K", "3", "-L", "3", "-T", "3", "--dims", "6x6x6",
              "-r", "2", "-s", "3"), level, ())
            for family, level in
            [("catx", "structural"), ("gasp-small", "structural"), ("gasp-rs", "exhaustive")]
        ]
        + [
            # Both mask sides are progressions, so the structure proves all
            # C(N, T) mask subsets of each, C(92, 4) for catx (8,8,4),
            # without eliminating one. Each
            # field is the smallest prime p >= max(N + 1, min_p) with
            # q | p - 1; an inner dimension of 1 keeps the p ~ 1e9 workers'
            # int64 product from wrapping.
            (("--family", "catx", "-K", "8", "-L", "8", "-T", "4", "--dims", "64x64x64"),
             "structural", ("p = 1091", "q = 109")),
            (("--family", "catx", "-K", "2", "-L", "2", "-T", "2", "--min-p", "1000000000",
              "--dims", "2x1x2"), "structural", ("p = 1000000021", "q = 10")),
        ],
        ids=[
            "catx-structural", "gasp-small-structural", "gasp-rs-exhaustive",
            "catx-8-8-4-structural", "catx-2-2-2-p1e9-structural",
        ],
    )
    def test_certificate_line_follows_privacy_rank(self, capsys, argv, level, fields):
        code, out, _ = run(capsys, "simulate", *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[-2:] == ["privacy rank: pass", f"privacy certificate: {level}"]
        assert set(fields) <= set(lines)

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

    def test_walk_above_the_cap_is_usage_error(self, capsys):
        # gasp-rs (6,6,6) r=2 s=3: beta_s is no progression, and a whole walk
        # of it would eliminate C(71, 5) = 13,019,909 subsets, above the cap
        # of 2^22 = 4,194,304: simulate refuses at once and names both.
        code, out, err = run(
            capsys, "simulate", "--family", "gasp-rs", "-K", "6", "-L", "6", "-T", "6",
            "-r", "2", "-s", "3", "--dims", "6x6x6",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "13019909" in err and "4194304" in err

    @pytest.mark.parametrize(
        "argv, p, rungs",
        [
            # Fields just past 3e9, below isqrt(2^63 - 1): matmul_mod's and
            # the T x T checks' products of two residues come close to int64.
            # An inner dimension of 1 keeps the simulated workers' int64
            # product from wrapping.
            (("--family", "catx", "-K", "2", "-L", "2", "-T", "2", "--dims", "2x1x2",
              "--min-p", "3000000000"), 3000000151, None),
            (("--family", "catx", "-K", "4", "-L", "4", "-T", "4", "--dims", "4x1x4",
              "--min-p", "3000000000"), 3000000371, None),
            (("--family", "dog-rs", "-K", "2", "-L", "2", "-T", "3", "-r", "2", "-s", "2",
              "--dims", "2x1x2", "--min-p", "3000000000"), 3000000019, None),
            (("--family", "gasp-small", "-K", "3", "-L", "3", "-T", "3", "--dims", "3x1x3",
              "--min-p", "3000000000"), 3000000019, None),
            # From p = 94,906,297 on, one product of two residues no longer
            # fits a float64 chunk, so the kernel multiplies in int64 chunks.
            # At inner dimension 32, (p-1)^2 * 32 < 2^63, so the workers run
            # on the kernel.
            (("--family", "catx", "-K", "2", "-L", "2", "-T", "2", "--dims", "64x32x64",
              "--min-p", "100000000"), 100000081, None),
        ]
        # matmul_mod multiplies in float32 while (p-1)^2 * inner + p < 2^24,
        # in float64 chunks while (p-1)^2 + p < 2^53, else in int64 chunks,
        # and encode writes shares in the narrowest dtype that holds p - 1.
        # Encode's inner dimension is K + T = 12, the workers' 96 and
        # decode's N = 92. min_p 0 gives the default field, on which encode
        # runs on float32; each other min_p lies just past a switch: 1187
        # (encode leaves float32), 4099 (no product on float32), 32771
        # (int32 shares), 10^7 (the workers' float64 product needs chunks
        # from p ~ 9.7e6 on) and 94,906,297 (int64, 1,023 terms a chunk).
        # The scan then takes the next prime p = 1 (mod 218). rungs names the
        # product type of encode, the workers and decode at p, with " chunks"
        # where the product takes more than one chunk.
        + [
            (("--family", "catx", "-K", "8", "-L", "8", "-T", "4", "--dims", "96x96x96",
              "--min-p", str(min_p)), p, rungs)
            for min_p, p, rungs in [
                (0, 1091, ("float32", "float64", "float64")),
                (1187, 2399, ("float64", "float64", "float64")),
                (4099, 5233, ("float64", "float64", "float64")),
                (32771, 33791, ("float64", "float64", "float64")),
                (10**7, 10002059, ("float64", "float64 chunks", "float64 chunks")),
                (94906297, 94906519, ("int64", "int64", "int64")),
            ]
        ],
        ids=[
            "catx-2-2-2-p3e9", "catx-4-4-4-p3e9", "dog-rs-2-2-3-p3e9", "gasp-small-3-3-3-p3e9",
            "catx-2-2-2-p1e8-int64-chunks",
            "catx-8-8-4-p0", "catx-8-8-4-p1187", "catx-8-8-4-p4099", "catx-8-8-4-p32771",
            "catx-8-8-4-p1e7", "catx-8-8-4-p94906297",
        ],
    )
    def test_exact_on_each_kernel_path(self, capsys, argv, p, rungs):
        code, out, _ = run(capsys, "simulate", *argv)
        assert code == 0
        lines = out.splitlines()
        assert "decode: exact match" in lines
        assert f"p = {p}" in lines
        if rungs is not None:
            got = []
            for inner in (12, 96, 92):
                kind, step = _exact_type(p, inner)
                got.append(kind.__name__ + (" chunks" if step < inner else ""))
            assert tuple(got) == rungs

    def test_exact_reference_does_not_wrap_past_2_31(self):
        p = 3_000_000_019
        rng = np.random.default_rng(5)
        a = rng.integers(p - 1000, p, size=(3, 7), dtype=np.int64)
        b = rng.integers(p - 1000, p, size=(7, 2), dtype=np.int64)
        rows, cols = a.tolist(), b.T.tolist()
        expected = [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in rows]
        assert _exact_product(a, b, p).tolist() == expected
        # The int64 product wraps here, so it could not serve as the reference.
        assert (a @ b % p).tolist() != expected

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

    def test_search_agrees_with_sweep_and_validate_off_the_golden_grid(
        self, capsys, tmp_path, monkeypatch
    ):
        # At (150, 150, 150) the KL-wide shifts dominate the count. search's
        # CSV data row equals that of a one-point KequalsL sweep, and the N
        # searched for each integer family equals the N that validate counts
        # on the constructed table. GASP_R has no s: its table is GASP_RS at
        # s = T.
        monkeypatch.delenv("PDMM_FORMAT", raising=False)
        klt = ("-K", "150", "-L", "150", "-T", "150")
        code, search_csv, _ = run(capsys, "search", *klt, "--format", "csv")
        assert code == 0
        code, sweep_csv, _ = run(
            capsys, "sweep", "--K-range", "150", "--T-range", "150", "--mode", "KequalsL"
        )
        assert code == 0
        search_rows = search_csv.strip().splitlines()[1:]
        assert search_rows and search_rows == sweep_csv.strip().splitlines()[1:]
        code, out, _ = run(capsys, "search", *klt, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        table = tmp_path / "t.json"
        for family in ("gasp_r", "gasp_rs", "dog_rs"):
            choice = doc[family]
            params = ("-r", str(choice["r"])) + (("-s", str(choice["s"])) if "s" in choice else ())
            code, _, _ = run(
                capsys, "construct", "--family", family.replace("_", "-"), *klt, *params,
                "--format", "json", "-o", str(table),
            )
            assert code == 0
            code, out, _ = run(capsys, "validate", "--table", str(table))
            assert code == 0
            assert f"N = {choice['N']}" in out.splitlines(), family


TABLES = {
    "catx-2-2-2": ("--family", "catx", "-K", "2", "-L", "2", "-T", "2"),
    "catx-7-7-6-x8": ("--family", "catx", "-K", "7", "-L", "7", "-T", "6", "-x", "8"),
    "gasp-rs-7-7-6-r2-s3": (
        "--family", "gasp-rs", "-K", "7", "-L", "7", "-T", "6", "-r", "2", "-s", "3"),
    "dog-rs-7-7-6-r1-s3": (
        "--family", "dog-rs", "-K", "7", "-L", "7", "-T", "6", "-r", "1", "-s", "3"),
    "table_cyclic_q10": ("--table", str(DATA / "table_cyclic_q10.json")),
    "table_repeated_alpha": ("--table", str(DATA / "table_repeated_alpha.json")),
}
EXTENSIONS = {"pretty": "txt", "json": "json"}


class TestGoldenOutputs:
    """Byte-for-byte CLI output. The sweeps and searches are those of the
    exhaustive (r, s) scan that the per-r bitmap scan replaced; construct and
    validate are those of the set-based quadrants and the two validators
    that the one addition table replaced. The simulate runs pin the field,
    the decode and the certificate line; they were written when decoding
    solved a Gauss-Jordan system, which the closed-form Lagrange decoder
    replaced. The JSON sweep over 2..4 and the (2,2,3) search in text and
    CSV, where catx has no construction, were written before one field list
    rendered every record."""

    @pytest.mark.parametrize(
        "name,argv,code",
        [
            ("sweep_KequalsL_2-20.csv",
             ("sweep", "--K-range", "2..20", "--T-range", "2..20", "--mode", "KequalsL",
              "--format", "csv"), 0),
            ("sweep_full_2-10.csv",
             ("sweep", "--K-range", "2..10", "--L-range", "2..10", "--T-range", "2..10",
              "--mode", "full", "--format", "csv"), 0),
            ("search_100-100-100.json",
             ("search", "-K", "100", "-L", "100", "-T", "100", "--format", "json"), 0),
            ("search_120-80-60.json",
             ("search", "-K", "120", "-L", "80", "-T", "60", "--format", "json"), 0),
            ("search_60-60-40.json",
             ("search", "-K", "60", "-L", "60", "-T", "40", "--format", "json"), 0),
            ("sweep_KequalsL_2-4.json",
             ("sweep", "--K-range", "2..4", "--T-range", "2..4", "--mode", "KequalsL",
              "--format", "json"), 0),
            ("search_2-2-3.txt", ("search", "-K", "2", "-L", "2", "-T", "3"), 0),
            ("search_2-2-3.csv", ("search", "-K", "2", "-L", "2", "-T", "3", "--format", "csv"), 0),
            ("simulate_catx-2-2-2-seed7.txt",
             ("simulate", "--family", "catx", "-K", "2", "-L", "2", "-T", "2",
              "--dims", "4x4x4", "--seed", "7"), 0),
            ("simulate_gasp-small-3-3-3.txt",
             ("simulate", "--family", "gasp-small", "-K", "3", "-L", "3", "-T", "3",
              "--dims", "6x6x6"), 0),
            ("simulate_dog-rs-2-2-3-r2-s2.txt",
             ("simulate", "--family", "dog-rs", "-K", "2", "-L", "2", "-T", "3",
              "-r", "2", "-s", "2", "--dims", "6x6x6"), 0),
        ]
        + [
            (f"{command}_{table}.{EXTENSIONS[fmt]}", (command, *TABLES[table], "--format", fmt), 0)
            for command in ("construct", "validate")
            for table in list(TABLES)[:4]
            for fmt in EXTENSIONS
        ]
        + [
            (f"validate_{table}.{EXTENSIONS[fmt]}",
             ("validate", *TABLES[table], "--format", fmt), 1)
            for table in list(TABLES)[4:]
            for fmt in EXTENSIONS
        ],
    )
    def test_matches_golden_file(self, capsys, tmp_path, name, argv, code):
        dest = tmp_path / name
        assert run(capsys, *argv, "-o", str(dest))[0] == code
        assert dest.read_bytes() == (DATA / name).read_bytes()


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["pdmm", "pdmm.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        env = dict(os.environ, PYTHONPATH=str(Path(pdmm.__file__).parents[1]))
        env.pop("PDMM_FORMAT", None)
        proc = subprocess.run(
            [sys.executable, "-m", module, "sweep", "--K-range", "2", "--T-range", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == CSV_HEADER

    def test_construct_and_validate_round_trip(self, tmp_path):
        # validate exits 0 for a valid table and 1 for a failing one; the
        # q = 10 table fails IIIb, IIIc and IV.  The cyclic table (0), (2, 4),
        # (0), (2, 4) mod 10 has N = 5 and mask sides of step 2, whose nodes
        # omega^2 have order 5 = N: the progression rule passes IV.  q alone
        # makes a document cyclic: the q = 10 table without its family must
        # count N = 10 and fail as the catx file does.  A document without
        # beta_s is no table: exit 2 with an error line.
        env = dict(os.environ, PYTHONPATH=str(Path(pdmm.__file__).parents[1]))
        env.pop("PDMM_FORMAT", None)

        def pdmm_cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "pdmm", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        table = str(tmp_path / "t.json")
        for family_args in (("catx", "-x", "8"), ("dog-rs", "-r", "1", "-s", "3")):
            family, *params = family_args
            proc = pdmm_cli(
                "construct", "--family", family, "-K", "7", "-L", "7", "-T", "6", *params,
                "--format", "json", "-o", table,
            )
            assert proc.returncode == 0, proc.stderr
            proc = pdmm_cli("validate", "--table", table)
            assert proc.returncode == 0, proc.stdout + proc.stderr
        step2 = tmp_path / "step2.json"
        step2.write_text(json.dumps({
            "family": "catx", "q": 10,
            "alpha_p": [0], "alpha_s": [2, 4], "beta_p": [0], "beta_s": [2, 4],
        }))
        proc = pdmm_cli("validate", "--table", str(step2))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert pdmm_cli("validate", "--table", str(DATA / "table_cyclic_q10.json")).returncode == 1
        doc = json.loads((DATA / "table_cyclic_q10.json").read_text())
        del doc["family"]
        nofamily = tmp_path / "q10.json"
        nofamily.write_text(json.dumps(doc))
        proc = pdmm_cli("validate", "--table", str(nofamily))
        assert proc.returncode == 1
        assert "N = 10" in proc.stdout.splitlines()
        nobeta = tmp_path / "nobeta.json"
        nobeta.write_text('{"alpha_p": [0, 1], "alpha_s": [1, 6], "beta_p": [0, 2]}\n')
        proc = pdmm_cli("validate", "--table", str(nobeta))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "sweep", "--K-range", "2", "--T-range", "2", "-o", str(dest)
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("K,L,T,")
