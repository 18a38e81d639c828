"""Self-test of the benchmark: a small configuration passes every stage's
checks, traced and untraced, and each check rejects a corrupted output."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads as W  # noqa: E402
from pdmm import cli  # noqa: E402
from pdmm.scheme import PdmmScheme, multiply_via_scheme, verify_privacy_rank  # noqa: E402


def test_metric_declarations_match_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == W.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == W.PER_LAYER
    for config in W.FULL.values():
        # Every workload multiplies through the four schemes the per-scheme
        # per-layer metrics name, and instantiates each of them.
        assert [p.label for p in config.products] == list(W.MULTIPLY_LABELS)
        assert set(W.MULTIPLY_LABELS) <= {s.label for s in config.schemes}


@pytest.mark.parametrize("trace", [False, True])
def test_small_configuration_passes_its_checks(trace, tmp_path):
    config = W.SMALL
    result, detail, _ = W.run("small", 5, 0, trace, tmp_path, config)
    assert result["correct"], detail["problems"]
    metrics = result["metrics"]
    if trace:
        per_scheme = ("scheme.user_s.", "scheme.worker_s.")
        declared = {k for k in W.PER_LAYER if not k.startswith(per_scheme)}
        assert declared <= set(metrics)
        assert {k for k in metrics if k.startswith(per_scheme)} == {
            f"{prefix}{p.label}" for prefix in per_scheme for p in config.products
        }
    else:
        assert list(metrics) == list(W.END_TO_END)
        assert all(m["value"] > 0 for m in metrics.values())
    # Whole rounds: each scheme once, each product twice per product pass,
    # each command once per command pass; the p ~ 1e9 product overflows
    # int64 on both paths.
    rounds = len(detail["rounds"])
    _, _, product_passes, command_passes = config.passes
    commands = 2 + len(config.sweep.search_points)
    per_round = len(config.schemes) + 2 * len(config.products) * product_passes
    assert result["attempted"] == rounds * (per_round + commands * command_passes)
    assert result["failed"] == rounds * product_passes * 2


def _scheme(family, klt, seed=0):
    spec = W.scheme_spec(family, klt)
    return spec, W.instantiate(spec, W.degree_vectors(spec), seed)


def test_flipped_product_entry_is_rejected():
    _, scheme = _scheme("catx", (2, 2, 2))
    p = scheme.field.p
    rng = np.random.default_rng(1)
    a, b = rng.integers(0, p, (6, 5)), rng.integers(0, p, (5, 7))
    ref = checks.reference_product(a, b, p)
    out = multiply_via_scheme(scheme, a, b, seed=3)
    assert checks.product_problems("catx", out, ref) == []
    out[2, 3] = (out[2, 3] + 1) % p
    assert checks.product_problems("catx", out, ref)


def test_reference_product_is_exact_past_int64():
    p = 1_000_000_007
    a = np.full((2, 64), p - 1, dtype=np.int64)
    assert not checks.int64_safe(p, 64)
    ref = checks.reference_product(a, a.T.copy(), p)
    assert int(ref[0, 0]) == 64 * (p - 1) ** 2 % p


def test_singular_rho_is_rejected():
    spec, good = _scheme("gasp-small", (2, 2, 2))
    table = W.reference_table(spec)
    cert = verify_privacy_rank(good)
    assert checks.scheme_problems(spec.label, good, table, cert) == []
    # alpha_s = (4, 6): rows x and -x give x^4 (-x)^6 - x^6 (-x)^4 = 0.
    p, rho = good.field.p, list(good.rho)
    rho[-1] = (-rho[0]) % p
    bad = PdmmScheme(good.dv, good.field, tuple(rho), good.gamma, family=good.family)
    problems = checks.scheme_problems(spec.label, bad, table, cert)
    assert any(f"alpha_s rows (0, {len(rho) - 1}) form a singular" in s for s in problems)


def test_scheme_with_n_off_by_one_is_rejected():
    spec, good = _scheme("dog-rs", (2, 2, 2))
    short = PdmmScheme(good.dv, good.field, good.rho[:-1], good.gamma[:-1], family=good.family)
    problems = checks.scheme_problems(spec.label, short, W.reference_table(spec), verify_privacy_rank(good))
    assert any("distinct sums" in s for s in problems)


def _sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--K-range", "2..7", "--T-range", "2..6", "--mode", "KequalsL",
                     "--format", "csv", "-o", str(out)]) == 0
    return out.read_text(), [(k, k, t) for k in range(2, 8) for t in range(2, 7)]


def _replace_field(text, point, column, new):
    header = checks.CSV_HEADER.split(",")
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[:3] == [str(v) for v in point]:
            cells[header.index(column)] = str(new(cells[header.index(column)]))
            lines[i] = ",".join(cells)
    return "\n".join(lines)


def test_sweep_n_off_by_one_is_rejected(tmp_path):
    text, points = _sweep_csv(tmp_path)
    assert checks.csv_problems(text, points) == []
    bad = _replace_field(text, (5, 5, 4), "N_dogrs", lambda v: int(v) + 1)
    assert any("(5,5,4): dog-rs" in s for s in checks.csv_problems(bad, points))
    bad = _replace_field(text, (2, 2, 2), "N_catx", lambda v: int(v) + 1)
    assert any("the paper gives 10" in s for s in checks.csv_problems(bad, points))
    header = text.replace("N_catx", "Ncatx", 1)
    assert checks.csv_problems(header, points)


def test_sweep_non_optimal_choice_is_rejected(tmp_path):
    text, points = _sweep_csv(tmp_path)
    # A consistent (r, s, N) that is not the minimum: only the brute force sees it.
    n_best, r_best, s_best = checks.best_params("dog-rs", 6, 6, 5)
    r, s = next((r, s) for r, s in checks.admissible("dog-rs", 6, 6, 5)
                if checks.worker_count(checks.dog_rs(6, 6, 5, r, s)) > n_best)
    n = checks.worker_count(checks.dog_rs(6, 6, 5, r, s))
    bad = _replace_field(text, (6, 6, 5), "N_dogrs", lambda v: n)
    bad = _replace_field(bad, (6, 6, 5), "r_dogrs", lambda v: r)
    bad = _replace_field(bad, (6, 6, 5), "s_dogrs", lambda v: s)
    problems = checks.csv_problems(bad, points)
    assert any(f"brute force finds {n_best}" in p for p in problems)


def test_search_n_off_by_one_is_rejected(tmp_path):
    out = tmp_path / "search.json"
    assert cli.main(["search", "-K", "12", "-L", "10", "-T", "8", "--format", "json",
                     "-o", str(out)]) == 0
    text = out.read_text()
    assert checks.search_json_problems(text, (12, 10, 8)) == []
    doc = json.loads(text)
    doc["gasp_rs"]["N"] += 1
    assert checks.search_json_problems(json.dumps(doc), (12, 10, 8))


def test_host_speed_scales_by_the_samples_around_a_duration(monkeypatch):
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE
    speed.at, speed.took = [1.0, 2.0, 3.0, 4.0], [ref, ref, 2 * ref, 2 * ref]
    monkeypatch.setattr(hostspeed, "MIN_SAMPLES", 1)
    assert speed.seconds(0.0, 0.5) == pytest.approx(0.5)  # only the first sample
    assert speed.seconds(3.2, 3.8) == pytest.approx(0.3)  # twice as slow there
    assert speed.seconds(1.5, 2.5) == pytest.approx(1.0 / (4 / 3))
    monkeypatch.setattr(hostspeed, "MIN_SAMPLES", 3)
    assert speed.seconds(0.0, 0.5) == pytest.approx(0.5 / (4 / 3))  # widened to 3 samples
    assert speed.seconds(3.2, 3.8) == pytest.approx(0.6 / (5 / 3))
    speed.at, speed.took = [], []
    speed.start()
    try:
        for _ in range(5_000):  # about 3 s of CPU at most
            if len(speed.took) >= 2:
                break
            sum(i * i for i in range(10_000))
    finally:
        speed.stop()
    assert len(speed.took) >= 2 and all(t > 0 for t in speed.took)


def test_sampled_subset_check_finds_a_singular_block():
    p = 1091
    rows = [[1, x] for x in range(1, 40)] + [[1, 1]] * 40  # 40 copies of row 0
    v = np.array(rows, dtype=np.int64)
    assert checks.first_singular_subset(v[:39], 2, p, limit=100) is None
    witness = checks.first_singular_subset(v, 2, p, limit=100)  # C(79, 2) > 100: sampled
    assert witness is not None and all(rows[i] == [1, 1] for i in witness)
