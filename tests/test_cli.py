import json

import pytest

from charsum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "f3", "--a", "1", "--p", "13", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -2
    assert payload["method"].startswith("cubic_cm")
    assert payload["residue_only"] is False


def test_eval_oracle_method(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "g1", "--a", "1", "--p", "5",
        "--method", "oracle", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -3 and payload["method"] == "oracle"


def test_eval_legendre_notes_supersingular(capsys):
    code, out, _ = run(
        capsys, "eval", "--family", "legendre", "--beta", "2", "--p", "7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0 and payload["supersingular"] is True


def test_eval_text_shows_decomposition(capsys):
    code, out, _ = run(capsys, "eval", "--family", "f1", "--a", "2", "--p", "13")
    assert code == 0
    assert "S = " in out and "method:" in out


def test_count(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "g3", "--a", "1", "--p", "7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["affine"] == 14 and payload["projective"] == 15


def test_usage_errors():
    assert main(["eval", "--family", "f1", "--a", "1", "--p", "15"]) == 2
    assert main(["eval", "--family", "f7", "--a", "1", "--p", "7"]) == 2  # bad reduction
    assert main(["verify", "--suite", "nonsense", "--pmax", "10"]) == 2


def test_verify_suite_exit_zero(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "cubic-cm", "--pmax", "60",
        "--out", str(out_file),
    )
    assert code == 0
    assert "unexplained mismatches" in out
    data = json.loads(out_file.read_text())
    assert "f1" in data and data["f1"]["cases"]


def test_verify_trivial_range(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cubic-cm", "--pmax", "3")
    assert code == 0


def test_verify_report_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--suite", "legendre-hasse", "--pmax", "80", "--out", str(f1))
    run(capsys, "verify", "--suite", "legendre-hasse", "--pmax", "80", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_hasse_subcommand(capsys):
    code, out, _ = run(capsys, "hasse", "--pmax", "13")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    by_p = {r["p"]: r for r in rows}
    assert by_p[7]["N1"] == 3 and by_p[7]["h"] == 1
    assert all(r["linear_formula_holds"] and r["squarefree"] for r in rows)


def test_verify_cubic_cm_prints_selector_errata(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cubic-cm", "--pmax", "120")
    assert code == 0
    assert "[cubic-cm] cubic_cm_printed_selector:" in out
    errata = [line for line in out.splitlines() if "printed selector" in line]
    assert [e.split("erratum: ")[1].split(":")[0] for e in errata] == [
        "f1", "f2", "f3", "f7", "f11"
    ]
    assert "is wrong at p = 23" in errata[3] and "is wrong at p = 31" in errata[4]


def test_bench_runs(capsys):
    code, out, _ = run(capsys, "bench", "--family", "f1", "--pbits", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,t_closed_s")
    assert len(lines) == 2


def test_bench_sweep(capsys):
    code, out, _ = run(capsys, "bench", "--family", "f1", "--pbits", "14,16")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_eval_closed_method_rejects_fallback(capsys):
    # edwards with a non-residue d has no F_p splitting
    code = main(
        ["eval", "--family", "edwards", "--c", "1", "--d", "3", "--p", "7",
         "--method", "closed"]
    )
    assert code == 2
    code = main(
        ["eval", "--family", "edwards", "--c", "1", "--d", "2", "--p", "7",
         "--method", "closed"]
    )
    assert code == 0


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("format=json\n")
    code, out, _ = run(
        capsys, "--config", str(cfg), "eval", "--family", "f3", "--a", "1", "--p", "13"
    )
    assert code == 0
    assert json.loads(out)["value"] == -2


def test_config_values_take_the_option_type(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("beta=5\nformat=json\n")
    code, out, _ = run(capsys, "--config", str(cfg), "eval", "--family", "legendre", "--p", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"beta": 5} and payload["value"] == 2
    cfg.write_text("beta=five\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "eval", "--family", "legendre", "--p", "13"])
    assert exc.value.code == 2


def test_eval_f2_past_2_31(capsys):
    p = 2305843009213694009  # 2^61 + 57, the first prime past 2^61 split for n = 2
    code, out, _ = run(capsys, "eval", "--family", "f2", "--p", str(p), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "cubic_cm/group_order" and payload["value"] != 0


def test_eval_legendre_past_2_61(capsys):
    # the supersingular flag comes from the sum's own a_p, with no Hasse table
    p = 2305843009213694009  # 2^61 + 57
    code, out, _ = run(capsys, "eval", "--family", "legendre", "--beta", "5", "--p", str(p), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "legendre_form/group_order"
    assert payload["decomposition"]["a_p"] == -payload["value"] != 0
    assert "supersingular" not in payload
    # beta = -1 (x^3 - x) is supersingular exactly when p = 3 mod 4
    p = 2305843009213693951  # 2^61 - 1
    code, out, _ = run(capsys, "eval", "--family", "legendre", "--beta", str(p - 1), "--p", str(p), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 0 and payload["supersingular"] is True
