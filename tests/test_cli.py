import json

import grasscode.cli as cli
from grasscode.bounds import BoundReport
from grasscode.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_examples(capsys):
    code, out, _ = run_cli(capsys, "count", "lagrangian:2", "--q", "2")
    assert code == EXIT_OK and out.strip() == "count=15 formula=15 agree=true"

    code, out, _ = run_cli(capsys, "count", "grassmann:2,4", "--q", "2")
    assert code == EXIT_OK and out.strip() == "count=35 formula=35 agree=true"

    code, out, _ = run_cli(capsys, "count", "schubert:2,4:1,2", "--q", "2")
    assert code == EXIT_OK and out.strip() == "count=1 formula=1 agree=true"


def test_count_lag_schubert_reports_cellsum(capsys):
    code, out, _ = run_cli(capsys, "count", "lag-schubert:2:2,4", "--q", "2")
    assert code == EXIT_OK
    assert out.strip() == "count=7 formula=none agree=true cellsum=19"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "lagrangian:2", "--q", "3", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"count": 40, "formula": 40, "agree": True}


def test_count_with_p_e(capsys):
    code, out, _ = run_cli(capsys, "count", "grassmann:2,4", "--p", "2", "--e", "2")
    assert code == EXIT_OK
    assert out.strip().startswith("count=357 ")  # gaussian_binomial(4,2,4)


def test_count_spec_flag(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", "lagrangian:2", "--q", "2")
    assert code == EXIT_OK and "count=15" in out


def test_parse_errors(capsys):
    code, _, err = run_cli(capsys, "count", "bogus:1", "--q", "2")
    assert code == EXIT_PARSE and "error" in err
    code, _, err = run_cli(capsys, "count", "grassmann:2,4")
    assert code == EXIT_PARSE
    code, _, err = run_cli(capsys, "count", "grassmann:2,4", "--q", "6")
    assert code == EXIT_PARSE


def _weights_with_field_header(tmp_path, capsys, header):
    path = tmp_path / "bad.code"
    path.write_text(f"{header}\n# code n=2 k=1 source=test\n1 1\n")
    return run_cli(capsys, "weights", str(path), "--r-max", "1")


def test_field_header_item_without_equals(tmp_path, capsys):
    code, _, err = _weights_with_field_header(tmp_path, capsys, "# gf p=2 e=1 modulus")
    assert code == EXIT_PARSE and "field header" in err


def test_field_header_non_prime_p(tmp_path, capsys):
    code, _, err = _weights_with_field_header(tmp_path, capsys, "# gf p=4 e=1 modulus=0,1")
    assert code == EXIT_PARSE and "not prime" in err


def test_field_header_reducible_modulus(tmp_path, capsys):
    code, _, err = _weights_with_field_header(tmp_path, capsys, "# gf p=2 e=2 modulus=1,0,1")
    assert code == EXIT_PARSE and "reducible" in err


def test_budget_exceeded_exit(capsys):
    code, _, err = run_cli(capsys, "count", "grassmann:2,4", "--q", "2", "--budget-points", "5")
    assert code == EXIT_BUDGET and "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GRASSCODE_BUDGET", "5")
    code, _, _ = run_cli(capsys, "count", "grassmann:2,4", "--q", "2")
    assert code == EXIT_BUDGET
    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "count", "grassmann:2,4", "--q", "2", "--budget-points", "100")
    assert code == EXIT_OK
    monkeypatch.setenv("GRASSCODE_BUDGET", "junk")
    code, _, _ = run_cli(capsys, "count", "grassmann:2,4", "--q", "2")
    assert code == EXIT_PARSE


def test_build_and_weights_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "g24.code"
    code, out, _ = run_cli(capsys, "build", "grassmann:2,4", "--q", "2", "--out", str(out_file))
    assert code == EXIT_OK and "n=35 k=6" in out
    header = out_file.read_text().splitlines()[1]
    assert header == "# code n=35 k=6 source=grassmann:2,4"

    code, out, _ = run_cli(capsys, "weights", str(out_file), "--r-max", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["d"] == 16
    assert payload["higher_weights"] == [16, 24, 28]

    # the file round-trip reproduces the in-memory profile bit for bit
    from conftest import variety
    from grasscode.codes import build_code, weight_profile

    in_memory = weight_profile(build_code(variety("grassmann:2,4", 2)), r_max=3)
    assert json.dumps(payload, indent=2) == json.dumps(in_memory.to_json_dict(), indent=2)


def test_build_elambda_example(tmp_path, capsys):
    out_file = tmp_path / "e.code"
    code, out, _ = run_cli(
        capsys, "build", "elambda:2,4:1,2;1,3", "--q", "2", "--out", str(out_file)
    )
    assert code == EXIT_OK and "n=11 k=4" in out


def test_weights_worker_independence(tmp_path, capsys):
    out_file = tmp_path / "l24.code"
    run_cli(capsys, "build", "lagrangian:2", "--q", "2", "--out", str(out_file))
    _, out1, _ = run_cli(capsys, "weights", str(out_file), "--r-max", "2", "--workers", "1")
    _, out4, _ = run_cli(capsys, "weights", str(out_file), "--r-max", "2", "--workers", "4")
    assert out1 == out4
    payload = json.loads(out1)
    assert payload["higher_weights"] == [6, 10]


def test_weights_method_hyperplanes(tmp_path, capsys):
    out_file = tmp_path / "l24.code"
    run_cli(capsys, "build", "lagrangian:2", "--q", "2", "--out", str(out_file))
    _, out, _ = run_cli(capsys, "weights", str(out_file), "--method", "hyperplanes")
    assert json.loads(out)["d"] == 6


def test_verify_small_grid(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--q", "2", "--lagrangian-n", "2", "--out", str(report_file)
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == json.loads(report_file.read_text())
    assert payload["disputed"] == [
        "grassmann-dr-cap[n=2,q=2,r=2]",
        "grassmann-dr-cap[n=2,q=2,r=3]",
    ]
    failing = [r for r in payload["reports"] if r["holds"] is False]
    assert all(r.get("disputed") for r in failing)


def test_verify_empty_grid(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == EXIT_OK
    assert json.loads(out) == {"reports": [], "disputed": []}


def test_verify_failure_exit_code(capsys, monkeypatch):
    failed = BoundReport("synthetic", {}, 2, 1, "<=", False, "synthetic failure")
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [failed])
    code, out, _ = run_cli(capsys, "verify", "--q", "2")
    assert code == EXIT_VERIFY


def test_verify_disputed_failure_does_not_fail(capsys, monkeypatch):
    failed = BoundReport("synthetic", {}, 2, 1, "<=", False, "flagged", disputed=True)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [failed])
    code, _, _ = run_cli(capsys, "verify", "--q", "2")
    assert code == EXIT_OK
