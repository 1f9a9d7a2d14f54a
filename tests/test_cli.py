import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grasscode.cli as cli
import grasscode.sections as sections
from conftest import variety
from grasscode.bounds import BoundReport
from grasscode.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from grasscode.codes import build_code, write_code_file
from grasscode.field import GF


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


def test_count_symplectic_plane(capsys):
    # n = 1: no coordinate-sum forms, every line of the plane is Lagrangian
    code, out, _ = run_cli(capsys, "count", "lagrangian:1", "--q", "2")
    assert code == EXIT_OK and out.strip() == "count=3 formula=3 agree=true"
    code, out, _ = run_cli(capsys, "count", "lag-schubert:1:1", "--q", "3")
    assert code == EXIT_OK and out.strip() == "count=1 formula=none agree=true cellsum=1"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "lagrangian:2", "--q", "3", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"count": 40, "formula": 40, "agree": True}


def test_count_with_p_e(capsys):
    code, out, _ = run_cli(capsys, "count", "grassmann:2,4", "--p", "2", "--e", "2")
    assert code == EXIT_OK
    assert out.strip().startswith("count=357 ")  # gaussian_binomial(4,2,4)


@pytest.mark.parametrize(
    "flags",
    [("--q", "4", "--e", "3"), ("--p", "2", "--e", "0"), ("--q", "4", "--p", "3")],
    ids=" ".join,
)
def test_count_field_flags_must_agree(capsys, flags):
    code, out, err = run_cli(capsys, "count", "grassmann:2,4", *flags)
    assert code == EXIT_PARSE and out == "" and err.startswith("error: ")


def test_count_spec_flag(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", "lagrangian:2", "--q", "2")
    assert code == EXIT_OK and "count=15" in out


def test_parse_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "count", "bogus:1", "--q", "2")
    assert code == EXIT_PARSE and "error" in err
    code, _, err = run_cli(capsys, "count", "grassmann:2,4")
    assert code == EXIT_PARSE
    code, _, err = run_cli(capsys, "count", "grassmann:2,4", "--q", "6")
    assert code == EXIT_PARSE
    # a large prime is refused by size, before any trial division
    code, _, err = run_cli(capsys, "count", "grassmann:2,4", "--q", str(2**61 - 1))
    assert code == EXIT_PARSE and "exceeds supported limit" in err
    # unreadable input and unwritable output paths are parse errors too
    undecodable = tmp_path / "bytes.code"
    undecodable.write_bytes(b"\xff\xfe")
    for argv in (
        ("weights", str(undecodable)),
        ("weights", str(tmp_path / "missing.code")),
        ("build", "grassmann:2,4", "--q", "2", "--out", str(tmp_path / "no" / "x.code")),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and err.startswith("error: ")


def test_unwritable_out_stops_before_any_output(tmp_path, capsys):
    # --out is opened before the scan, so a bad path exits 2 with an empty stdout
    code_file = tmp_path / "l2q3.code"
    run_cli(capsys, "build", "lagrangian:2", "--q", "3", "--out", str(code_file))
    bad = str(tmp_path / "no" / "out.json")
    for argv in (
        ("weights", str(code_file), "--r-max", "1", "--out", bad),
        ("verify", "--q", "2", "--lagrangian-n", "2", "--out", bad),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and out == "" and err.startswith("error: ")


def _weights_on_file(tmp_path, capsys, text, *flags):
    path = tmp_path / "bad.code"
    path.write_text(text)
    return run_cli(capsys, "weights", str(path), *flags)


def _weights_with_field_header(tmp_path, capsys, header):
    text = f"{header}\n# code n=2 k=1 source=test\n1 1\n"
    return _weights_on_file(tmp_path, capsys, text, "--r-max", "1")


def test_field_header_item_without_equals(tmp_path, capsys):
    code, _, err = _weights_with_field_header(tmp_path, capsys, "# gf p=2 e=1 modulus")
    assert code == EXIT_PARSE and "field header" in err


def test_field_header_non_prime_p(tmp_path, capsys):
    code, _, err = _weights_with_field_header(tmp_path, capsys, "# gf p=4 e=1 modulus=0,1")
    assert code == EXIT_PARSE and "not prime" in err


def test_field_header_large_p(tmp_path, capsys):
    code, _, err = _weights_with_field_header(tmp_path, capsys, f"# gf p={2**61 - 1} e=1 modulus=0,1")
    assert code == EXIT_PARSE and "exceeds supported limit" in err


def test_field_header_reducible_modulus(tmp_path, capsys):
    code, _, err = _weights_with_field_header(tmp_path, capsys, "# gf p=2 e=2 modulus=1,0,1")
    assert code == EXIT_PARSE and "reducible" in err


def test_code_header_item_without_equals(tmp_path, capsys):
    text = "# gf p=2 e=1 modulus=0,1\n# code n=2 k=1 source\n1 1\n"
    code, _, err = _weights_on_file(tmp_path, capsys, text)
    assert code == EXIT_PARSE and "bad code header" in err


def test_code_non_integer_entry(tmp_path, capsys):
    text = "# gf p=2 e=1 modulus=0,1\n# code n=2 k=1 source=test\n1 x\n"
    code, _, err = _weights_on_file(tmp_path, capsys, text)
    assert code == EXIT_PARSE and "bad generator entry" in err


def test_weights_r_max_range(tmp_path, capsys):
    out_file = tmp_path / "l24.code"
    run_cli(capsys, "build", "lagrangian:2", "--q", "2", "--out", str(out_file))  # k = 5
    for r_max in ("-1", "6"):
        code, out, err = run_cli(capsys, "weights", str(out_file), "--r-max", r_max)
        assert code == EXIT_PARSE and out == "" and "--r-max must be in 0..5" in err
    for r_max, chain in (("0", []), ("5", [6, 10, 12, 14, 15])):
        code, out, _ = run_cli(capsys, "weights", str(out_file), "--r-max", r_max)
        assert code == EXIT_OK and json.loads(out)["higher_weights"] == chain


def test_weights_budgets_checked_before_any_scan(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "g24.code"
    run_cli(capsys, "build", "grassmann:2,4", "--q", "2", "--out", str(out_file))  # q^k = 64
    calls = []
    matmul = GF.matmul
    monkeypatch.setattr(GF, "matmul", lambda self, a, b: calls.append(1) or matmul(self, a, b))
    cases = [
        (("--method", "hyperplanes", "--budget-scans", "63"), "weight enumerator scan needs 64 > budget 63"),
        (("--r-max", "3", "--budget-scans", "100"), "subcode scan (r=2) needs 651 > budget 100"),
        (("--budget-scans", "63"), "codeword scan needs 64 > budget 63"),
    ]
    for flags, message in cases:
        code, out, err = run_cli(capsys, "weights", str(out_file), *flags)
        assert code == EXIT_BUDGET and out == "" and message in err
    assert calls == []


def test_budget_exceeded_exit(capsys):
    code, _, err = run_cli(capsys, "count", "grassmann:2,4", "--q", "2", "--budget-points", "5")
    assert code == EXIT_BUDGET and "budget" in err


def test_budget_exceeded_exit_on_count_past_int_str_limit(tmp_path, capsys, monkeypatch):
    # [632, 316]_2 has about 30 000 decimal digits, past Python's int-to-str
    # limit; the budget check comes before any form is built
    monkeypatch.setattr(sections, "pi_forms", None)
    for argv in (
        ("count", "lagrangian:316", "--q", "2", "--budget-points", "40"),
        ("build", "lagrangian:316", "--q", "2", "--budget-points", "40", "--out", str(tmp_path / "x.code")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_BUDGET and out == ""
        assert err == "budget exceeded: G(316,632)(F_2) point count needs at least 2^99857 > budget 40\n"


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


def test_subcommands_take_only_their_budget(tmp_path, capsys):
    code_file = tmp_path / "g24.code"
    run_cli(capsys, "build", "grassmann:2,4", "--q", "2", "--out", str(code_file))
    for argv in (
        ("count", "grassmann:2,4", "--q", "2", "--budget-scans", "5"),
        ("build", "grassmann:2,4", "--q", "2", "--out", str(code_file), "--budget-scans", "5"),
        ("weights", str(code_file), "--budget-points", "5"),
        ("verify", "--q", "2", "--workers", "2"),
    ):
        assert _quiet_main(list(argv)) == EXIT_PARSE
    # a budget a subcommand takes must be positive, whatever the default
    for argv in (
        ("count", "grassmann:2,4", "--q", "2", "--budget-points", "0"),
        ("weights", str(code_file), "--budget-scans", "0"),
        ("verify", "--budget-points", "-1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE and "budgets must be positive" in err


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


@pytest.mark.parametrize("spec", ["isotropic:3,2", "elambda:2,4:1,2;1,3;1,4;2,3;2,4;3,4"])
def test_build_without_rational_points_is_a_parse_error(spec, tmp_path, capsys):
    out_file = tmp_path / "empty.code"
    code, out, err = run_cli(capsys, "build", spec, "--q", "2", "--out", str(out_file))
    assert code == EXIT_PARSE and out == "" and not out_file.exists()
    assert err == f"error: {spec} has no rational points over GF(2)\n"


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


def test_verify_bad_grid_values(capsys):
    for argv in (
        ("--lagrangian-n", "1"),
        ("--q", "6"),
        ("--q", "2", "--lagrangian-n", "2,0"),
        ("--grassmann", "3,2"),
        ("--grassmann", "0,3"),
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_PARSE and out == "" and err.startswith("error: ")


def test_verify_empty_close_family_section(capsys):
    for pair in ("1,2", "1,3", "2,3"):
        code, out, _ = run_cli(capsys, "verify", "--q", "2", "--grassmann", pair)
        assert code == EXIT_OK
        empty = [r for r in json.loads(out)["reports"] if r.get("note") == "degenerate: empty section"]
        assert any(r["claim"].startswith("elambda-ffn[") for r in empty)
        assert all(r["holds"] is None and r["lhs"] is None for r in empty)


# SHA-256 of the whole stdout.  Budget 10 leaves the Lagrangian codeword scan
# unevaluated, 40 the sandwich at r = 2 and the caps, 200 the Grassmann d_r at
# r = 2, 3; G(2,2) has k = 1, so its r = 2 claim is unevaluated at every budget.
@pytest.mark.parametrize(
    "budget,digest",
    [
        ("10", "e3b605e949aefa5afa9ce4556c40715ec10c08f1f5b424c5c2093d0c9662af66"),
        ("40", "c704f4dd6a956e305153aa2bd1040ebbff4ff85c5059940776d5320fb776cea5"),
        ("200", "d72cbe5884f644a7c58a8df3b6f859f6d9c74ce2f04a89000ee446ea182b96e5"),
    ],
)
def test_verify_unevaluated_reports_pinned(capsys, budget, digest):
    argv = ("verify", "--q", "2", "--grassmann", "2,2;2,4", "--lagrangian-n", "2", "--budget-scans", budget)
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and "not evaluated" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the stdout of count at q = 2 and 3, plain then --json.
@pytest.mark.parametrize(
    "spec,digest",
    [
        ("grassmann:2,4", "72fab61f2947d549f0dc4aeb60cbd814f348aba8105578c22a248b052dc8a5b4"),
        ("schubert:2,4:2,4", "e2193af277584ed1238128940bc29c69277ce984b36c49c842b281ad4bac431d"),
        ("union:2,4:1,4;2,3", "141bf1957c76cf78e67155f73704dfd453cee0a77aae45c1c249bda5caeeb76d"),
        ("elambda:2,4:1,2;1,3", "141bf1957c76cf78e67155f73704dfd453cee0a77aae45c1c249bda5caeeb76d"),
        ("elambda:2,4:1,2;3,4", "ae1da93f59162e32d592a74b16aa7f723f833d511b137a6254c86f1da79b2621"),
        ("lagrangian:2", "0fa62aaf66f8747a10d136f03b9e51f2e7bbb34ebeb38576d8c7a063c73cee3f"),
        ("isotropic:2,3", "bfd30cb99b30ce4963a2a4051c0afb8d972fef0c1e7f217e969c2c7f0d552e80"),
        ("lag-schubert:2:2,4", "f944a0ccc4e3aa2619c35803ba7edd8defbd04db6e9bc1cb5973e19d980e7117"),
        ("lag-union:2:2,4;1,4", "f944a0ccc4e3aa2619c35803ba7edd8defbd04db6e9bc1cb5973e19d980e7117"),
    ],
)
def test_count_reports_pinned(capsys, spec, digest):
    out = ""
    for q in ("2", "3"):
        for flags in ((), ("--json",)):
            code, text, _ = run_cli(capsys, "count", spec, "--q", q, *flags)
            assert code == EXIT_OK
            out += text
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# -- the exit-code contract under mutated input files -----------------------------

EDITS = st.lists(
    st.tuples(
        st.sampled_from(["drop-equals", "replace", "delete", "duplicate"]),
        st.integers(0, 10**4),
        st.integers(0, 10**4),
        st.sampled_from(["x", "1.5", "0x1", "", "-1", "2", "3", "99", str(2**70)]),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(text: str, edits) -> str:
    """Apply token edits to the space-separated tokens of each line."""
    lines = [line.split(" ") for line in text.splitlines()]
    for kind, line_no, token_no, value in edits:
        if kind == "drop-equals":
            line = lines[line_no % 2]
            i = token_no % len(line)
            line[i] = line[i].replace("=", "", 1)
            continue
        line = lines[line_no % len(lines)]
        i = token_no % len(line)
        if kind == "replace":
            line[i] = value
        elif kind == "delete" and len(line) > 1:
            del line[i]
        elif kind == "duplicate":
            line.insert(i, line[i])
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=60)
@given(edits=EDITS)
def test_mutated_code_files_exit_cleanly(tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("code") / "g24.code"
    write_code_file(build_code(variety("grassmann:2,4", 2)), str(path))
    path.write_text(_mutate(path.read_text(), edits))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["weights", str(path), "--r-max", "2"]) in (EXIT_OK, EXIT_PARSE, EXIT_BUDGET)


# -- the exit-code contract under generated variety specs and verify grids ----

CLEAN_EXITS = (EXIT_OK, EXIT_PARSE, EXIT_BUDGET, EXIT_VERIFY)


def _quiet_main(argv):
    """Exit code of a CLI run, argparse's own usage errors (SystemExit) included."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


SMALL_INT = st.integers(-1, 5).map(str)
INDEX_TUPLES = st.lists(st.lists(SMALL_INT, min_size=1, max_size=3).map(",".join), min_size=1, max_size=2)
SPEC_SHAPES = {
    "grassmann": "{a},{b}",
    "schubert": "{a},{b}:{t}",
    "union": "{a},{b}:{t}",
    "elambda": "{a},{b}:{t}",
    "lagrangian": "{a}",
    "isotropic": "{a},{b}",
    "lag-schubert": "{a}:{t}",
    "lag-union": "{a}:{t}",
}
SYMPLECTIC = ("lagrangian", "lag-schubert", "lag-union")


@st.composite
def spec_args(draw):
    """count/build arguments whose spec parses, then at most one fault.

    The fault is a small number that may be out of range, random index
    tuples, a stray character or a bad --q, each drawn about one time in
    eight, so about half the specs reach enumeration.  ``isotropic:l,n``
    with l > n is a valid spec with no points.
    """
    kind = draw(st.sampled_from(sorted(SPEC_SHAPES)))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if kind in SYMPLECTIC:
        ell, m = a, 2 * a
    elif kind == "isotropic":
        ell, m = a, 2 * b
    else:
        a, b = ell, m = min(a, b), max(a, b)
    count = 1 if kind in ("schubert", "lag-schubert") else draw(st.integers(1, 2))
    tuple_st = st.sets(st.integers(1, m), min_size=ell, max_size=ell).map(lambda t: ",".join(map(str, sorted(t))))
    tuples = ";".join(draw(st.lists(tuple_st, min_size=count, max_size=count)))
    q = draw(st.sampled_from(["2", "3", "4"]))
    fault = draw(st.sampled_from([None, None, None, None, "number", "tuples", "junk", "q"]))
    if fault == "number":
        a = draw(SMALL_INT)
    elif fault == "tuples":
        tuples = ";".join(draw(INDEX_TUPLES))
    elif fault == "q":
        q = draw(st.sampled_from(["6", "1", "0", "x", "65537"]))
    text = f"{kind}:" + SPEC_SHAPES[kind].format(a=a, b=b, t=tuples)
    if fault == "junk":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([":", ",", ";", "x"])) + text[at:]
    return [text, "--q", q, "--budget-points", "3000"]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=st.sampled_from(["count", "build"]), args=spec_args())
def test_generated_specs_exit_cleanly(tmp_path_factory, command, args):
    argv = [command, *args]
    if command == "build":
        argv += ["--out", str(tmp_path_factory.mktemp("build") / "x.code")]
    assert _quiet_main(argv) in CLEAN_EXITS


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    qs=st.lists(st.integers(0, 9), max_size=2),
    pairs=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), max_size=2),
    ns=st.lists(st.integers(0, 2), max_size=2),
    junk=st.one_of(st.just(""), st.sampled_from([",", ";", "x"])),
    where=st.integers(0, 2),
)
def test_generated_verify_grids_exit_cleanly(qs, pairs, ns, junk, where):
    values = [",".join(map(str, qs)), ";".join(f"{a},{b}" for a, b in pairs), ",".join(map(str, ns))]
    values[where] += junk
    argv = ["verify", "--q", values[0], "--grassmann", values[1], "--lagrangian-n", values[2]]
    assert _quiet_main(argv + ["--budget-points", "3000", "--budget-scans", "5000"]) in CLEAN_EXITS
