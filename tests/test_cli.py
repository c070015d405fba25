"""Command-line contract: subcommands, exit codes, JSON determinism."""

import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactforge import cli, config, linalg, slcontact
from contactforge.cli import SUITES, main
from contactforge.errors import InternalCheckError, ParameterError
from contactforge.liealg import build_algebra, class_survey
from contactforge.orthogroup import so3_contact_check


def run(argv):
    """Invoke the CLI, normalizing argparse's SystemExit into a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def test_verify_contact_p1(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify-contact", "--p", "1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    by_anchor = {c["anchor"]: c for c in payload["claims"]}
    volume = by_anchor["factorization constant under the reading Theta = V"]
    assert volume["computed"] == "-4"
    assert volume["verdict"] == "confirmed"
    other = by_anchor["factorization constant under the reading Theta = (d omega)^(2p^2)"]
    assert other["verdict"] == "reported-only"


def test_verify_contact_p3(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify-contact", "--p", "3", "--json", str(out)]) == 0
    by_anchor = {c["anchor"]: c for c in json.loads(out.read_text())["claims"]}
    # derived closed form: (-2)^(N-1) (N-1)! 2p with N = 2p^2 = 18
    constant = (-2) ** 17 * math.factorial(17) * 6
    assert constant == -279723975452393472000
    volume = by_anchor["factorization constant under the reading Theta = V"]
    assert volume["computed"] == str(constant)
    assert volume["reference"] == -(2 ** 20)  # the quoted -2^(2p^2+p-1)
    other = by_anchor["factorization constant under the reading Theta = (d omega)^(2p^2)"]
    assert other["computed"] == str(constant)
    # both readings of the quoted constant stay reported-only; every other claim holds
    assert volume["verdict"] == other["verdict"] == "reported-only"
    assert {c["verdict"] for a, c in by_anchor.items() if c not in (volume, other)} == {"confirmed"}


def test_structural_p3(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["structural", "--p", "3", "--json", str(out)]) == 0
    verdicts = [c["verdict"] for c in json.loads(out.read_text())["claims"]]
    assert verdicts == ["confirmed"] * 5


def test_h_algebra_p2(capsys):
    assert run(["h-algebra", "--p", "2"]) == 0
    text = capsys.readouterr().out
    assert "dim h = p(2p+1)" in text


def test_h_algebra_over_budget_exits_3(capsys):
    # the p = 2 system has n^4 = 256 entries; the budget is checked before it is built
    assert run(["h-algebra", "--p", "2", "--max-terms", "100"]) == 3
    assert "256" in capsys.readouterr().err
    assert run(["h-algebra", "--p", "2"]) == 0  # the override ends with its run


def test_reeb(tmp_path):
    out = tmp_path / "reeb.json"
    assert run(["reeb", "--p", "1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    verdicts = {c["anchor"]: c["verdict"] for c in payload["claims"]}
    assert verdicts["quoted normalization omega(R) = 1"] == "reported-only"


def test_cartan_class_so3(tmp_path):
    out = tmp_path / "c.json"
    assert run(["cartan-class", "--algebra", "so", "--n", "3", "--form", "1,2,3",
                "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    classes = [c for c in payload["claims"] if c["anchor"].startswith("class of")]
    assert classes and classes[0]["computed"] == 3


def test_cartan_class_from_file(tmp_path):
    alg = tmp_path / "cyclic.alg"
    alg.write_text("dim 3\n1 2 3 1\n1 3 2 -1\n2 3 1 1\n")
    assert run(["cartan-class", "--algebra", f"file:{alg}", "--form", "1,0,0"]) == 0


@pytest.mark.parametrize("kind, n, generic", [("sl", 5, 21), ("so", 8, 25)], ids=["sl5", "so8"])
def test_cartan_class_past_the_divided_power_wall(kind, n, generic, tmp_path):
    """Both class routes agree on sl(5) and so(8) in a child process within seconds.

    The full divided-power chain needed about 2^(dim-1) Pfaffians here
    (dim 24 and 28); the bordered elimination is polynomial in dim.
    """
    out = tmp_path / "c.json"
    src = pathlib.Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "contactforge.cli", "cartan-class", "--algebra", kind,
         "--n", str(n), "--json", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    claims = {c["anchor"]: c for c in json.loads(out.read_text())["claims"]}
    agree = claims["matrix-rank route agrees with the wedge route"]
    assert agree["verdict"] == "confirmed" and agree["computed"] == agree["reference"] == generic


def test_class_survey_cli(tmp_path):
    out = tmp_path / "s.json"
    assert run(["class-survey", "--algebra", "heisenberg", "--n", "5", "--rank", "1",
                "--samples", "50", "--seed", "3", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    verdicts = {c["anchor"]: c["verdict"] for c in payload["claims"]}
    assert verdicts["all observed classes odd (compact/nilpotent family)"] == "confirmed"


def test_so3_check_cli():
    assert run(["so3-check", "--samples", "5", "--seed", "1"]) == 0


def test_scan_cli():
    assert run(["scan", "--form", "t3", "--n1", "1", "--points", "200", "--seed", "2",
                "--tol", "1e-9"]) == 0
    assert run(["scan", "--form", "t5-lutz", "--points", "200", "--seed", "2",
                "--tol", "1e-9"]) == 0


def test_scan_t3_with_n1_0_exits_2_naming_the_option(capsys):
    # t3(0) = d theta2 is closed (class 1), so no scan of it can test the contact claim
    assert run(["scan", "--form", "t3", "--n1", "0", "--points", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n1 0") and "Traceback" not in err


def test_scan_n1_with_t5_lutz_exits_2_naming_the_option(tmp_path, capsys):
    assert run(["scan", "--form", "t5-lutz", "--n1", "7", "--points", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n1 applies to --form t3 only") and "t5-lutz" in err
    assert "Traceback" not in err
    out = tmp_path / "t3.json"
    assert run(["scan", "--form", "t3", "--points", "5", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["form"] == "t3(n1=1)"


def test_out_of_memory_exits_3_with_an_error_line(monkeypatch, capsys):
    def exhausted(p):
        raise MemoryError

    monkeypatch.setattr(cli, "h_algebra", exhausted)
    assert run(["h-algebra", "--p", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"


def test_invariance_cli():
    assert run(["invariance", "--p", "1", "--samples", "5", "--seed", "0"]) == 0


def test_invariance_cli_takes_p_past_3(tmp_path):
    out = tmp_path / "inv4.json"
    assert run(["invariance", "--p", "4", "--samples", "5", "--json", str(out)]) == 0
    verdicts = [c["verdict"] for c in json.loads(out.read_text())["claims"]]
    assert verdicts == ["confirmed"] * 4


def test_structural_cli():
    assert run(["structural", "--p", "1"]) == 0


def test_u_decomp_cli():
    assert run(["u-decomp", "--p", "1"]) == 0


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


@pytest.mark.parametrize("suite, confirmed", [("u-decomp", 3), ("reeb", 4)], ids=["u-decomp", "reeb"])
def test_p3_suite_under_256_mib(suite, confirmed, tmp_path):
    """A p = 3 suite through the CLI, in a child process capped at 256 MiB."""
    out = tmp_path / "s3.json"
    src = pathlib.Path(__file__).parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "contactforge.cli", suite, "--p", "3", "--json", str(out)],
        env=env, preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    verdicts = [c["verdict"] for c in json.loads(out.read_text())["claims"]]
    assert sorted(verdicts) == ["confirmed"] * confirmed + ["reported-only"]


def test_json_byte_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["invariance", "--p", "1", "--samples", "6", "--seed", "42", "--json"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    argv = ["class-survey", "--algebra", "so", "--n", "4", "--rank", "2",
            "--samples", "30", "--seed", "7", "--json"]
    assert run(argv + [str(c)]) == 0
    assert run(argv + [str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run(["reeb", "--p", "1", "--bogus"]) == 2


def test_missing_n_exits_2(capsys):
    assert run(["cartan-class", "--algebra", "so", "--form", "1,2,3"]) == 2


def test_malformed_form_exits_2(capsys):
    assert run(["cartan-class", "--algebra", "so", "--n", "3", "--form", "1,2,zebra"]) == 2
    assert run(["cartan-class", "--algebra", "so", "--n", "3", "--form", "1,2"]) == 2


def test_zero_denominator_form_exits_2_without_traceback(capsys):
    assert run(["cartan-class", "--algebra", "so", "--n", "3", "--form", "1/0,1,1"]) == 2
    err = capsys.readouterr().err
    assert "cannot parse --form" in err and "Traceback" not in err


@pytest.mark.parametrize("text, line, message", [
    ("dim x\n", 1, "'x' is not an integer"),
    ("dim 3\n1 2.5 3 1\n", 2, "'2.5' is not an integer"),
    ("dim 3\n1 2 3 abc\n", 2, "'abc' is not a rational"),
    ("# so(3)\ndim 3\n1 2 3 1/0\n", 3, "'1/0' is not a rational"),
    ("dim 0\n", 1, "dim must be >= 1"),
    ("dim -3\n", 1, "dim must be >= 1"),
], ids=["dim-x", "index", "value", "zero-denominator", "dim-0", "dim-negative"])
@pytest.mark.parametrize("command", [
    ["cartan-class"],
    ["class-survey", "--rank", "1", "--samples", "3"],
], ids=["cartan-class", "class-survey"])
def test_malformed_algebra_file_exits_2_without_traceback(tmp_path, capsys, text, line, message,
                                                          command):
    alg = tmp_path / "bad.alg"
    alg.write_text(text)
    assert run([command[0], "--algebra", f"file:{alg}", *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{alg}:{line}: " in err and message in err
    assert "Traceback" not in err


def test_non_utf8_algebra_file_exits_2(tmp_path, capsys):
    alg = tmp_path / "latin1.alg"
    alg.write_bytes("dim 3\n# \u00e9\n".encode("latin-1"))
    assert run(["cartan-class", "--algebra", f"file:{alg}"]) == 2
    err = capsys.readouterr().err
    assert f"error: {alg}: not UTF-8 text" in err and "Traceback" not in err


def test_term_guard_exit_3(capsys):
    assert run(["verify-contact", "--p", "2", "--max-terms", "5"]) == 3


_BUDGETED = [
    ["verify-contact", "--p", "1"],
    ["cartan-class", "--algebra", "sl", "--n", "2"],
    ["scan", "--form", "t3", "--points", "10"],
    ["invariance", "--p", "3", "--samples", "1"],
]


@pytest.mark.parametrize("value", ["junk", "0", "-3"])
@pytest.mark.parametrize("argv", _BUDGETED, ids=lambda argv: argv[0])
def test_malformed_budget_variable_is_a_usage_error_before_any_work(argv, value, monkeypatch, capsys):
    monkeypatch.setenv("CONTACTFORGE_MAX_TERMS", value)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no suite ran
    assert "--max-terms" in captured.err and "Traceback" not in captured.err
    assert f"CONTACTFORGE_MAX_TERMS is '{value}'" in captured.err


def test_budget_variable_sets_the_default_and_the_flag_beats_it(monkeypatch, capsys):
    monkeypatch.setenv("CONTACTFORGE_MAX_TERMS", "1")
    assert run(["verify-contact", "--p", "1"]) == 3
    assert run(["cartan-class", "--algebra", "sl", "--n", "2"]) == 0  # forms no Poly product
    assert config.get_max_terms() == config.DEFAULT_MAX_TERMS  # the run's budget ends with it
    monkeypatch.setenv("CONTACTFORGE_MAX_TERMS", "junk")
    assert run(["verify-contact", "--p", "1", "--max-terms", "5000000"]) == 0
    monkeypatch.setenv("CONTACTFORGE_MAX_TERMS", "")  # empty reads as unset
    assert run(["verify-contact", "--p", "1"]) == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(
    ["--p", "--seed", "--samples", "reeb", "verify-contact", "nonsense", "-3",
     "--algebra", "", "--form", "x", "--json"]), min_size=1, max_size=4))
def test_malformed_argv_never_crashes(argv):
    code = run(argv)
    assert code in (0, 1, 2, 3)


def test_all_p1(tmp_path):
    out = tmp_path / "all.json"
    assert run(["all", "--p", "1", "--samples", "6", "--seed", "0",
                "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "all"
    suites = [r["suite"] for r in payload["reports"]]
    assert {"verify-contact", "reeb", "structural", "invariance",
            "h-algebra", "u-decomp", "so3-check", "scan"} <= set(suites)


@pytest.mark.parametrize("argv", [
    ["verify-contact", "--p", "1", "--max-terms", "0"],
    ["verify-contact", "--p", "1", "--max-terms", "-5"],
    ["class-survey", "--algebra", "so", "--n", "3", "--rank", "1", "--samples", "0"],
    ["class-survey", "--algebra", "so", "--n", "3", "--rank", "-1", "--samples", "3"],
    ["invariance", "--p", "1", "--samples", "0"],
    ["invariance", "--p", "1", "--samples", "-3"],
    ["so3-check", "--samples", "0"],
    ["h-algebra", "--p", "0"],
    ["h-algebra", "--p", "-1"],
    ["scan", "--form", "t3", "--points", "0"],
    ["all", "--p", "1", "--samples", "0"],
    ["invariance", "--p", "0"],
])
def test_out_of_range_counts_exit_2_without_traceback(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "must be >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("call", [
    lambda: config.set_max_terms(0),
    lambda: class_survey(build_algebra("so", 3), 1, 0, 0),
    lambda: class_survey(build_algebra("so", 3), 0, 3, 0),
    lambda: slcontact.invariance_loci(1, samples=0),
    lambda: so3_contact_check(samples=0),
    lambda: slcontact.h_algebra(0),
    lambda: slcontact.h_algebra(-1),
    lambda: slcontact.invariance_loci(0),
], ids=["max-terms", "class-survey", "class-survey-rank", "invariance", "so3-check", "h-algebra-0",
        "h-algebra-neg", "invariance-p0"])
def test_library_entry_points_reject_empty_or_negative_counts(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
def test_non_finite_or_non_positive_tolerance_exits_2_without_traceback(tol, capsys):
    assert run(["scan", "--form", "t3", "--points", "5", f"--tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert "must be finite and > 0" in err
    assert "Traceback" not in err


def test_broken_frame_check_exits_1_with_an_error_line(monkeypatch, capsys):
    monkeypatch.setattr(slcontact, "interior_product", lambda v, f: types.SimpleNamespace(is_zero=False))
    assert run(["verify-contact", "--p", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: X(1, 1) is not tangent to the det = 1 level set")
    assert "Traceback" not in err


def test_a_nullspace_vector_outside_h_exits_1_with_an_error_line(monkeypatch, capsys):
    nullspace = linalg.nullspace

    def with_the_identity(a):  # the flattened identity: J I = J is not symmetric
        n = math.isqrt(len(a[0]))
        return nullspace(a) + [[Fraction(int(k % (n + 1) == 0)) for k in range(n * n)]]

    monkeypatch.setattr(linalg, "nullspace", with_the_identity)
    with pytest.raises(InternalCheckError):
        slcontact.h_algebra(1)
    assert run(["h-algebra", "--p", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nullspace element violates the defining equations")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["all", "--p", "1", "--samples", "2"],
    ["all", "--p", "2", "--samples", "2"],
    ["verify-contact", "--p", "1"],
    ["reeb", "--p", "1"],
    ["structural", "--p", "1"],
    ["invariance", "--p", "1", "--samples", "2"],
    ["u-decomp", "--p", "1"],
])
def test_one_frame_per_run(argv, monkeypatch, capsys):
    calls = []
    real = slcontact.build_frame

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(cli, "build_frame", counting)
    monkeypatch.setattr(slcontact, "build_frame", counting)
    assert run(argv) == 0
    assert calls == [int(argv[2])]


def test_all_runs_the_registry_in_order(tmp_path, capsys):
    out = tmp_path / "all.json"
    assert run(["all", "--p", "1", "--samples", "2", "--json", str(out)]) == 0
    suites = [r["suite"] for r in json.loads(out.read_text())["reports"]]
    assert suites == [name for name, suite in SUITES.items() for _ in suite.in_all]
    assert suites == ["verify-contact", "reeb", "structural", "invariance", "h-algebra",
                      "u-decomp", "so3-check", "scan", "scan"]


def test_readme_lists_the_registry():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for name, suite in SUITES.items():
        if suite.p is None:
            valid_p = "-"
        else:
            valid_p = ", ".join(map(str, suite.p)) if suite.p else "any p >= 1"
        samples = next((kw["default"] for flags, kw in suite.args if flags == ("--samples",)), None)
        samples_text = f"`--samples` >= 1 (default {samples})" if samples else "-"
        assert f"| `{name}` | {valid_p} | {samples_text} |" in readme
