"""The known-answer oracle accepts true outputs and rejects tampered ones."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
from contactforge import cli, exterior, polyring  # noqa: E402
from contactforge.exterior import Form  # noqa: E402
from contactforge.polyring import Poly  # noqa: E402


def _cli(tmp_path, argv):
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--json", str(path)])
    return code, path.read_bytes()


def _failed(run) -> list[str]:
    checks = oracle.Checks()
    with checks.step("check"):
        run(checks)
    return [name for name, _, _ in checks.failed]


def test_audit_report_golden_hash_and_a_flipped_byte(tmp_path):
    code, data = _cli(tmp_path, ["all", "--p", "1", "--samples", "20", "--seed", "0"])
    assert _failed(lambda c: oracle.check_audit_report(c, 1, 0, code, data)) == []
    # flip one digit inside the report: still valid JSON, different bytes
    pos = data.index(b'"p": 1') + 5
    tampered = data[:pos] + b"2" + data[pos + 1:]
    json.loads(tampered)
    failed = _failed(lambda c: oracle.check_audit_report(c, 1, 0, code, tampered))
    assert failed == ["all --p 1: golden report sha256"]


def test_class_report_rejects_a_wrong_class(tmp_path):
    form = "--form=" + ",".join(["1", "1", "1"] + ["0"] * 12)
    code, data = _cli(tmp_path, ["cartan-class", "--algebra", "sl", "--n", "4", form])
    assert _failed(lambda c: oracle.check_class_report(c, "sl4", code, data, 13, 7)) == []
    report = json.loads(data)
    for claim in report["claims"]:
        if claim["anchor"].startswith("class of"):
            claim["computed"] = 9
    tampered = json.dumps(report).encode()
    assert _failed(lambda c: oracle.check_class_report(c, "sl4", code, tampered, 13, 7)) == [
        "sl4: audited class 7"
    ]


def _d_omega_p3() -> Form:
    pairs = {((i, 2 * j - 1), (i, 2 * j)): Poly.const(6, -2)
             for i in range(1, 7) for j in range(1, 4)}
    return Form(6, 2, pairs)


def test_dw_power_closed_form_and_a_wrong_coefficient():
    dw = _d_omega_p3()
    square = exterior.wedge(dw, dw)
    assert _failed(lambda c: oracle.check_dw_power(c, 2, square)) == []
    terms = dict(square.terms)
    gens = next(iter(terms))
    terms[gens] = Poly.const(6, 9)
    wrong = Form(6, 4, terms)
    assert _failed(lambda c: oracle.check_dw_power(c, 2, wrong)) == [
        "(d omega)^2: every coefficient (-2)^2 2! = 8"
    ]
    del terms[gens]
    assert _failed(lambda c: oracle.check_dw_power(c, 2, Form(6, 4, terms))) == [
        "(d omega)^2: C(18,2) = 153 terms"
    ]


def test_leibniz_minor_matches_the_cofactor_determinant():
    mat = polyring.symbolic_matrix(5)
    rows, cols = [1, 3, 4], [2, 4, 5]
    sub = [[mat[r - 1][c - 1] for c in cols] for r in rows]
    assert oracle.leibniz_minor(rows, cols) == polyring.determinant(sub).terms
