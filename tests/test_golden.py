"""Byte-identical reports: `all --p P` at the default samples and seed, and
two 2000-point torus scans that pin the float path.

The `all` sha256s are the golden report hashes recorded in ROADMAP.md; only a
deliberate `__version__` bump may change them or the scan hashes.
"""

import hashlib
import pathlib
import runpy
import sys

import pytest

import contactforge
from contactforge import cli

GOLDEN_SHA256 = {
    1: "4bd2b7feb0f13d1c3b45981996261d8351d74fbad6d7a23be86377480e44fbfc",
    2: "66cf2e306b81d6f27bbe55bc59def10107bd5b07ac18d1cfc9d8329185c324c8",
    3: "5ad24aeea604ee50f1e8e6d6f82d9390cf98f95affa8bd64ceed5e538bfbcc16",
}

SCAN_GOLDEN_SHA256 = {
    "t5-lutz": (["--form", "t5-lutz"],
                "32f888e695375612af3847f5f86d1fd6aec112ad163ca3ffcb296df72aa6acba"),
    "t3-n1-3": (["--form", "t3", "--n1", "3"],
                "c32d433393876b941b962156cd8b50de0ab6cdfa5022696591cd016c78a65cec"),
}


def test_pyproject_version_is_the_package_version():
    """The report bytes embed __version__, so a bump must move pyproject.toml with it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == contactforge.__version__


# p = 3 (about 7 s) is checked once, through the full-audit script below
@pytest.mark.parametrize("p", [1, 2])
def test_all_report_matches_golden_sha256(p, tmp_path, capsys):
    path = tmp_path / f"all_p{p}.json"
    code = cli.main(["all", "--p", str(p), "--samples", "20", "--seed", "0", "--json", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[p]


def test_run_full_audit_script_reproduces_golden_reports(tmp_path, monkeypatch, capsys):
    script = pathlib.Path(__file__).parents[1] / "scripts" / "run_full_audit.py"
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "audit_p1.json", "audit_p2.json", "audit_p3.json"]
    for p, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / f"audit_p{p}.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(SCAN_GOLDEN_SHA256))
def test_scan_report_matches_golden_sha256(name, tmp_path, capsys):
    form_args, digest = SCAN_GOLDEN_SHA256[name]
    path = tmp_path / f"scan_{name}.json"
    code = cli.main(["scan", *form_args, "--points", "2000", "--seed", "0", "--json", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
