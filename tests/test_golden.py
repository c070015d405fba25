"""Byte-identical reports: `all --p P` at the default samples and seed.

The sha256s are the golden report hashes recorded in ROADMAP.md; only a
deliberate `__version__` bump may change them.
"""

import hashlib

import pytest

from contactforge import cli

GOLDEN_SHA256 = {
    1: "4bd2b7feb0f13d1c3b45981996261d8351d74fbad6d7a23be86377480e44fbfc",
    2: "66cf2e306b81d6f27bbe55bc59def10107bd5b07ac18d1cfc9d8329185c324c8",
}


@pytest.mark.parametrize("p", [1, 2])
def test_all_report_matches_golden_sha256(p, tmp_path, capsys):
    path = tmp_path / f"all_p{p}.json"
    code = cli.main(["all", "--p", str(p), "--samples", "20", "--seed", "0", "--json", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[p]
