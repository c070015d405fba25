"""The library reads no environment: under src/contactforge only cli.py
imports os, so a run depends on its argv, and the CLI turns each variable it
honours into an option default."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "contactforge"


def _environment_reads(tree: ast.AST) -> list[int]:
    """Lines that import os (or a name from it) or use os.environ / os.getenv."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "os" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
    return lines


def test_only_the_cli_reads_the_environment():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name != "cli.py"
             and (lines := _environment_reads(ast.parse(path.read_text(), str(path))))}
    assert found == {}


def test_the_scan_sees_each_kind_of_read():
    for source in ("import os", "import os.path", "from os import environ",
                   "from os.path import join", "x = os.environ['A']", "os.getenv('A')"):
        assert _environment_reads(ast.parse(source)), source
    assert not _environment_reads(ast.parse("import osmium\nenviron = {}"))
    assert _environment_reads(ast.parse((SRC / "cli.py").read_text()))
