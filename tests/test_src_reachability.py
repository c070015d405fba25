"""Every public function, method and class under src/contactforge has a caller there."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "contactforge"

# Public names kept without a caller under src/, each with the reason.
ALLOWED = {
    "class_at_point",  # called by tests/test_acceptance.py
    "grid_points",  # called by tests/test_acceptance.py
    "singular_scan",  # called by tests/test_acceptance.py
}


def _definitions_and_references():
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_public_definition_is_referenced_under_src():
    defined, referenced = _definitions_and_references()
    public = {name: where for name, where in defined.items() if not name.startswith("_")}
    unreached = {name: where for name, where in public.items()
                 if name not in referenced and name not in ALLOWED}
    assert unreached == {}


def test_the_allow_list_names_only_unreferenced_definitions():
    defined, referenced = _definitions_and_references()
    assert ALLOWED <= set(defined)
    assert not ALLOWED & referenced
