"""Every public function, method and class under src/contactforge, and every
private module-level function and class there, has a caller there, and every
public dataclass field there is read somewhere."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "contactforge"
TESTS = ROOT / "tests"

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


def test_every_private_module_level_definition_is_referenced_under_src():
    _, referenced = _definitions_and_references()
    private = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    private.setdefault(name, []).append(f"{path.name}:{node.lineno}")
    assert private  # the scan sees the module-level helpers
    unreached = {name: where for name, where in private.items() if name not in referenced}
    assert unreached == {}


def test_the_allow_list_names_only_unreferenced_definitions():
    defined, referenced = _definitions_and_references()
    assert ALLOWED <= set(defined)
    assert not ALLOWED & referenced


# Public field names defined in more than one dataclass: the field check below
# cannot tell their owners apart, so each owner names a file and a line of it
# that reads its field.
SHARED_FIELDS = {
    "dim": {
        "LieAlg": ("src/contactforge/liealg.py", "upper = g.dim - rank_hint + 1"),
        "FormFn": ("src/contactforge/numeric.py", "if len(point) != f.dim:"),
    },
    "top_coefficient": {
        "InducedFormReport": ("tests/test_orthogroup.py", "result.top_coefficient.evaluate"),
        "ContactReport": ("tests/test_slcontact.py", "result.top_coefficient == frame_p1.delta"),
    },
    "report": {
        "InducedFormReport": ("src/contactforge/cli.py", "so3_contact_check(a.samples, a.seed).report"),
        "ContactReport": ("src/contactforge/cli.py", "verify_contact_identity(a.p, frame()).report"),
        "ReebResult": ("src/contactforge/cli.py", "reeb_field(a.p, frame()).report"),
        "SubalgebraResult": ("src/contactforge/cli.py", "h_algebra(a.p).report"),
    },
}


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _dataclass_fields():
    """(class, field, "file:line") for every public field of a dataclass under src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and not stmt.target.id.startswith("_"):
                        yield node.name, stmt.target.id, f"{path.name}:{stmt.lineno}"


def test_every_field_name_shared_by_dataclasses_is_listed_with_its_reads():
    owners: dict[str, set[str]] = {}
    for cls, name, _ in _dataclass_fields():
        owners.setdefault(name, set()).add(cls)
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert shared == {name: set(reads) for name, reads in SHARED_FIELDS.items()}
    for name, reads in SHARED_FIELDS.items():
        for path, line in reads.values():
            assert f".{name}" in line and line in (ROOT / path).read_text()


def test_every_public_dataclass_field_is_read_in_src_or_tests():
    """Fields are matched by bare name, not by owning class: a field counts as
    read when any `x.<name>` load exists, whatever x is. A name defined in
    more than one dataclass is therefore listed in SHARED_FIELDS with a read
    for each owner. A load whose only use is as the receiver of `.append` or
    `.extend` writes the field and does not count as a read."""
    fields = {f"{cls}.{name}": where for cls, name, where in _dataclass_fields()}
    nodes = [node for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))]
    grown = {id(node.value) for node in nodes
             if isinstance(node, ast.Attribute) and node.attr in ("append", "extend")}
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in grown}
    unread = {name: where for name, where in fields.items() if name.split(".")[1] not in read}
    assert unread == {}
