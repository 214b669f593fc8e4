"""Every top-level function and class of `src/charnmt`, and every method
other than the dunder ones, is referenced somewhere in the program: in
`src/`, `scripts/` or `perfbench/`. Code that only tests call belongs in the
test suite (the composite oracles and test-only primitives live in
`tests/conftest.py`)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions():
    """(qualified name, bare name) of every definition the rule covers."""
    for path in sorted((ROOT / "src" / "charnmt").glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (*FUNCTION, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTION) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def referenced_names():
    """Every name, attribute and imported name used in the program's code."""
    names = set()
    for directory in PROGRAM_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_has_a_caller_in_the_program():
    used = referenced_names()
    unused = [qualified for qualified, name in definitions() if name not in used]
    assert unused == []


def test_the_rule_sees_definitions_and_references():
    found = dict(definitions())
    assert found["model.label_log_probs"] == "label_log_probs"
    assert found["numerics.ParameterStore.items"] == "items"
    assert "numerics.ParameterStore.__init__" not in found
    used = referenced_names()
    assert {"label_log_probs", "items", "Tensor"} <= used
