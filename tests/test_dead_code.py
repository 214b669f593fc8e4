"""Every top-level function and class of `src/charnmt`, and every method
other than the dunder ones, is referenced somewhere in the program: in
`src/`, `scripts/` or `perfbench/`. Code that only tests call belongs in the
test suite (the composite oracles and test-only primitives live in
`tests/conftest.py`). Every field of the model's dataclasses is read by
name somewhere in the program: a field that is only carried along (say, by
a loop over `dataclasses.fields`) is state nothing uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
MODEL = ROOT / "src" / "charnmt" / "model.py"


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


def dataclass_fields(path):
    """(Class.field, field) of every annotated field of every dataclass
    defined at the top level of `path`."""
    for node in _parse(path).body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def program_trees():
    for directory in PROGRAM_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            yield _parse(path)


def read_attributes():
    """Every attribute name the program's code reads (`x.name` in a load)."""
    return {node.attr for tree in program_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def referenced_names():
    """Every name, attribute and imported name used in the program's code."""
    names = set()
    for tree in program_trees():
        for node in ast.walk(tree):
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
    fields = dict(dataclass_fields(MODEL))
    assert fields["BiScaleState.h1"] == "h1" and fields["ModelConfig.precision"] == "precision"
    assert "ModelConfig.query_width" not in fields
    assert {"annotations", "precision", "h2"} <= read_attributes()


def test_every_model_dataclass_field_is_read_in_the_program():
    read = read_attributes()
    unread = [qualified for qualified, name in dataclass_fields(MODEL) if name not in read]
    assert unread == []
