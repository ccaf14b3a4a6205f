"""Private code that nothing in the package reads is dead: it is kept in
step with the rest and pays for nothing. Public names are the API and are
exempt. A reader is a load of the name, or of an attribute by that name,
anywhere in the package other than its own definition."""

import ast
from pathlib import Path

import neuromap

MODULES = sorted(Path(neuromap.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _read_names() -> set[str]:
    names = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _bound_names(node) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(dec).startswith("dataclass") for dec in node.decorator_list)


def _private_definitions() -> list[str]:
    """"<module>.<name>" of each private module-level name and each private
    dataclass field, as "<module>.<class>.<field>"."""
    out = []
    for module, tree in TREES.items():
        for node in tree.body:
            out += [f"{module}.{name}" for name in _bound_names(node)
                    if _private(name)]
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out += [f"{module}.{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and _private(item.target.id)]
    return out


def test_the_scan_finds_private_names_and_fields():
    found = _private_definitions()
    assert "analytics._fmt" in found
    assert "analytics.ExperimentRecord._opt_headers_written" in found


def test_every_private_name_and_field_has_a_reader():
    read = _read_names()
    unread = [d for d in _private_definitions() if d.rsplit(".", 1)[-1] not in read]
    assert unread == []
