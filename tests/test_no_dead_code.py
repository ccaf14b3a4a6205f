"""Code that nothing in the package reads is dead: it is kept in step with
the rest and pays for nothing. A reader is a load of the name, or of an
attribute by that name, anywhere in the package outside the definition
itself. Every private module-level name and private dataclass field needs
one, and so does every public function, class, method and module-level
assigned name, unless ALLOWED names it. Every function and lambda
parameter other than self, cls and a name starting with "_" is read in
its own body, unless ALLOWED_UNREAD_PARAMETERS names it. Every name a
module imports, other than `from __future__ import annotations`, is loaded
in that module. Every defaulted parameter of a package function is passed,
by keyword or by position, by a call of that function's name somewhere in
the package, unless ALLOWED_DEFAULTS names it.

The scan goes by name alone, so a method that shares its name with a
method of a builtin type (add, update, get, ...) counts as read wherever
a set or dict calls that method; an unread one of those goes unnoticed."""

import ast
from collections import Counter
from pathlib import Path

import neuromap

MODULES = sorted(Path(neuromap.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}

# public definitions with no reader in the package, and why each stays
ALLOWED = {
    # writers that the snapshot directories are to call (ROADMAP item 7)
    "partition.save_mapping", "simcost.save_hw_config",
    "workload.save_network", "workload.save_trace",
    # perfbench counts each report's charges with len(report.cost_log)
    "simcost.CostReport.cost_log",
    # RUNNERS by name: perfbench calls and times optimize.run_nsga2, and
    # the tests call all three
    "optimize.run_ga", "optimize.run_nsga2", "optimize.run_pso",
    # perfbench/rep.py calls and times it; no gene changes the model now,
    # so it returns the model it is given (ROADMAP item 5 deletes it)
    "optimize.decode_model",
}

# parameters no body reads, and why each stays
ALLOWED_UNREAD_PARAMETERS = {
    # perfbench/rep.py passes decode's arguments by position
    "optimize.decode.model",
    # perfbench/rep.py calls decode_model(genome, model, space)
    "optimize.decode_model.genome", "optimize.decode_model.space",
}

# defaulted parameters no call in the package passes, and why each stays
ALLOWED_DEFAULTS = {
    # the console-script entry reads sys.argv
    "cli.main.argv",
    # acceptance #8's frozen knee uses the uncentred score
    "fidelity.xcorr_score.mean_center",
    # callers reach run_search through the RUNNERS partials, which the scan
    # does not follow
    "optimize.run_search.workers", "optimize.run_search.on_generation",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(node) -> Counter:
    """How often each name is loaded, as a name or an attribute, in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


READS = sum((_reads(tree) for tree in TREES.values()), Counter())


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


def _private_definitions(trees=TREES):
    """("<module>.<name>", node) of each private module-level name and each
    private dataclass field, as "<module>.<class>.<field>"."""
    for module, tree in trees.items():
        for node in tree.body:
            yield from ((f"{module}.{name}", node) for name in _bound_names(node)
                        if _private(name))
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                yield from ((f"{module}.{node.name}.{item.target.id}", item)
                            for item in node.body if isinstance(item, ast.AnnAssign)
                            and _private(item.target.id))


def _public_definitions():
    """("<module>.<name>", node) of each public module-level function,
    class and assigned name, and of each public method, as
    "<module>.<class>.<method>"."""
    for module, tree in TREES.items():
        for node in tree.body:
            yield from ((f"{module}.{name}", node) for name in _bound_names(node)
                        if not name.startswith("_"))
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{item.name}", item)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _unread(definitions) -> list[str]:
    """The qualified names whose every read lies in their own definition."""
    return [qualname for qualname, node in definitions
            if READS[name := qualname.rsplit(".", 1)[-1]] == _reads(node)[name]]


def _parameters(node, scope: str):
    """("<scope>.<function>.<parameter>", function) of each parameter of
    each function and lambda under node; a lambda's name is <lambda>."""
    for child in ast.iter_child_nodes(node):
        name = scope
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            name = f"{scope}.{getattr(child, 'name', '<lambda>')}"
            a = child.args
            yield from ((f"{name}.{arg.arg}", child) for arg in
                        [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                        if arg is not None and arg.arg not in ("self", "cls")
                        and not arg.arg.startswith("_"))
        elif isinstance(child, ast.ClassDef):
            name = f"{scope}.{child.name}"
        yield from _parameters(child, name)


def _unread_parameters(trees=TREES) -> list[str]:
    """The qualified parameters that no name in their function's body loads."""
    unread = []
    for module, tree in trees.items():
        for qualname, function in _parameters(tree, module):
            body = function.body if isinstance(function.body, list) else [function.body]
            name = qualname.rsplit(".", 1)[-1]
            if not any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                       and n.id == name for stmt in body for n in ast.walk(stmt)):
                unread.append(qualname)
    return unread


def _defaulted_parameters(node, scope: str, in_class: bool = False):
    """("<scope>.<function>.<parameter>", function name, position) of each
    defaulted parameter of each function under node. position is the
    parameter's index among a call's positional arguments, a method's self
    or cls not counted, and None for a keyword-only parameter."""
    for child in ast.iter_child_nodes(node):
        name = scope
        if isinstance(child, ast.FunctionDef):
            name = f"{scope}.{child.name}"
            a = child.args
            positional = [*a.posonlyargs, *a.args]
            if in_class and positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(a.defaults)
            yield from ((f"{name}.{arg.arg}", child.name, i)
                        for i, arg in enumerate(positional) if i >= first)
            yield from ((f"{name}.{arg.arg}", child.name, None)
                        for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                        if default is not None)
        elif isinstance(child, ast.ClassDef):
            name = f"{scope}.{child.name}"
        yield from _defaulted_parameters(child, name, isinstance(child, ast.ClassDef))


def _passes(call: ast.Call, parameter: str, position) -> bool:
    """Whether call passes the parameter, by keyword, by position, or
    through a *args or **kwargs that may hold it."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def _unpassed_defaults(trees=TREES) -> list[str]:
    """The qualified defaulted parameters that no call of their function's
    name, as a name or an attribute, passes."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(name, []).append(n)
    return [qualname for module, tree in trees.items()
            for qualname, function, position in _defaulted_parameters(tree, module)
            if not any(_passes(call, qualname.rsplit(".", 1)[-1], position)
                       for call in calls.get(function, ()))]


def _unread_imports(trees=TREES) -> list[str]:
    """"<module>.<name>" of each name a module imports and never loads."""
    unread = []
    for module, tree in trees.items():
        loads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{module}.{name}" for alias in node.names
                           if (name := (alias.asname or alias.name).split(".")[0])
                           not in loads]
    return unread


def test_the_scan_finds_private_names_and_fields():
    found = [qualname for qualname, _ in _private_definitions()]
    assert "analytics._fmt" in found
    tree = ast.parse("@dataclass(frozen=True)\nclass Run:\n"
                     "    name: str\n    _flag: bool = False\n")
    assert [q for q, _ in _private_definitions({"m": tree})] == ["m.Run._flag"]


def test_every_private_name_and_field_has_a_reader():
    assert _unread(_private_definitions()) == []


def test_the_scan_finds_public_functions_classes_and_methods():
    found = [qualname for qualname, _ in _public_definitions()]
    assert {"optimize.decode", "optimize.ParetoArchive", "optimize.RUNNERS",
            "optimize.ParetoArchive.update", "simcost.CostReport.cost_log"} <= set(found)
    assert not [q for q in found if q.rsplit(".", 1)[-1].startswith("_")]


def test_every_public_function_class_and_method_has_a_reader():
    assert sorted(set(_unread(_public_definitions())) - ALLOWED) == []


def test_every_allowed_name_is_an_unread_public_definition():
    assert sorted(ALLOWED - set(_unread(_public_definitions()))) == []


def test_the_parameter_scan_finds_unread_parameters():
    tree = ast.parse(
        "def f(a, b, *args, c, _d, **kw):\n    return a + args[0] + kw['x']\n"
        "class K:\n    def m(self, e, f=lambda g, h: g):\n        return self.f(e)\n")
    assert _unread_parameters({"m": tree}) == ["m.f.b", "m.f.c", "m.K.m.f",
                                               "m.K.m.<lambda>.h"]


def test_every_parameter_is_read():
    assert sorted(set(_unread_parameters()) - ALLOWED_UNREAD_PARAMETERS) == []


def test_every_allowed_parameter_is_unread():
    assert sorted(ALLOWED_UNREAD_PARAMETERS - set(_unread_parameters())) == []


def test_the_import_scan_finds_unread_imports():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport csv as c\n"
        "from math import inf, pi\n\ndef f():\n    from json import dumps\n"
        "    return os.sep, inf\n")
    assert _unread_imports({"m": tree}) == ["m.c", "m.pi", "m.dumps"]


def test_every_imported_name_is_read():
    assert _unread_imports() == []


def test_the_default_scan_finds_unpassed_defaults():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    return a\n"
        "class K:\n    def m(self, e=0, g=1):\n        return f(1, 2, c=3)\n"
        "def h(x=0, y=1):\n    pass\n"
        "def k(z=0):\n    pass\n"
        "K().m(5)\nh(*xs)\nk(**opts)\n")
    assert _unpassed_defaults({"m": tree}) == ["m.f.d", "m.K.m.g"]


def test_every_default_is_passed():
    assert sorted(set(_unpassed_defaults()) - ALLOWED_DEFAULTS) == []


def test_every_allowed_default_is_unpassed():
    assert sorted(ALLOWED_DEFAULTS - set(_unpassed_defaults())) == []
