"""The README names the package's modules, classes, functions and fields
in backticks and imports from the package in its code blocks; every such
name must exist, so a rename or deletion cannot leave a stale one."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import neuromap

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = {m.name: importlib.import_module(f"neuromap.{m.name}")
           for m in pkgutil.iter_modules(neuromap.__path__)}
CLASSES = {name: obj for mod in MODULES.values()
           for name, obj in vars(mod).items()
           if inspect.isclass(obj) and obj.__module__ == mod.__name__
           and not name.startswith("_")}
FILE_SUFFIXES = {"py", "prm", "net", "csv", "md", "txt", "toml"}


def _attribute(obj, name: str):
    """obj.name, or the dataclass field name of obj (a field without a
    default is no class attribute); AttributeError otherwise."""
    if dataclasses.is_dataclass(obj) and not hasattr(obj, name):
        return {f.name: f for f in dataclasses.fields(obj)}[name]
    return getattr(obj, name)


def dotted_names() -> list[str]:
    """Every dotted name inside a backticked span of the README that starts
    with a neuromap module or public class, file names left out."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    found = [m for span in spans
             for m in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)]
    names = [n.removeprefix("neuromap.") for n in found]
    return sorted({n for n in names
                   if n.split(".")[0] in MODULES.keys() | CLASSES.keys()
                   and n.split(".")[-1] not in FILE_SUFFIXES})


def test_readme_dotted_names_resolve():
    names = dotted_names()
    assert "optimize.MENU_GENES" in names and "Mapping.check_budget" in names
    stale = []
    for name in names:
        head, *rest = name.split(".")
        obj = MODULES.get(head) or CLASSES[head]
        try:
            for part in rest:
                obj = _attribute(obj, part)
        except (AttributeError, KeyError):
            stale.append(name)
    assert stale == []


def test_readme_code_blocks_import_names_that_exist():
    blocks = "\n".join(re.findall(r"```\w*\n(.*?)```", README, re.S))
    imports = re.findall(r"from\s+(neuromap[\w.]*)\s+import\s+(\([^)]*\)|[\w ,]+)",
                         blocks)
    assert imports
    missing = [f"{module}.{name}" for module, names in imports
               for name in re.findall(r"\w+", names.strip("()"))
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
