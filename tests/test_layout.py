"""Module boundaries of the package: no module reaches into another
module's private names, everything the package exports exists, and every
name README lists as public is defined."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import pesbisim

SRC = Path(pesbisim.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "pesbisim"
        ):
            offending.extend(a.name for a in node.names if _private(a.name))
            if _private((node.module or "").rsplit(".", 1)[-1]):
                offending.append(node.module)
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            # another object's private attribute: only self and cls may
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                offending.append(node.attr)
    assert offending == [], f"{path.name} reaches private names {offending}"


def test_every_exported_name_resolves():
    missing = [name for name in pesbisim.__all__ if not hasattr(pesbisim, name)]
    assert missing == []
    assert len(set(pesbisim.__all__)) == len(pesbisim.__all__)


def _defined_names() -> dict[str, dict[str, str | None]]:
    """Per module stem ("pesbisim" for __init__.py) and per class, the
    names defined in it: functions, classes, methods, assigned names,
    dataclass fields, and the attributes a class's methods set on self.
    A function or method maps to its parameter list as README writes it,
    such as "(source, target)", without self; any other name to None."""
    scopes: dict[str, dict[str, str | None]] = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = "pesbisim" if path.stem == "__init__" else path.stem
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for owner, scope in [(module, tree)] + [(node.name, node) for node in classes]:
            names = scopes.setdefault(owner, {})
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                    names[node.name] = f"({', '.join(p for p in params if p != 'self')})"
                elif isinstance(node, ast.ClassDef):
                    names[node.name] = None
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(dict.fromkeys(t.id for t in targets if isinstance(t, ast.Name)))
            if scope is not tree:
                for node in ast.walk(scope):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        names.setdefault(node.attr, None)
    return scopes


def test_readme_public_names_are_defined():
    """Every dotted name in backticks in README's "What is public" list,
    such as `pomsets.iso_masks` or `EventStructure.past_masks`, names
    something defined in src/pesbisim (a module named as `oracle.py`
    must exist), so a deleted public name cannot outlive its entry.  Where
    an entry carries a parameter list, such as `Arena.describe(key)`, it is
    the defined function's, without self, so a changed signature cannot
    outlive its entry either."""
    section = README.read_text(encoding="utf-8").split("What is public:\n\n", 1)[1]
    section = section.split("\n\n", 1)[0]
    entries = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(\([^`]*\))?`", section)
    assert len(entries) >= 20
    scopes = _defined_names()
    undefined = [
        name
        for name, _ in entries
        if not (
            (SRC / name).is_file()
            if name.endswith(".py")
            else name.rsplit(".", 1)[1] in scopes.get(name.rsplit(".", 2)[-2], ())
        )
    ]
    assert undefined == []
    stated = [(name, " ".join(params.split())) for name, params in entries if params]
    assert len(stated) >= 5
    wrong = [
        name + params
        for name, params in stated
        if scopes[name.rsplit(".", 2)[-2]][name.rsplit(".", 1)[1]] != params
    ]
    assert wrong == []


# Names in src/ that only perfbench's tracer reads, with how it reads them.
TRACER_NAMES = {
    ("oracle.py", "enumerate_matchings"): "an import, wrapped by name in oracle",
    ("games.py", "positions"): "Arena.positions, an alias of keys",
    ("games.py", "moves"): "Arena.moves, an alias of succ by position id",
    ("games.py", "demoted"): "GameVerdict.demoted, an alias of demoted_ids",
}


def test_tracer_still_reads_the_names_kept_for_it():
    """Each name of TRACER_NAMES is read in perfbench/tracing.py, as an
    attribute or passed by name, so once the tracer stops reading one this
    fails until the name and its entry are deleted."""
    source = (PERFBENCH / "tracing.py").read_text(encoding="utf-8")
    unread = [key for key in TRACER_NAMES if not re.search(rf'\.{key[1]}\b|"{key[1]}",', source)]
    assert unread == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used if (path.name, name) not in TRACER_NAMES}
    assert unused == set(), f"{path.name} imports {sorted(unused)} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    """A private function or class is read in its own module, outside its
    own body; one that nothing calls is a merged-away helper left behind."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and _private(node.name)
    ]
    unused = []
    for node in defs:
        inside = {id(n) for n in ast.walk(node)}
        used = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in inside
        }
        if node.name not in used:
            unused.append(node.name)
    assert unused == [], f"{path.name} defines {unused} without using them"
