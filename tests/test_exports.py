"""Every name a proctherm module exports in ``__all__`` exists, and is used
somewhere beyond its own unit tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import proctherm

MODULES = sorted(m.name for m in pkgutil.iter_modules(proctherm.__path__, "proctherm."))
ROOT = Path(__file__).resolve().parent.parent


def test_every_module_found():
    assert "proctherm.simulate" in MODULES and "proctherm.verify" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _definitions(source: str) -> dict[str, tuple[int, int]]:
    """First and last line (0-based, end exclusive) of each top-level
    function, class or assignment in ``source``, decorators included."""
    spans = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        spans.update((name, (first - 1, node.end_lineno)) for name in defined)
    return spans


def _candidates(module: str) -> list[Path]:
    """The files that may use an export of ``module``: every module of the
    package but ``__init__``, ``perfbench``, the README, and every test
    file but the module's own."""
    short = module.rsplit(".", 1)[1]
    paths = [p for p in sorted((ROOT / "src" / "proctherm").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "README.md")
    return paths + [p for p in sorted((ROOT / "tests").glob("*.py"))
                    if p.name != f"test_{short}.py"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_user_beyond_its_own_tests(name):
    # the keep rule: an export whose only callers are its own unit tests
    # is deleted, and its tests move onto the path that survives; in its
    # own module, neither its definition nor its __all__ entry counts
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    texts = {p.resolve(): p.read_text(encoding="utf-8") for p in _candidates(name)}
    own_lines = texts.pop(own).splitlines()
    spans = _definitions("\n".join(own_lines))
    unused = []
    for export in getattr(module, "__all__", ()):
        word = re.compile(rf"\b{re.escape(export)}\b")
        skipped = [range(*spans[n]) for n in (export, "__all__") if n in spans]
        own_text = "\n".join(line for i, line in enumerate(own_lines)
                              if not any(i in r for r in skipped))
        if not any(word.search(text) for text in (own_text, *texts.values())):
            unused.append(f"{name.rsplit('.', 1)[1]}.{export}")
    assert not unused, f"exports used only by their own definition and tests: {unused}"
