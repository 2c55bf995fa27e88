"""Every name a proctherm module exports in ``__all__`` exists, and is used
by the package, the benchmark harness or the README; tests do not count."""

import ast
import functools
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import proctherm

MODULES = sorted(m.name for m in pkgutil.iter_modules(proctherm.__path__, "proctherm."))
ROOT = Path(__file__).resolve().parent.parent
# an inline code span that is an identifier: `name`, `mod.name` or `name(...)`
IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?")


def test_every_module_found():
    assert "proctherm.simulate" in MODULES and "proctherm.verify" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def code_names(source: str) -> list[tuple[str, int]]:
    """Each name token of Python ``source`` with its 0-based line; the text
    of strings and comments is not code and gives none."""
    return [(tok.string, tok.start[0] - 1)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME]


def readme_names(text: str) -> set[str]:
    """Every part of each identifier the text names in backticks."""
    spans = (IDENTIFIER.fullmatch(span) for span in re.findall(r"`([^`\n]+)`", text))
    return {part for m in spans if m for part in m.group(1).split(".")}


@functools.cache
def _names(path: Path) -> tuple[tuple[str, int], ...]:
    """The names ``path`` uses, each file read and tokenized once per session."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return tuple((n, -1) for n in readme_names(text))
    return tuple(code_names(text))


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


def _users() -> list[Path]:
    """The files whose use keeps an export: every module of the package
    but ``__init__`` (a re-export is not a use), ``perfbench`` and the
    README."""
    paths = [p for p in sorted((ROOT / "src" / "proctherm").glob("*.py"))
             if p.name != "__init__.py"]
    return paths + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]


def test_only_code_and_backticked_identifiers_count():
    source = 'mode = "process-tensor"  # tensor(a, b)\nout = gibbs_mat(h, beta)\n'
    assert [n for n, _ in code_names(source)] == ["mode", "out", "gibbs_mat", "h", "beta"]
    text = ("Modes: `process-tensor`, a tensor of states, `algebra.ptrace_factors`, "
            "`gibbs_mat(h, beta)` and `Simulator`.")
    assert readme_names(text) == {"algebra", "ptrace_factors", "gibbs_mat", "Simulator"}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_user_beyond_its_own_tests(name):
    # the keep rule: an export that only tests use is deleted, or moves
    # to the tests as an oracle; in its own module, neither its definition
    # nor its __all__ entry counts
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    others = [p for p in _users() if p.resolve() != own]
    used = {n for p in others for n, _ in _names(p)}
    spans = _definitions(own.read_text(encoding="utf-8"))
    unused = []
    for export in getattr(module, "__all__", ()):
        skipped = [range(*spans[n]) for n in (export, "__all__") if n in spans]
        if export not in used and not any(
                n == export and not any(line in r for r in skipped)
                for n, line in _names(own)):
            unused.append(f"{name.rsplit('.', 1)[1]}.{export}")
    assert not unused, f"exports no module, benchmark or README uses: {unused}"
