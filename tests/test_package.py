from __future__ import annotations

import ast
import sys
from pathlib import Path

import chainrank


def test_every_exported_name_resolves():
    missing = [name for name in chainrank.__all__ if not hasattr(chainrank, name)]
    assert not missing, missing
    assert len(set(chainrank.__all__)) == len(chainrank.__all__)


def test_runtime_imports_only_the_standard_library():
    """Every import in the package names a standard-library module or the
    package itself (relative imports included)."""
    root = Path(chainrank.__file__).parent
    outside = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "chainrank":
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert not outside, outside


def _sibling_imports(module: str) -> set[str]:
    """The package modules that ``chainrank/<module>.py`` imports."""
    path = Path(chainrank.__file__).parent / f"{module}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chainrank."):
            found.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] for a in node.names if a.name.startswith("chainrank."))
    return found


def test_verifier_and_oracle_stay_apart_from_the_solvers():
    """``core_model`` (the verifier) imports no sibling module, and
    ``exact_oracle`` only ``core_model``: neither shares the solvers'
    nesting-to-edits step in ``ideal``."""
    assert _sibling_imports("core_model") == set()
    assert _sibling_imports("exact_oracle") == {"core_model"}
    assert "ideal" in _sibling_imports("dp_engine")  # the guard sees real imports


def test_no_module_reads_adjacency():
    """Bitsets are the one neighborhood form: no module of the package
    reads an ``.adjacency`` attribute."""
    root = Path(chainrank.__file__).parent
    reads = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "adjacency":
                reads.append(f"{path.name}:{node.lineno}")
    assert not reads, reads


def test_every_module_parses_as_python_3_10():
    """``pyproject.toml`` declares ``requires-python >= 3.10``: no module
    may use syntax that a 3.10 parser rejects."""
    root = Path(chainrank.__file__).parent
    for path in sorted(root.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


_EDIT_STORAGE = {
    "_additions", "_deletions", "_add_rows", "_del_rows", "_strays", "_pair_rows", "_run_rows", "_fitted_rows",
}


def _edit_storage_reads(path: Path) -> list[str]:
    """The lines of a module that name ``EditSet``'s storage (its rows,
    its strays and its derived pair sets), ``EditRowBuilder``'s rows or strays,
    ``_pair_rows`` or ``_fitted_rows``: as an attribute, a name or an
    imported name."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in _EDIT_STORAGE:
            reads.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    return reads


def test_edit_rows_stay_inside_core_model():
    """How an EditSet holds its edits, as rows and strays, is known to
    ``core_model`` alone: no other module reads its storage, the rows or
    strays of an ``EditRowBuilder``, or calls ``_pair_rows`` or
    ``_fitted_rows``. They read edits through ``rows``, ``grouped``,
    ``counts`` and the pair sets, and the parser feeds runs to
    ``EditRowBuilder.add``."""
    root = Path(chainrank.__file__).parent
    reads = [read for path in sorted(root.rglob("*.py")) if path.name != "core_model.py" for read in _edit_storage_reads(path)]
    assert not reads, reads
    assert _edit_storage_reads(root / "core_model.py")  # the guard sees real reads
