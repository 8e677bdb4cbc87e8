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
