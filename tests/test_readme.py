"""The README's "Library use" example runs, and names the package root's exports."""

import ast
import re
from pathlib import Path

import spin7

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs_and_matches_the_exports():
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "spin7"
                for alias in node.names}
    exec(compile(block, str(README), "exec"), {})
    assert sorted(spin7.__all__) == sorted(imported)
