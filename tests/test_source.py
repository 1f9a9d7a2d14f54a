import ast
from pathlib import Path

import grasscode


def test_library_has_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = []
    for path in sorted(Path(grasscode.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
