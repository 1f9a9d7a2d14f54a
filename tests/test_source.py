import ast
from collections import Counter
from pathlib import Path

import grasscode

SOURCES = sorted(Path(grasscode.__file__).parent.glob("*.py"))

# functions that may have no caller in the library, each with its reason
UNREFERENCED_ALLOWED = {
    "cli.main": "the console-script entry point, called from outside the package",
    "field.GF.mul": "the scalar product: the tests check mul_arr and the tables against it",
}


def test_library_has_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _definitions(tree, prefix):
    """(dotted name, node) of every function and method under tree, nested ones included."""
    stack = [(prefix, tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    yield prefix + child.name, child
                stack.append((prefix + child.name + ".", child))
            else:
                stack.append((prefix, child))


def _names(node) -> Counter:
    """Every ast.Name id and ast.Attribute attr under node."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_library_function_has_a_library_reference():
    # code that only the tests call belongs in tests/conftest.py; a reference is
    # any Name or Attribute spelled like the function, outside its own body
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    unreferenced = [
        dotted
        for module, tree in trees.items()
        for dotted, node in _definitions(tree, module + ".")
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == _names(node)[node.name]
        and dotted not in UNREFERENCED_ALLOWED
    ]
    assert unreferenced == []
