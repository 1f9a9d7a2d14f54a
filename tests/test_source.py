import ast
from collections import Counter
from pathlib import Path

import grasscode

SOURCES = sorted(Path(grasscode.__file__).parent.glob("*.py"))

# functions that may have no caller in the library, each with its reason
UNREFERENCED_ALLOWED = {
    "cli.main": "the console-script entry point, called from outside the package",
    "field.GF.mul": "the scalar product: the tests check mul_arr and the tables against it",
    "field.GF.sub": "the scalar difference: the tests check sub_arr against it",
}


def test_library_has_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


ANY_REFERENCE = (ast.Name, ast.Attribute)
# a method is reached only as x.name: a local variable spelled like it is no reference
METHOD_REFERENCE = (ast.Attribute,)


def _definitions(tree, prefix):
    """(dotted name, node, reference kinds) of every function and method under tree, nested ones included."""
    stack = [(prefix, tree, ANY_REFERENCE)]
    while stack:
        prefix, node, kinds = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child, kinds
                stack.append((prefix + child.name + ".", child, ANY_REFERENCE))
            elif isinstance(child, ast.ClassDef):
                stack.append((prefix + child.name + ".", child, METHOD_REFERENCE))
            else:
                stack.append((prefix, child, kinds))


def _names(node, kinds) -> Counter:
    """Every ast.Name id and ast.Attribute attr under node, for the node types in kinds."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, kinds)
    )


def test_every_library_function_has_a_library_reference():
    # code that only the tests call belongs in tests/conftest.py; a reference is
    # a Name or Attribute spelled like the function (an Attribute for a method),
    # outside its own body
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    everywhere = {
        kinds: sum((_names(tree, kinds) for tree in trees.values()), Counter())
        for kinds in (ANY_REFERENCE, METHOD_REFERENCE)
    }
    unreferenced = [
        dotted
        for module, tree in trees.items()
        for dotted, node, kinds in _definitions(tree, module + ".")
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[kinds][node.name] == _names(node, kinds)[node.name]
        and dotted not in UNREFERENCED_ALLOWED
    ]
    assert unreferenced == []
