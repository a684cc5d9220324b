"""Every function and class of the library has a caller outside tests.

A top-level definition in a module of src/kinedeep/ (the package's
__init__.py only re-exports) counts as used when library code outside its
own body, or the benchmark harness in perfbench/, names it as a bare name
or as an attribute. Code that only tests call is dead weight.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def referenced_names(nodes):
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def test_every_library_definition_has_a_non_test_caller():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "kinedeep").glob("*.py"))
             if p.name != "__init__.py"}
    harness = referenced_names(ast.parse(p.read_text())
                               for p in (ROOT / "perfbench").glob("*.py"))
    uncalled = []
    for name, tree in trees.items():
        elsewhere = harness | referenced_names(
            t for other, t in trees.items() if other != name)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            outside = referenced_names(n for n in tree.body if n is not node)
            if node.name not in elsewhere | outside:
                uncalled.append(f"{name}.{node.name}")
    assert uncalled == []
