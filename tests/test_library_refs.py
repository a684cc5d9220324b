"""Every function and class of the library has a caller outside tests, and
every optional parameter a caller outside tests that passes it.

A top-level definition in a module of src/kinedeep/ (the package's
__init__.py only re-exports) counts as used when library code outside its
own body, or the benchmark harness in perfbench/, names it as a bare name
or as an attribute. A defaulted or keyword-only parameter counts as used
when a call in src/kinedeep/ or perfbench/ to a function of its name passes
it, by keyword or by position; so does a defaulted field of a dataclass,
passed to its class. Code that only tests call is dead weight.
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


def calls_by_name(trees):
    """Each called name (a bare name or an attribute) -> list of (number of
    positional arguments, keyword names); a starred argument passes every
    position, a ** argument every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), keywords))
    return calls


def optional_parameters(tree):
    """(called name, parameter, its position in a call) for every defaulted
    or keyword-only parameter; a method's self is not a call's argument, and
    __init__ is called through its class name."""
    found = []
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef)
    for scope in (s for s in ast.walk(tree) if isinstance(s, scopes)):
        for node in scope.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            method = isinstance(scope, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            name = scope.name if method and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first_default = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional):
                if i >= first_default:
                    found.append((name, arg.arg, i - method))
            found += [(name, arg.arg, None) for arg in node.args.kwonlyargs]
    return found


def dataclass_fields(tree):
    """(class name, field, its position in a call) for every defaulted
    field of a dataclass."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            continue
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
        found += [(node.name, s.target.id, i)
                  for i, s in enumerate(fields) if s.value is not None]
    return found


def test_every_optional_parameter_is_passed_by_a_non_test_caller():
    # a defaulted or keyword-only parameter that only tests set is a knob
    # the program never turns
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "kinedeep").glob("*.py"))}
    calls = calls_by_name(list(trees.values()) + [
        ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")])
    unpassed = [
        f"{module}.{name}({param})"
        for module, tree in trees.items()
        for name, param, position in optional_parameters(tree) + dataclass_fields(tree)
        if not any(param in keywords or (position is not None and position < n)
                   for n, keywords in calls.get(name, []))]
    assert unpassed == []
