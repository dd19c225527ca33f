import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "srlb"


def imported_names(tree):
    """The names that the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def bound_names(tree):
    """The names that the module binds: imports, definitions and assignments."""
    yield from imported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_submodules_are_the_one_way_in():
    # The package re-exports nothing and no module declares __all__, so each
    # name of the library is imported from the one submodule that defines it.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert sorted(set(bound_names(trees["__init__.py"]))) == ["__version__"]
    assert [name for name, tree in trees.items() if "__all__" in bound_names(tree)] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    # An import left behind by a deleted helper shows up here.
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def names_in(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def is_budget(name):
    return "BUDGET" in name and not name.startswith("EXIT_")  # an exit status, not an amount


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_one_owner_of_the_resource_budget(path):
    # exact.charge alone raises InstanceTooLarge and reads the budget
    # constants, which exact alone defines; every other module charges.
    tree = ast.parse(path.read_text())
    raised = [name for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
              for name in names_in(node.exc) if name == "InstanceTooLarge"]
    defined = [target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name) and is_budget(target.id)]
    charge = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "charge" and path.name == "exact.py"]
    read_outside_charge = [
        name for node in tree.body if node not in charge and not isinstance(node, ast.Assign)
        for name in names_in(node) if is_budget(name)
    ]
    if path.name == "exact.py":
        assert (len(raised), defined) == (1, ["MEMORY_BUDGET", "WORK_BUDGET"])
        assert sorted(set(names_in(charge[0])) & set(defined)) == defined
    else:
        assert (raised, defined) == ([], [])
    assert read_outside_charge == []



def scopes(tree):
    """(name, node) for each top-level statement: a function by its name, a
    method as Class.method, anything else as "<module>"."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


def callee(func):
    """The name that a call expression calls: f for f(...), attr for x.attr(...)."""
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_one_row_converter():
    # Points and hyperplanes enter the library as an int64 table and a
    # HyperplaneFamily.  int64_rows converts outside rows in two places only,
    # the json route and a query's rows when it is made, and no alternate
    # constructor, such as a HyperplaneFamily.of, turns objects into columns.
    converters, alternates = set(), []
    for path in sorted(SRC.glob("*.py")):
        for scope, node in scopes(ast.parse(path.read_text())):
            funcs = [child.func for child in ast.walk(node) if isinstance(child, ast.Call)]
            if "int64_rows" in map(callee, funcs):
                converters.add((path.name, scope))
            alternates += [ast.unparse(func) for func in funcs if isinstance(func, ast.Attribute)
                           and ast.unparse(func.value) == "HyperplaneFamily"]
            alternates += [f"{scope} is a {name}" for name in map(ast.unparse, getattr(
                node, "decorator_list", [])) if name in ("classmethod", "staticmethod")]
    assert converters == {("io.py", "instance_from_dict"),
                          ("reporting.py", "SimplexQuery.__post_init__")}
    assert alternates == []


def annotation_nodes(tree):
    """The ids of every node inside an annotation: of an argument, a
    variable or a return."""
    roots = [node.annotation for node in ast.walk(tree)
             if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    roots += [node.returns for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.returns]
    return {id(child) for root in roots for child in ast.walk(root)}


def test_the_family_owns_its_rules():
    # Hyperplane is a plain (a, b) value: outside annotations only the
    # family's two accessors and hyperplane_at build one, and only the
    # family's constructor checks coefficients, for every row it admits.
    users, checkers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        annotations = annotation_nodes(tree)
        for scope, node in scopes(tree):
            for child in ast.walk(node):
                if (isinstance(child, ast.Name) and child.id == "Hyperplane"
                        and id(child) not in annotations):
                    users.add((path.name, scope))
                if isinstance(child, ast.Raise) and "coefficients must be" in ast.unparse(child):
                    checkers.add((path.name, scope))
    assert users == {("geometry.py", "HyperplaneFamily.__getitem__"),
                     ("geometry.py", "HyperplaneFamily.__iter__"),
                     ("geometry.py", "hyperplane_at")}
    assert checkers == {("geometry.py", "HyperplaneFamily.__init__")}
