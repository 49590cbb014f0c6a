"""Dead code in the package: unused module-level imports, private
module-level functions or classes that nothing refers to, and class methods
that nothing in the sources, tests or benchmarks names.

No linter is a dependency of the project, so the sources are parsed with
the standard library's ``ast``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stoclim"


def parse_package():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def names_read(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def attributes_read(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_module_level_imports_are_used():
    unused = []
    for module, tree in parse_package().items():
        if module == "__init__.py":
            continue  # its imports are the package's public names
        used = names_read(tree) | exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def test_private_definitions_are_referenced():
    trees = parse_package()
    used = set().union(*(names_read(t) | attributes_read(t) for t in trees.values()))
    unreferenced = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


def test_every_parameter_is_read():
    # the (cfg, args) signature is the CLI's dispatch contract for every
    # suite, used or not; high_temperature_limit keeps omega because the
    # acceptance gate passes the frequency the limit is taken at
    allowed = {("_suite_", "cfg"), ("_suite_", "args"), ("high_temperature_limit", "omega")}
    unread = []
    for module, tree in parse_package().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            spec = node.args
            params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs, spec.vararg, spec.kwarg]
            read = set().union(*(names_read(stmt) for stmt in node.body))
            for param in params:
                if param is None or param.arg in read:
                    continue
                if any(node.name.startswith(f) and param.arg == p for f, p in allowed):
                    continue
                unread.append(f"{module}: {node.name}({param.arg})")
    assert unread == []


def test_every_class_method_is_referenced():
    # a method is dead when no source, test or benchmark names it; dunders
    # are called by the language
    root = SRC.parents[1]
    trees = [ast.parse(p.read_text()) for d in ("src", "tests", "benchmarks")
             for p in sorted((root / d).rglob("*.py"))]
    used = set().union(*(names_read(t) | attributes_read(t) for t in trees))
    unreferenced = [
        f"{module}: {cls.name}.{node.name}"
        for module, tree in parse_package().items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unreferenced == []
