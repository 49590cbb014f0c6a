"""The package runs every dense BLAS and LAPACK call in numpy's library,
and imports scipy only inside the functions that use it.

scipy ships its own OpenBLAS; calling ``scipy.linalg`` next to numpy would
start a second thread pool that contends with numpy's.  The sources are
parsed with the standard library's ``ast``, as in ``test_dead_code.py``;
``scipy.sparse.linalg`` (sparse products only) stays allowed.  Importing
``scipy.sparse`` takes most of the package's start-up, so no module imports
scipy when it is itself imported, and only the scipy views of the package's
sparse triples, the dense export and the large kinetic blocks know scipy's
formats.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stoclim"


def dense_linalg_uses(tree):
    """Line numbers that import or reach ``scipy.linalg``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.") for name in names):
            yield node.lineno


def module_level_scipy_imports(tree):
    """Line numbers of scipy imports that run when the module is imported:
    any outside a function body."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            stack.extend(ast.iter_child_nodes(node))
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node.lineno


def test_no_module_imports_scipy_when_imported():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in module_level_scipy_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def scoped(tree, scope=""):
    """``(scope, node)`` for every node below ``tree``, with ``scope`` the
    dotted name of the innermost enclosing function or class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped(node, f"{scope}.{node.name}".lstrip("."))
        else:
            yield scope, node
            yield from scoped(node, scope)


def format_uses(tree):
    """``(scope, what)`` for each call of ``to_scipy`` and each read of the
    ``superoperator`` and ``rate_matrix`` views."""
    for scope, node in scoped(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "to_scipy":
                yield scope, "to_scipy"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in ("superoperator", "rate_matrix"):
                yield scope, node.attr


def test_only_the_views_know_the_scipy_format():
    # the solvers, the actions, the population block and the CLI compute on
    # the triples; scipy renders the views, the dense export and the blocks
    # that step with expm_multiply
    allowed = {
        ("Generator.superoperator", "to_scipy"),
        ("ClassicalKineticSystem.rate_matrix", "to_scipy"),
        ("_Components._blocks", "to_scipy"),
        ("Generator.dense_adjoint", "superoperator"),
    }
    found = [
        f"{path.name}:{scope}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for scope, what in format_uses(ast.parse(path.read_text()))
        if (scope, what) not in allowed
    ]
    assert found == []


def test_the_format_guard_sees_every_spelling():
    flagged = {
        "def f(t):\n    return to_scipy(t, 'csr')": [("f", "to_scipy")],
        "def f(t):\n    return _sparse.to_scipy(t, 'csc')": [("f", "to_scipy")],
        "class A:\n    def f(self, gen):\n        return gen.superoperator @ x": [
            ("A.f", "superoperator")
        ],
        "def f(cks):\n    return cks.rate_matrix.diagonal()": [("f", "rate_matrix")],
        "x = cks.rate_matrix": [("", "rate_matrix")],
    }
    for source, want in flagged.items():
        assert list(format_uses(ast.parse(source))) == want, source
    ignored = [
        "def rate_matrix(self):\n    pass",
        "def f(rate_matrix):\n    return rate_matrix",
        "def f(self, s):\n    self.superoperator = s",
    ]
    for source in ignored:
        assert not list(format_uses(ast.parse(source))), source


def test_no_module_uses_scipy_linalg():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in dense_linalg_uses(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_guard_sees_every_spelling():
    spellings = [
        "import scipy.linalg",
        "import scipy.linalg as sl",
        "from scipy.linalg import expm",
        "from scipy.linalg.blas import dgemm",
        "from scipy import linalg",
        "import scipy\nscipy.linalg.expm(a)",
        "def f():\n    from scipy.linalg import eigh",
    ]
    for source in spellings:
        assert list(dense_linalg_uses(ast.parse(source))), source
    allowed = [
        "from scipy.sparse.linalg import expm_multiply",
        "import scipy.sparse.linalg",
        "from scipy import sparse",
        "import numpy as np\nnp.linalg.eigh(a)",
    ]
    for source in allowed:
        assert not list(dense_linalg_uses(ast.parse(source))), source
    module_level = [
        "import scipy",
        "import scipy.sparse as sp",
        "from scipy import sparse",
        "from scipy.sparse.linalg import expm_multiply",
        "try:\n    import scipy\nexcept ImportError:\n    pass",
        "class A:\n    from scipy import sparse",
    ]
    for source in module_level:
        assert list(module_level_scipy_imports(ast.parse(source))), source
    in_functions = [
        "def f():\n    from scipy import sparse",
        "class A:\n    def f(self):\n        import scipy.sparse.linalg",
        "import numpy as np\nimport scipyx",
    ]
    for source in in_functions:
        assert not list(module_level_scipy_imports(ast.parse(source))), source
