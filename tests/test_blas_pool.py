"""The package runs every dense BLAS and LAPACK call in numpy's library,
and imports scipy only inside the functions that use it.

scipy ships its own OpenBLAS; calling ``scipy.linalg`` next to numpy would
start a second thread pool that contends with numpy's.  The sources are
parsed with the standard library's ``ast``, as in ``test_dead_code.py``;
``scipy.sparse.linalg`` (sparse products only) stays allowed.  Importing
``scipy.sparse`` takes most of the package's start-up, so no module imports
scipy when it is itself imported.
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
