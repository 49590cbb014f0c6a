"""The package runs every dense BLAS and LAPACK call in numpy's library.

scipy ships its own OpenBLAS; calling ``scipy.linalg`` next to numpy would
start a second thread pool that contends with numpy's.  The sources are
parsed with the standard library's ``ast``, as in ``test_dead_code.py``;
``scipy.sparse.linalg`` (sparse products only) stays allowed.
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
