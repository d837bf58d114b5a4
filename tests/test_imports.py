import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src" / "onebitphase").glob("*.py"))
SOURCES = MODULES + [
    path for folder in ("tests", "demos", "tools") for path in sorted((ROOT / folder).glob("*.py"))
]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def top_level_names(source: str) -> list[str]:
    """Functions, classes and variables a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def read_names(source: str) -> set[str]:
    """Names a module reads, bare (``x``) or as an attribute (``m.x``)."""
    tree = ast.parse(source)
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: os"]


def test_every_package_name_is_read():
    read = set().union(*(read_names(path.read_text()) for path in SOURCES))
    unread = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in top_level_names(path.read_text())
        if name not in read
    ]
    assert unread == []


def test_an_unread_name_is_found():
    source = "X = 1\ndef f():\n    return X\ndef g():\n    pass\nclass C:\n    pass\nC()\n"
    assert [n for n in top_level_names(source) if n not in read_names(source)] == ["f", "g"]


def imported_modules(source: str) -> list[str]:
    """The absolute module names a module imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_package_does_not_import_scipy():
    scipy = [
        f"{path.name}: {name}"
        for path in MODULES
        for name in imported_modules(path.read_text())
        if name.split(".")[0] == "scipy"
    ]
    assert scipy == []


def test_a_scipy_import_is_found():
    source = "import os\nfrom scipy.linalg import cho_factor\nfrom . import numkit\nimport scipy.stats as st\n"
    assert imported_modules(source) == ["os", "scipy.linalg", "scipy.stats"]


def _modules_after_a_run(tmp_path, args) -> list[str]:
    """The modules loaded once the CLI has run ``args``, in a fresh
    interpreter, so that modules the tests import do not count."""
    script = (
        "import sys\n"
        "from onebitphase import cli\n"
        f"assert cli.main({[*args, '--out', str(tmp_path / 'r.csv')]!r}) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_a_run_loads_no_scipy(tmp_path):
    loaded = _modules_after_a_run(tmp_path, ["recover", "--n", "16"])
    assert [m for m in loaded if m.startswith("scipy")] == []


def test_a_convergence_run_loads_no_numpy_ma(tmp_path):
    # the NaN check of np.median imports numpy.ma; the run's medians sort instead
    loaded = _modules_after_a_run(tmp_path, ["altmin-convergence", "--n", "8", "--trials", "3"])
    assert "onebitphase.bench" in loaded
    assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []
