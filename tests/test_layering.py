"""Layering guard: no module but ``linalg.py``, which holds the
package's contraction kernels, may use numpy's ``einsum`` or ``kron``.
Every other module contracts through those kernels."""

import ast
import pathlib

import pytest

import frcalc

SRC = pathlib.Path(frcalc.__file__).parent
KERNEL_MODULE = "linalg.py"
BANNED = {"einsum", "kron"}


def numpy_contractions(source: str):
    """(line, name) of every use of numpy's einsum or kron in a module:
    an attribute of a numpy alias (``np.einsum``, ``numpy.kron``) or a
    name imported from numpy."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "numpy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in BANNED]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BANNED:
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("snippet", [
    "import numpy as np\nx = np.einsum('ij->', a)\n",
    "import numpy\nx = numpy.kron(a, b)\n",
    "from numpy import kron as k\nx = k(a, b)\n",
    "import numpy.linalg as la, numpy as xp\nf = xp.einsum\n",
])
def test_guard_sees_numpy_contractions(snippet):
    assert numpy_contractions(snippet)


def test_guard_ignores_other_names():
    assert not numpy_contractions("import numpy as np\ndef kron(a, b): return a\nx = kron(1, 2)\n"
                                  "y = np.linalg.svd(a)\nz = obj.einsum\n")


def test_only_linalg_uses_numpy_einsum_or_kron():
    modules = sorted(SRC.glob("*.py"))
    assert KERNEL_MODULE in {p.name for p in modules}
    offenders = {p.name: numpy_contractions(p.read_text(encoding="utf-8"))
                 for p in modules if p.name != KERNEL_MODULE}
    assert {name: uses for name, uses in offenders.items() if uses} == {}
