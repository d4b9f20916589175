"""Layering guards.  No module but ``linalg.py``, which holds the
package's contraction kernels, may use numpy's ``einsum`` or ``kron``:
every other module contracts through those kernels.  And every public
function or method of the package is named somewhere in the source, the
tests or the benchmark, so no public API is dead."""

import ast
import pathlib

import pytest

import frcalc

SRC = pathlib.Path(frcalc.__file__).parent
ROOT = SRC.parent.parent
SEARCHED = ("src", "tests", "perfbench")
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


def public_definitions(source: str):
    """(line, name) of every public top-level function and every public
    method of a top-level class."""
    found = []
    for node in ast.parse(source).body:
        scope = node.body if isinstance(node, ast.ClassDef) else [node]
        found += [(f.lineno, f.name) for f in scope
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not f.name.startswith("_")]
    return found


def named(source: str):
    """Every name a module uses: bare names, attribute names and string
    constants (``monkeypatch.setattr(m, "name", f)``, tables of names).
    Importing a name does not use it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_dead_code_guard_sees_unused_definitions():
    source = ("import numpy as np\nfrom m import used\n"
              "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
              "class C:\n    def method(self): pass\n    def __len__(self): return 0\n"
              "x = used() + C().other\n")
    assert {name for _, name in public_definitions(source)} == {"used", "unused", "method"}
    assert "used" in named(source) and not {"unused", "method", "m"} & named(source)


def test_every_public_function_is_named_somewhere():
    used = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= named(path.read_text(encoding="utf-8"))
    dead = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
            for line, name in public_definitions(path.read_text(encoding="utf-8"))
            if name not in used]
    assert dead == []
