"""Layering guards.  No module but ``linalg.py``, which holds the
package's contraction kernels, may use numpy's ``einsum`` or ``kron``:
every other module contracts through those kernels.  Every public
function or method of the package is named somewhere in the source or,
by its frcalc name, in the benchmark, so no public API is dead.  And the
package holds no ``assert`` statement: ``python -O`` strips them, so
runtime checks are written as ``if ...: raise``.  No module of the
package or the tests imports a name it does not use.  ``serialize``
handles errors only at its decode boundary, ``decode`` and
``load_json``, and is the only module that imports orjson.  And the
package has one read path: only ``serialize.load_json`` calls a JSON
reader, ``json.load``, ``json.loads`` or ``orjson.loads``."""

import ast
import pathlib

import pytest

import frcalc

SRC = pathlib.Path(frcalc.__file__).parent
ROOT = SRC.parent.parent
IMPORT_CHECKED = ("src", "tests")
KERNEL_MODULE = "linalg.py"
BOUNDARY_MODULE, BOUNDARY = "serialize.py", {"decode", "load_json"}
BANNED = {"einsum", "kron"}
READERS = {"json": {"load", "loads"}, "orjson": {"loads"}}  # module -> its JSON readers


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


def frcalc_names(source: str):
    """Every frcalc definition a module outside the package names: a
    name imported from a frcalc module and read, or an attribute read
    from such a name or from ``frcalc`` (``cli.run``,
    ``frcalc.cli.run``, ``GroupHom.from_rows``).  A name that only
    matches, as a local helper of the same name does, is not counted."""
    tree = ast.parse(source)
    bound = {}  # local name -> the frcalc name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or "frcalc": "frcalc" for a in node.names
                          if a.name.split(".")[0] == "frcalc"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frcalc":
            bound.update({a.asname or a.name: a.name for a in node.names})
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in bound:
            names.add(bound[node.id])
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                names.add(node.attr)
    return names


def test_dead_code_guard_sees_unused_definitions():
    source = ("import numpy as np\nfrom m import used\n"
              "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
              "class C:\n    def method(self): pass\n    def __len__(self): return 0\n"
              "x = used() + C().other\n")
    assert {name for _, name in public_definitions(source)} == {"used", "unused", "method"}
    assert "used" in named(source) and not {"unused", "method", "m"} & named(source)


def test_dead_code_guard_counts_only_frcalc_names_outside_the_package():
    source = ("import oracles\nimport frcalc.cli\nfrom frcalc import suite\n"
              "from frcalc.abgroup import GroupHom as G, kernel\nfrom m import rank\n"
              "def numerical_rank(m): return m\n"
              "x = [oracles.numerical_rank, numerical_rank, rank, 'smith_normal_form', kernel,\n"
              "     frcalc.cli.run, suite.BATTERIES, G.from_rows(1, 2, 3), other.index]\n")
    assert frcalc_names(source) == {"kernel", "frcalc", "cli", "run", "BATTERIES", "GroupHom",
                                    "from_rows", "suite"}


def test_every_public_function_is_named_somewhere():
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        used |= named(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        used |= frcalc_names(path.read_text(encoding="utf-8"))
    dead = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
            for line, name in public_definitions(path.read_text(encoding="utf-8"))
            if name not in used]
    assert dead == []


def assert_lines(source: str):
    """Line of every ``assert`` statement in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_assert_guard_sees_asserts():
    assert assert_lines("def f(x):\n    if x:\n        assert x > 0, 'positive'\n") == [3]
    assert assert_lines("def f(x):\n    if not x:\n        raise ValueError('x')\n") == []


def test_no_assert_in_the_package():
    found = {p.name: assert_lines(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def except_handlers(source: str):
    """(top-level function, line) of every ``except`` handler in a
    module; the function is None for a handler outside any."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found += [(name, node.lineno) for node in ast.walk(top)
                  if isinstance(node, ast.ExceptHandler)]
    return found


def test_boundary_guard_sees_a_stray_handler():
    source = ("def decode(kind, obj):\n    try:\n        return f(obj)\n"
              "    except ValueError as exc:\n        raise FormatError(kind) from exc\n"
              "def frame_from_json(obj):\n    try:\n        return int(obj['d'])\n"
              "    except (KeyError, TypeError):\n        return 0\n"
              "try:\n    import fast\nexcept ImportError:\n    fast = None\n")
    assert except_handlers(source) == [("decode", 4), ("frame_from_json", 9), (None, 13)]


def test_serialize_handles_errors_only_at_its_boundary():
    source = (SRC / BOUNDARY_MODULE).read_text(encoding="utf-8")
    assert {name for name, _ in except_handlers(source)} == BOUNDARY


def json_reads(source: str):
    """(top-level function, line) of every use of a JSON reader: an
    attribute of a ``json`` or ``orjson`` alias (``json.loads``,
    ``orjson.loads``) or a reader imported from either by name; the
    function is None for a use outside any."""
    tree = ast.parse(source)
    aliases, names = {}, set()  # alias -> module; local names of imported readers
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names if a.name in READERS})
        elif isinstance(node, ast.ImportFrom) and node.module in READERS:
            names |= {a.asname or a.name for a in node.names if a.name in READERS[node.module]}
    found = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found += [(name, node.lineno) for node in ast.walk(top)
                  if isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.attr in READERS.get(aliases.get(node.value.id), ())]
    return found


def test_read_guard_sees_json_readers():
    source = ("import json, orjson as fast\nfrom json import load as read\n"
              "def load_json(path):\n    return json.loads(path) or fast.loads(path)\n"
              "def other(fh):\n    return read(fh)\n"
              "x = json.load\ny = json.dumps(1) + fast.dumps(2) + obj.loads(3)\n")
    assert json_reads(source) == [("load_json", 4), ("load_json", 4), ("other", 6), (None, 7)]


def test_only_load_json_reads_json():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name, _ in json_reads(path.read_text(encoding="utf-8"))}
    assert found == {(BOUNDARY_MODULE, "load_json")}


def imported_modules(source: str):
    """Top-level name of every module a source imports by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_module_guard_sees_imports():
    assert imported_modules("import orjson as fast\nfrom numpy import linalg\n"
                            "def f():\n    from orjson import dumps\n"
                            "from . import serialize\n") == {"orjson", "numpy"}


def test_only_serialize_imports_orjson():
    importers = [str(path.relative_to(ROOT)) for top in IMPORT_CHECKED
                 for path in sorted((ROOT / top).rglob("*.py"))
                 if "orjson" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == [str((SRC / BOUNDARY_MODULE).relative_to(ROOT))]


def unused_imports(source: str):
    """(line, name) of every name a module binds by an import but never
    reads as a bare name; ``from __future__`` imports are directives, not
    names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.asname or a.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported.setdefault(a.asname or a.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("snippet", [
    "import numpy as np\n",
    "import os.path\n",
    "from m import a, b as c\nx = a\n",
    "def f():\n    from m import a\n    return 1\n",
    "import numpy as np\nx = 'np'\ny = obj.np\n",
])
def test_import_guard_sees_unused_imports(snippet):
    assert unused_imports(snippet)


def test_import_guard_ignores_used_imports():
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "import numpy as np\nfrom m import a, b as c\n"
                          "def f(x: c) -> np.ndarray:\n    return os.path.join(a)\n") == []


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8"))
             for top in IMPORT_CHECKED for path in sorted((ROOT / top).rglob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
