"""Layering guards.  No module but ``linalg.py``, which holds the
package's contraction kernels, may use numpy's ``einsum`` or ``kron``:
every other module contracts through those kernels.  Every public
function or method of the package is named somewhere in the source or,
by its frcalc name, in the benchmark, so no public API is dead, and
every function that ``perfbench/tracer.py`` wraps by name is a public
top-level function of its frcalc module.  And the
package holds no ``assert`` statement: ``python -O`` strips them, so
runtime checks are written as ``if ...: raise``.  No module of the
package or the tests imports a name it does not use.  ``serialize``
handles errors only at its decode boundary, ``decode`` and
``load_json``, and is the only module that imports orjson.  And the
package has one read path and one fast write path: only
``serialize.load_json`` calls a JSON reader, ``json.load``,
``json.loads`` or ``orjson.loads``, and only ``serialize.dump_json``
calls ``orjson.dumps``, so no other writer meets the float64 arrays
that the encoders put in their trees.  Every pass/fail bound is read by
name from ``linalg.BOUNDS``: outside ``linalg.py`` no module reads a
tolerance's ``abs_eps``, and a small float literal is only the value of
a named module-level constant.  Every battery of ``suite.BATTERIES``
samples through a generator function, whose yields ``run_battery``
reduces in one place.  And that place, ``suite.judge``, is the only one
where a residual meets its bound, for batteries and CLI verbs alike:
``cli.py`` compares nothing with a ``.bound(...)`` and reads no
``pass_`` flag, ``suite.py`` compares thresholds only inside ``judge``,
and ``frames.verify_frame`` returns residuals without judging them: in
``frames.py`` only the builder guard ``dot_with_residual``, which
refuses to build a product of frames that do not commute, compares a
residual with a bound.  A subalgebra's ``basis`` is already a (dim, n, n) stack, the
one layout of a family of matrices, so no call in the package wraps a
``.basis`` in ``list``, ``tuple`` or ``np.asarray``.  And ``suite.py``
takes no underscore name from another frcalc module, so every battery
checks the public API with its own means: the Smith form certificate's
determinant, for one, cannot become ``abgroup._det_unimodular``, the
check it backs up.  Nor does ``suite.py`` name a seeded constructor
that draws its own unitaries (``random_unitary``, ``random_frame``,
...): each takes a QR of its own, where a battery draws all its
unitaries in one ``random_unitaries`` call, one QR per size."""

import ast
import inspect
import pathlib

import pytest

import frcalc
from frcalc.suite import BATTERIES

SRC = pathlib.Path(frcalc.__file__).parent
ROOT = SRC.parent.parent
IMPORT_CHECKED = ("src", "tests")
KERNEL_MODULE = "linalg.py"
BOUNDARY_MODULE, BOUNDARY = "serialize.py", {"decode", "load_json"}
CLI_MODULE, SUITE_MODULE, JUDGE = "cli.py", "suite.py", "judge"
LONE_DRAWS = {"random_unitary", "random_frame", "random_hom", "random_c_morphism",
              "random_source_frame", "random_d_morphism"}  # each takes a QR of its own
FRAMES_MODULE, FRAME_GUARDS = "frames.py", {"dot_with_residual"}
BANNED = {"einsum", "kron"}
READERS = {"json": {"load", "loads"}, "orjson": {"loads"}}  # module -> its JSON readers
WRITERS = {"orjson": {"dumps"}}  # module -> the writers only dump_json may call


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


def traced_functions(source: str):
    """The ``FUNCTIONS`` table of a tracer source, module -> names, read
    with ``ast`` and not by importing it; {} when it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    return {}


def public_functions(source: str):
    """Names of the public top-level functions of a module."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def test_every_traced_function_is_a_public_top_level_function():
    """A renamed or privatised kernel shows here, and not as a KeyError
    in ``Tracer.metrics`` of a traced benchmark run."""
    assert public_functions("def f(): pass\ndef _g(): pass\n"
                            "class C:\n    def h(self): pass\n") == {"f"}
    table = traced_functions((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    assert table
    sources = {module: SRC / f"{module}.py" for module in table}
    missing = [f"{module}.{name}" for module, names in table.items() for name in names
               if not sources[module].exists()
               or name not in public_functions(sources[module].read_text(encoding="utf-8"))]
    assert missing == []


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


def json_uses(source: str, functions=READERS):
    """(top-level function, line) of every use of one of ``functions``
    (module -> names, by default the JSON readers): an attribute of an
    alias of the module (``json.loads``, ``orjson.loads``) or a function
    imported from it by name; the function is None for a use outside
    any."""
    tree = ast.parse(source)
    aliases, names = {}, set()  # alias -> module; local names of imported functions
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names if a.name in functions})
        elif isinstance(node, ast.ImportFrom) and node.module in functions:
            names |= {a.asname or a.name for a in node.names if a.name in functions[node.module]}
    found = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found += [(name, node.lineno) for node in ast.walk(top)
                  if isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.attr in functions.get(aliases.get(node.value.id), ())]
    return found


def test_read_guard_sees_json_readers():
    source = ("import json, orjson as fast\nfrom json import load as read\n"
              "def load_json(path):\n    return json.loads(path) or fast.loads(path)\n"
              "def other(fh):\n    return read(fh)\n"
              "x = json.load\ny = json.dumps(1) + fast.dumps(2) + obj.loads(3)\n")
    assert json_uses(source) == [("load_json", 4), ("load_json", 4), ("other", 6), (None, 7)]


def test_only_load_json_reads_json():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name, _ in json_uses(path.read_text(encoding="utf-8"))}
    assert found == {(BOUNDARY_MODULE, "load_json")}


def test_write_guard_sees_a_stray_orjson_dumps():
    source = ("import json, orjson, orjson as fast\nfrom orjson import dumps as write\n"
              "def dump_json(obj):\n    return orjson.dumps(obj)\n"
              "def report(obj):\n    return fast.dumps(obj) + write(obj)\n"
              "x = json.dumps(1) + orjson.loads(b'2') + obj.dumps(3)\n")
    assert json_uses(source, WRITERS) == [("dump_json", 4), ("report", 6), ("report", 6)]


def test_only_dump_json_calls_orjson_dumps():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name, _ in json_uses(path.read_text(encoding="utf-8"), WRITERS)}
    assert found == {(BOUNDARY_MODULE, "dump_json")}


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


def bare_tolerances(source: str):
    """(line, text) of every read of an ``abs_eps`` attribute and of every
    float literal in (0, 1e-3) that is not the whole value of a
    module-level assignment (``_EIG_GAP = 1e-7``)."""
    tree = ast.parse(source)
    constants = {id(node.value) for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < node.value < 1e-3 and id(node) not in constants):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Attribute) and node.attr == "abs_eps"
              and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, ".abs_eps"))
    return sorted(found)


@pytest.mark.parametrize("snippet", [
    "def ok(r):\n    return r <= 1e-8\n",
    "def ok(r, tol):\n    return r <= 1e3 * tol.abs_eps\n",
    "BOUNDS = {'tau': 1e-9}\n",
    "class T:\n    eps: float = 1e-9\n",
    "x = -2e-4 * y\n",
])
def test_tolerance_guard_sees_bare_bounds(snippet):
    assert bare_tolerances(snippet)


def test_tolerance_guard_ignores_named_constants():
    assert bare_tolerances("_EIG_GAP = 1e-7\n_PIVOT: float = 1e-6\nx = 0.5 * 1e3 + 0.0\n"
                           "tol = Tolerance(abs_eps=1.0)\nok = r <= tol.bound('tau')\n") == []


def test_bounds_are_read_from_the_table():
    found = {p.name: bare_tolerances(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != KERNEL_MODULE}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_every_battery_samples_through_a_generator():
    assert [b.name for b in BATTERIES if not inspect.isgeneratorfunction(b.sample)] == []


def bound_comparisons(source: str):
    """(top-level function, line) of every comparison that reads a bound:
    an operand calls a ``.bound`` method, reads a name assigned from such
    a call, or reads a name or attribute ``thresholds``; the function is
    None for a comparison outside any."""
    tree = ast.parse(source)

    def calls_bound(node):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "bound" for n in ast.walk(node))

    bounds = {"thresholds"} | {target.id for node in ast.walk(tree)
                               if isinstance(node, ast.Assign) and calls_bound(node.value)
                               for target in node.targets if isinstance(target, ast.Name)}

    def reads_bound(node):
        return calls_bound(node) or any(
            isinstance(n, ast.Name) and n.id in bounds
            or isinstance(n, ast.Attribute) and n.attr == "thresholds" for n in ast.walk(node))

    found = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found += [(name, node.lineno) for node in ast.walk(top) if isinstance(node, ast.Compare)
                  and any(reads_bound(x) for x in (node.left, *node.comparators))]
    return found


def attribute_reads(source: str, attr: str):
    """Line of every read of an attribute ``attr``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load))


def test_judge_guard_sees_comparisons_with_bounds():
    source = ("def _within(tol, check, r):\n    return r <= tol.bound(check)\n"
              "def _naturality(tol, sq):\n    bound = tol.bound('naturality')\n"
              "    return sq <= bound\n"
              "def run_battery(battery, rs):\n"
              "    return all(rs[k] <= battery.thresholds[k] for k in rs)\n"
              "def judge(rs, thresholds):\n    return not rs['x'] <= thresholds['x']\n"
              "def _decode(value, kind):\n    return value < _LEAST[kind] or kind == 'seed'\n"
              "ok = report.pass_ and tol.bound('tau') > 0\n")
    assert bound_comparisons(source) == [("_within", 2), ("_naturality", 5), ("run_battery", 7),
                                         ("judge", 9), (None, 12)]
    assert attribute_reads(source, "pass_") == [12]
    assert attribute_reads("report.pass_ = True\n", "pass_") == []


def test_only_judge_compares_a_residual_with_a_bound():
    cli_source = (SRC / CLI_MODULE).read_text(encoding="utf-8")
    assert bound_comparisons(cli_source) == []
    assert attribute_reads(cli_source, "pass_") == []
    suite_source = (SRC / SUITE_MODULE).read_text(encoding="utf-8")
    assert {name for name, _ in bound_comparisons(suite_source)} == {JUDGE}
    frames_source = (SRC / FRAMES_MODULE).read_text(encoding="utf-8")
    assert {name for name, _ in bound_comparisons(frames_source)} == FRAME_GUARDS


CONVERTERS = {"list", "tuple"}  # builtins that copy a basis out of its stack
NUMPY_CONVERTERS = {"asarray"}  # numpy functions that do


def basis_conversions(source: str):
    """(line, converter) of every call of ``list``, ``tuple`` or numpy's
    ``asarray`` (``np.asarray``, ``numpy.asarray``) whose first argument
    is a ``.basis`` attribute."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "basis"):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in CONVERTERS:
            found.append((node.lineno, f.id))
        elif (isinstance(f, ast.Attribute) and f.attr in NUMPY_CONVERTERS
              and isinstance(f.value, ast.Name) and f.value.id in aliases):
            found.append((node.lineno, f.attr))
    return found


def test_basis_guard_sees_conversions():
    source = ("import numpy as np\nimport numpy\n"
              "x = list(a.basis)\ny = tuple(z.basis)\nw = np.asarray(b.basis, dtype=complex)\n"
              "v = numpy.asarray(c.basis)\n"
              "ok = [a.basis, len(a.basis), list(basis), np.concatenate([a.basis]),\n"
              "      other.asarray(a.basis)]\n")
    assert basis_conversions(source) == [(3, "list"), (4, "tuple"), (5, "asarray"),
                                         (6, "asarray")]


def test_no_basis_is_converted_out_of_its_stack():
    found = {p.name: basis_conversions(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def private_frcalc_names(source: str):
    """(line, name) of every underscore name a module takes from a frcalc
    module: imported by name (``from .abgroup import _eliminate``) or
    read as an attribute of an imported frcalc name (``abgroup._bareiss``,
    ``frcalc.abgroup._bareiss``).  Dunder names are not private."""
    tree = ast.parse(source)

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or "frcalc" for a in node.names if a.name.split(".")[0] == "frcalc"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "frcalc"):
            bound |= {a.asname or a.name for a in node.names}
            found += [(node.lineno, a.name) for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("snippet", [
    "from .abgroup import _det_unimodular\n",
    "from frcalc.abgroup import smith_normal_form, _eliminate as e\n",
    "from . import abgroup\nx = abgroup._det_unimodular(m)\n",
    "import frcalc.abgroup\nx = frcalc.abgroup._bareiss(m, 2)\n",
])
def test_private_name_guard_sees_private_frcalc_names(snippet):
    assert private_frcalc_names(snippet)


def test_private_name_guard_ignores_public_and_own_names():
    assert private_frcalc_names("import frcalc\nimport numpy as np\nfrom . import abgroup\n"
                                "from .linalg import DEFAULT_TOL\ndef _own(): pass\n"
                                "x = [abgroup.smith_normal_form, _own(), np._NoValue,\n"
                                "     frcalc.__name__, obj._private]\n") == []


def test_suite_takes_no_private_name_from_another_module():
    assert private_frcalc_names((SRC / SUITE_MODULE).read_text(encoding="utf-8")) == []


def lone_draws(source: str):
    """(line, name) of every import or read of a name in ``LONE_DRAWS``:
    a bare name, an attribute (``frames.random_frame``) or a name imported
    under any alias."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in LONE_DRAWS]
        elif isinstance(node, ast.Name) and node.id in LONE_DRAWS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in LONE_DRAWS:
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("snippet", [
    "from .frames import random_frame\nx = random_frame(2, 6, 1)\n",
    "from . import linalg\nu = linalg.random_unitary(6, 1)\n",
    "from .generators import random_c_morphism as draw\nm = draw(cfg, 1)\n",
    "import frcalc.homspace\nhs = map(frcalc.homspace.random_hom, a, b, c)\n",
])
def test_lone_draw_guard_sees_constructors_that_draw_alone(snippet):
    assert lone_draws(snippet)


def test_lone_draw_guard_ignores_the_batched_draw():
    assert lone_draws("from .linalg import random_unitaries\nus = random_unitaries(draws)\n"
                      "t = random_fredholm(2, 3, 2, 1)\nfr = unitary_frame(us[0], 2)\n") == []


def test_suite_draws_no_unitary_alone():
    assert lone_draws((SRC / SUITE_MODULE).read_text(encoding="utf-8")) == []
