"""CLI fuzz test: every verb that reads JSON, given an input file with
one mutation that no valid payload allows, exits 2 with one JSON line on
stdout and nothing on stderr, and raises nothing.  Two more families
change well-formed payloads: every ``alg`` input of a golden ``alg``
call multiplied by 2^±40 or 2^±600 spans the same subspace, so the call
keeps its golden exit code and result; and a payload that breaks one
mathematical condition (a span that is not an algebra or not *-closed,
a frame off its axioms) exits 1 with one JSON line and nothing on
stderr.

The valid files are the inputs of the golden calls in
``test_cli_golden``; each example takes one golden call, one of its JSON
input files and one mutation of that file:

- a missing required key;
- a value of the wrong JSON type (string, float, null, list or object);
- a zero or negative size, or a negative count;
- a ragged integer matrix;
- NaN or an infinity in place of a float.

The search is derandomized and keeps no example database, so every run
tries the same examples.
"""

import contextlib
import copy
import functools
import io
import json
import math
import warnings

import pytest
from hypothesis import given, note, settings, strategies as st

from frcalc import cli
from test_cli_golden import CASES, GOLDEN, _working_dir, write_inputs

SIZES = {"d", "ambient", "src", "dst", "n"}  # integer fields that must be >= 1
COUNTS = {"rows", "cols", "win_dom", "win_cod", "gens"}  # integer fields that must be >= 0
DELETE = "missing key"

# (golden call, argv index of one of its JSON input files)
JSON_INPUTS = [(case, i) for case in CASES for i, word in enumerate(case.split())
               if word.endswith(".json") and case.split()[i - 1] != "--out"]


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _wrong_types(value):
    """The value recast as each JSON type it does not have; an integer
    keeps its value as a string and as a float."""
    recast = {str: json.dumps(value), float: float(value) if type(value) is int else 0.5,
              type(None): None, list: [value], dict: {"value": value}}
    return [v for t, v in recast.items() if not isinstance(value, t)]


def _is_int_matrix(value):
    return (isinstance(value, list) and len(value) >= 2
            and all(isinstance(row, list) and all(type(x) is int for x in row)
                    for row in value))


def mutations(doc):
    """Kind -> [(path, replacement)] for every malformed variant of a
    document that changes one node; DELETE as a replacement removes the
    key at the end of the path."""
    found = {"wrong type": [], "missing key": [], "out of range": [], "ragged": [],
             "non-finite": []}
    for path, value in _nodes(doc):
        found["wrong type"] += [(path, v) for v in _wrong_types(value)]
        if isinstance(value, dict):
            found["missing key"] += [(path + (key,), DELETE) for key in value]
        if type(value) is int and path and path[-1] in SIZES | COUNTS:
            found["out of range"] += [(path, v) for v in (0, -1) if v < 0 or path[-1] in SIZES]
        if _is_int_matrix(value):
            found["ragged"] += [(path + (i,), row + [0]) for i, row in enumerate(value)]
        if type(value) is float:
            found["non-finite"] += [(path, v) for v in (math.nan, math.inf, -math.inf)]
    return {kind: items for kind, items in found.items() if items}


def mutated(doc, path, replacement):
    doc = copy.deepcopy(doc)
    if not path:
        return replacement
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def test_mutations_cover_every_kind():
    doc = {"gens": 2, "rels": [[6, 0], [0, 4]]}
    found = mutations(doc)
    assert sorted(found) == ["missing key", "out of range", "ragged", "wrong type"]
    assert found["out of range"] == [(("gens",), -1)]
    assert mutated(doc, ("rels", 1), [0, 4, 0]) == {"gens": 2, "rels": [[6, 0], [0, 4, 0]]}
    assert mutated(doc, ("gens",), DELETE) == {"rels": [[6, 0], [0, 4]]}
    assert (("gens",), "2") in found["wrong type"] and (("gens",), 2.0) in found["wrong type"]
    assert mutations({"d": 2})["out of range"] == [(("d",), 0), (("d",), -1)]
    assert mutations({"x": [0.5]})["non-finite"] == [(("x", 0), v)
                                                     for v in (math.nan, math.inf, -math.inf)]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    with _working_dir(d):
        write_inputs()
    return d


@functools.cache
def _load(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc, mutations(doc)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_malformed_input_exits_2(inputs_dir, data):
    case, i = data.draw(st.sampled_from(JSON_INPUTS), label="call and input")
    argv = case.split()
    doc, found = _load(str(inputs_dir / argv[i]))
    kind = data.draw(st.sampled_from(sorted(found)), label="mutation")
    path, replacement = data.draw(st.sampled_from(found[kind]), label="path and value")
    bad = inputs_dir / "mutated.json"
    bad.write_text(json.dumps(mutated(doc, path, replacement)))
    argv = [str(inputs_dir / word) if word.endswith(".json") else word for word in argv]
    argv[i] = str(bad)
    if "--out" in argv:
        del argv[argv.index("--out"):argv.index("--out") + 2]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    note(f"exit {code}: {out.getvalue()}")
    assert code == 2
    assert len(out.getvalue().splitlines()) == 1 and err.getvalue() == ""
    report = json.loads(out.getvalue())
    assert report["pass"] is False and report["error"]


def _call(inputs_dir, argv, replaced):
    """Exit code, stdout and stderr of a golden call run on the inputs of
    ``inputs_dir`` without its ``--out``, with each file named in
    ``replaced`` swapped for that payload.  A warning the call raises is
    part of its stderr, as at the command line."""
    for name, doc in replaced.items():
        (inputs_dir / f"changed-{name}").write_text(json.dumps(doc))
    argv = [str(inputs_dir / (f"changed-{word}" if word in replaced else word))
            if word.endswith(".json") else word for word in argv]
    if "--out" in argv:
        del argv[argv.index("--out"):argv.index("--out") + 2]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)


def _scaled(doc, c):
    """A subalgebra payload with every basis entry multiplied by c."""
    return {**doc, "basis": [{**m, "entries": [[c * x for x in pair] for pair in m["entries"]]}
                             for m in doc["basis"]]}


ALG_FLAGS = {verb.name: {flag for flag, kind, *_ in cli._flags(verb.flags) if kind == "alg"}
             for verb in cli.VERBS}
SMALL_SPAN = pytest.mark.xfail(strict=True, reason="span_subalgebra ranks small generators "
                                                  "against the unit")
RESCALED = [pytest.param(case, e, id=f"{' '.join(case.split()[:2])} 2^{e}",
                         marks=[SMALL_SPAN] if case.startswith("alg span") and e < 0 else [])
            for case in CASES if case.startswith("alg ") for e in (40, -40, 600, -600)]


@pytest.mark.parametrize("case, e", RESCALED)
def test_rescaled_alg_inputs_keep_the_golden_verdict(inputs_dir, case, e):
    """The scale 2^e is a power of two, so the rescaled payloads are exact."""
    c = 2.0**e
    argv = case.split()
    want = json.loads(GOLDEN.read_text())[case]
    flags = ALG_FLAGS[" ".join(argv[:2])]
    files = {argv[i + 1] for i, word in enumerate(argv) if word in flags}
    code, out, err = _call(inputs_dir, argv, {name: _scaled(_load(str(inputs_dir / name))[0], c)
                                              for name in files})
    report = json.loads(out)
    assert (code, report["pass"], report.get("result")) == (
        want["exit"], want["report"]["pass"], want["report"].get("result"))
    assert err == ""


def _dropped(doc, key, i):
    return {**doc, key: doc[key][:i] + doc[key][i + 1:]}


def _off_axioms(frame):
    """The frame with its e_01 doubled: e_01 e_10 = 2 e_00."""
    mats = copy.deepcopy(frame["mats"])
    mats[1]["entries"] = [[2 * x for x in pair] for pair in mats[1]["entries"]]
    return {**frame, "mats": mats}


# (golden call, input file, the file's payload -> a well-formed payload
# that breaks one mathematical condition, the error reported or None for
# a residual above its bound)
SEMANTIC = {
    "non-algebra --b of alg grmap": ("alg grmap", "db.json", lambda doc: _dropped(doc, "basis", 0),
                                     "--b does not span a unital *-algebra"),
    "non-algebra --b of alg ztensor": ("alg ztensor", "db.json",
                                       lambda doc: _dropped(doc, "basis", 0),
                                       "--b does not span a unital *-algebra"),
    "non-*-closed alg centralizer input": ("alg centralizer", "alg6.json",
                                           lambda doc: _dropped(doc, "basis", 2),
                                           "the basis does not span a *-closed set"),
    "frame off its axioms": ("frame verify", "f6.json", _off_axioms, None),
    "hom off the frame axioms": ("fred amplify", "h.json",
                                 lambda doc: {**doc, "frame": _off_axioms(doc["frame"])},
                                 "input not a unital *-homomorphism"),
}


@pytest.mark.parametrize("mutation", list(SEMANTIC))
def test_a_payload_off_one_condition_exits_1(inputs_dir, mutation):
    verb, name, mutate, error = SEMANTIC[mutation]
    (case,) = [case for case in CASES if case.startswith(verb + " ")]
    code, out, err = _call(inputs_dir, case.split(),
                           {name: mutate(_load(str(inputs_dir / name))[0])})
    assert code == 1
    assert len(out.splitlines()) == 1 and err == ""
    report = json.loads(out)
    assert report["pass"] is False and report.get("error") == error
