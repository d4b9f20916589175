"""CLI fuzz test: every verb that reads JSON, given an input file with
one mutation that no valid payload allows, exits 2 with one JSON line on
stdout and nothing on stderr, and raises nothing.

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

import pytest
from hypothesis import given, note, settings, strategies as st

from frcalc import cli
from test_cli_golden import CASES, _working_dir, write_inputs

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
