"""Command-line entry point: ``frcalc <module> <verb> [flags]``.

Every verb prints a JSON report {verb, pass, residuals, artifacts,
elapsed_ms} on stdout and exits 0 on pass, 1 on mathematical failure,
2 on usage or format errors.  All randomness is controlled by --seed.
JSON has no NaN or infinity, so the report spells a non-finite float
as the string "nan", "inf" or "-inf".

Each verb is declared once, in ``VERBS``; the parser, the dispatch and
``list-ops`` are all derived from that table.  Verb bodies return
residuals and their bounds, which only ``suite.judge`` compares.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Callable, NamedTuple

from . import abgroup, catverify, frames, fredholm, generators, grassmannian, homspace, linalg
from .config import UsageError, load_settings
from .serialize import CODECS, FormatError, decode, dump_json, load_json
from .suite import judge, run_suite


class Verb(NamedTuple):
    """One CLI verb.  ``flags`` lists ``--flag kind`` pairs; a kind is
    ``index`` (a non-negative int: a face or stage index), ``size`` (a
    positive int: a size, degree or multiplicity), ``float`` (a positive
    finite number: a scale), ``seed`` (a non-negative int that defaults
    to the config seed) or a kind of ``serialize.CODECS``, whose flag
    names a JSON file.  A kind ending in
    ``?`` is optional (None when absent); ``kind=value`` has a default.
    ``out`` names the codec of the ``--out`` payload.  ``body(tol,
    *decoded flag values)`` returns (residuals, bounds, result, payload)
    without comparing; a failure that has no residual raises."""

    name: str
    target: str | None
    flags: str
    out: str | None
    body: Callable


_TYPES = {"index": int, "size": int, "float": float, "seed": int}
_LEAST = {"index": 0, "size": 1, "seed": 0}  # smallest value a kind accepts


def _flags(spec):
    """(flag, kind, required, default) for each pair of a flag spec."""
    words = spec.split()
    for flag, word in zip(words[::2], words[1::2]):
        kind, has_default, default = word.partition("=")
        base = kind.rstrip("?")
        required = kind == base and not has_default and base != "seed"
        yield flag, base, required, _TYPES[base](default) if has_default else None


def _made(payload, result=None):
    return {}, {}, result, payload


def _within(tol, check, payload=None, result=None, **residuals):
    """Each of ``residuals`` bounded by the bound of ``check``."""
    return residuals, dict.fromkeys(residuals, tol.bound(check)), result, payload


def _frame_axioms(tol, fr):
    report = frames.verify_frame(fr)
    return _within(tol, "frame_axioms", axiom_i=report.axiom_i_maxerr,
                   axiom_ii=report.axiom_ii_maxerr, axiom_iii=report.axiom_iii_maxerr)


def _dot(tol, left, right):
    fr, residual = frames.dot_with_residual(left, right, tol)
    return _within(tol, "commutation", fr, commutation=residual)


def _random_frame(tol, d, ambient, seed):
    if ambient % d:
        raise UsageError(f"--d {d} must divide --ambient {ambient}")
    return _made(frames.random_frame(d, ambient, seed))


def _intertwiner(tol, h):
    u = homspace.intertwiner(h, tol)
    return _within(tol, "intertwiner", u, intertwiner=homspace.intertwiner_residual(h, u))


def _span(tol, gens):
    alg = grassmannian.span_subalgebra(gens.basis, gens.ambient, tol)
    return _within(tol, "in_span", alg, {"dim": alg.dim},
                   closure=grassmannian.closure_residual(alg, tol))


def _is_k(tol, alg, d):
    if not grassmannian.is_k_subalgebra(alg, d, tol):
        raise ValueError(f"not a {d}-subalgebra")
    return _made(None, {"is_k_subalgebra": True})


def _centralizer(tol, alg):
    if not grassmannian.star_closed(alg.basis, tol):
        raise ValueError("the basis does not span a *-closed set")
    z = grassmannian.centralizer(alg, tol)
    ortho = grassmannian.Subalgebra(alg.ambient, linalg.orthonormal_span(alg.basis, tol))
    return _within(tol, "centralizer", z, {"dim": z.dim},
                   commutation=grassmannian.commutation_defect(ortho, z))


def _algebras(tol, **algs):
    """Raise unless each named input spans a unital *-algebra."""
    bound = {"closure": tol.bound("in_span")}
    for flag, alg in algs.items():
        if not judge([{"closure": grassmannian.closure_residual(alg, tol)}], bound)[0]:
            raise ValueError(f"--{flag} does not span a unital *-algebra")


def _grmap(tol, f, a_prime, a, b):
    _algebras(tol, aprime=a_prime, a=a, b=b)
    alg = grassmannian.gr_map(f, a_prime, a, b, tol)
    return _made(alg, {"dim": alg.dim})


def _ztensor(tol, f, g, a, b, phi, psi):
    _algebras(tol, a=a, b=b, phi=phi, psi=psi)
    return _within(tol, "subspace_distance", subspace_distance=(
        grassmannian.centralizer_tensor_check(f, g, a, b, phi, psi, tol)[1]))


def _extract(tol, alg, d):
    fr = grassmannian.extract_frame(alg, d, tol)
    return _within(tol, "frame_axioms", fr, frame_axioms=frames.verify_frame(fr).max_error)


def _naturality(tol, bundle, seed):
    if bundle is None:
        cfg = generators.MorphismConfig(2, 1, 2, 2)
        bundle = (generators.random_c_morphism(cfg, seed),
                  generators.random_c_morphism(cfg, seed + 1),
                  generators.random_source_frame(cfg, seed + 2),
                  generators.random_source_frame(cfg, seed + 3))
    else:  # the frame condition of f and g, checked here and not when decoding
        bundle = (*(catverify.make_c_morphism(*parts, tol) for parts in bundle[:2]), *bundle[2:])
    square, witness = catverify.check_naturality(*bundle, tol)
    return _within(tol, "naturality", square=square, witness=witness)


def _or_random(fr, d, ambient, seed):
    return frames.random_frame(d, ambient, seed) if fr is None else fr


def _face(chain, fiber=None):
    return _made(chain if fiber is None else (chain, fiber), {"levels": list(chain.levels)})


def _index(tol, t):
    return _made(t, {"index": fredholm.index(t, tol)})


def _fred_conj(tol, t, g):
    result = fredholm.conjugate(g, t, tol)
    if fredholm.kernel_cokernel_dims(result, tol) != fredholm.kernel_cokernel_dims(t, tol):
        raise ValueError("conjugation changed the kernel or cokernel dimension")
    return _index(tol, result)


def _snf(tol, m):
    u, d, v = abgroup.smith_normal_form(m)
    diagonal = [row[i] for i, row in enumerate(d) if i < len(row)]
    factors = [x for x in diagonal if x > 1]  # D's diagonal is nonnegative
    return _made({"u": u, "d": d, "v": v}, {"diagonal": diagonal, "invariant_factors": factors})


def _group(g, **extra):
    factors, rank = g.canonical()
    return _made(g, {"invariant_factors": factors, "free_rank": rank, **extra})


def _colim(tol, chain, invert):
    g, stage = abgroup.sequential_colimit(*chain, invert)
    return _group(g, stable_from=stage)


def _suite(tol, seed, scale):
    batteries = run_suite(seed=seed, scale=scale)["batteries"]
    # a battery that raised has no residuals: each of its keys is NaN, which fails
    keys = [(f"{b['name']}.{key}", b, key) for b in batteries for key in b["thresholds"]]
    return ({name: b["residuals"].get(key, math.nan) for name, b, key in keys},
            {name: b["thresholds"][key] for name, b, key in keys}, {"batteries": batteries}, None)


_MORPHISM = "--hom hom --src-frame frame --dst-frame frame"

VERBS = (
    Verb("frame make-units", "frames.matrix_unit_frame", "--d size --cofactor size", "frame",
         lambda tol, d, cofactor: _made(frames.matrix_unit_frame(d, cofactor))),
    Verb("frame verify", "frames.verify_frame", "--in frame", None, _frame_axioms),
    Verb("frame pi1", "frames.pi1", "--in frame --split size", "frame",
         lambda tol, fr, split: _made(frames.pi1(fr, split))),
    Verb("frame pi2", "frames.pi2", "--in frame --split size", "frame",
         lambda tol, fr, split: _made(frames.pi2(fr, split))),
    Verb("frame dot", "frames.dot", "--left frame --right frame", "frame", _dot),
    Verb("frame tensor", "frames.tensor_frame", "--left frame --right frame", "frame",
         lambda tol, left, right: _made(frames.tensor_frame(left, right))),
    Verb("frame conj", "frames.conjugate_frame", "--in frame --unitary matrix", "frame",
         lambda tol, fr, u: _made(frames.conjugate_frame(u, fr, tol))),
    Verb("frame random", "frames.random_frame", "--d size --ambient size --seed seed", "frame",
         _random_frame),
    Verb("hom ev", "homspace.ev", "--hom hom --matrix matrix", "matrix",
         lambda tol, h, x: _made(homspace.ev(h, x))),
    Verb("hom iota", "homspace.iota", "--hom hom --l size", "hom",
         lambda tol, h, l: _made(homspace.iota(h, l))),
    Verb("hom compose", "homspace.compose_phi", "--outer hom --inner hom", "hom",
         lambda tol, outer, inner: _made(homspace.compose_phi(outer, inner))),
    Verb("hom tensor", "homspace.tensor_hom", "--left hom --right hom", "hom",
         lambda tol, left, right: _made(homspace.tensor_hom(left, right))),
    Verb("hom intertwiner", "homspace.intertwiner", "--hom hom", "matrix", _intertwiner),
    Verb("hom random", "homspace.random_hom", "--src size --l size --seed seed", "hom",
         lambda tol, src, l, seed: _made(homspace.random_hom(src, l, seed))),
    Verb("alg span", "grassmannian.span_subalgebra", "--in alg", "alg", _span),
    Verb("alg centralizer", "grassmannian.centralizer", "--in alg", "alg", _centralizer),
    Verb("alg isk", "grassmannian.is_k_subalgebra", "--in alg --d size", None, _is_k),
    Verb("alg extract", "grassmannian.extract_frame", "--in alg --d size", "frame", _extract),
    Verb("alg grmap", "grassmannian.gr_map", "--hom hom --aprime alg --a alg --b alg", "alg",
         _grmap),
    Verb("alg ztensor", "grassmannian.centralizer_tensor_check",
         "--f hom --g hom --a alg --b alg --phi alg --psi alg", None, _ztensor),
    Verb("cat check-morphism", "catverify.is_c_morphism", _MORPHISM + " --split size?", None,
         lambda tol, h, src, dst, split: _within(tol, "frame_condition", frame_condition=(
             catverify.is_c_morphism(h, src, dst, split or src.d, tol)[1]))),
    Verb("cat frmap", "catverify.fr_map", _MORPHISM + " --arg frame", "frame",
         lambda tol, h, src, dst, arg: _made(catverify.fr_map(
             catverify.make_c_morphism(h, src, dst, tol), arg, tol))),
    Verb("cat naturality", "catverify.check_naturality", "--in bundle? --seed seed", None,
         _naturality),
    Verb("cat assoc", "catverify.check_associativity",
         "--a frame? --b frame? --c frame? --seed seed", None,
         lambda tol, a, b, c, seed: _within(tol, "associativity", associativity=(
             catverify.check_associativity(_or_random(a, 2, 2, seed), _or_random(
                 b, 2, 4, seed + 1), _or_random(c, 1, 2, seed + 2))))),
    Verb("cat tau", "catverify.check_tau", "--a frame? --b frame? --seed seed", None,
         lambda tol, a, b, seed: _within(tol, "tau", tau=catverify.check_tau(
             _or_random(a, 2, 2, seed), _or_random(b, 2, 6, seed + 1)))),
    Verb("cat nerve-face", "catverify.nerve_face", "--chain chain --i index", "chain",
         lambda tol, chain, i: _face(catverify.nerve_face(i, chain))),
    Verb("cat bundle-face", "catverify.bundle_face", "--chain chain --i index --matrix matrix",
         "fiber", lambda tol, chain, i, t: _face(*catverify.bundle_face(i, chain, t))),
    Verb("fred index", "fredholm.index", "--in operator", None, _index),
    Verb("fred conj", "fredholm.conjugate", "--in operator --unitary matrix", "operator",
         _fred_conj),
    Verb("fred amplify", "fredholm.amplify", "--in operator --hom hom", "operator",
         lambda tol, t, h: _index(tol, fredholm.amplify(h, t, tol))),
    Verb("fred localize", "fredholm.localize_index",
         "--stages operators --l size --start-stage index=0", None,
         lambda tol, stages, l, start: _made(None, {"index": str(fredholm.localize_index(
             stages, l, start, tol))})),
    Verb("ab snf", "abgroup.smith_normal_form", "--in ints", "json", _snf),
    Verb("ab coker", "abgroup.cokernel", "--in grouphom", "group",
         lambda tol, f: _group(abgroup.cokernel(f))),
    Verb("ab ker", "abgroup.kernel", "--in grouphom", "group",
         lambda tol, f: _group(abgroup.kernel(f))),
    Verb("ab localize", "abgroup.localize", "--in group --l size", "group",
         lambda tol, g, l: _group(abgroup.localize(g, l))),
    Verb("ab colim", "abgroup.sequential_colimit", "--file colimit --invert size", "group",
         _colim),
    Verb("suite", "suite.run_suite", "--seed seed --scale float=1.0", None, _suite),
    Verb("list-ops", None, "", None,
         lambda tol: _made(None, {"operations": {v.name: v.target for v in VERBS if v.target}})),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frcalc")
    parser.add_argument("--config", help="path to a key-value config file")
    modules = parser.add_subparsers(dest="module", required=True)
    verbs = {}
    for verb in VERBS:
        module, _, name = verb.name.partition(" ")
        if name and module not in verbs:
            verbs[module] = modules.add_parser(module).add_subparsers(dest="verb", required=True)
        p = verbs[module].add_parser(name) if name else modules.add_parser(module)
        for i, (flag, kind, required, default) in enumerate(_flags(verb.flags)):
            p.add_argument(flag, dest=f"arg{i}", metavar=kind.upper(), type=_TYPES.get(kind),
                           required=required, default=default)
        if verb.out:
            p.add_argument("--out", help=f"write the {verb.out} result to this JSON file")
        p.set_defaults(spec=verb)
    return parser


_parser = functools.cache(build_parser)


def _decode(flag, kind, value, settings):
    if kind == "seed" and value is None:
        return settings.seed
    if kind in _LEAST and value is not None and value < _LEAST[kind]:
        raise UsageError(f"{flag} {value} is less than {_LEAST[kind]}")
    if kind == "float" and value is not None and not 0 < value < math.inf:
        raise UsageError(f"{flag} {value} is not a positive finite number")
    if kind in CODECS and value is not None:
        return decode(kind, load_json(value, kind))
    return value


def _spelled(obj):
    """``obj`` with every non-finite float replaced by its name."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {key: _spelled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_spelled(value) for value in obj]
    return obj


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    verb = args.spec
    start = time.monotonic()
    report = {"verb": verb.name, "pass": False, "residuals": {}, "artifacts": []}
    try:
        settings = load_settings(args.config)
        values = [_decode(flag, kind, getattr(args, f"arg{i}"), settings)
                  for i, (flag, kind, _, _) in enumerate(_flags(verb.flags))]
        residuals, bounds, result, payload = verb.body(settings.tol, *values)
        passed, residuals = judge([residuals], bounds)
        if verb.out and args.out:
            dump_json(verb.out, payload, args.out)
            report["artifacts"].append(args.out)
    except (FormatError, UsageError, OSError) as exc:
        code, report["error"] = 2, str(exc)
    except (ValueError, ArithmeticError) as exc:
        code, report["error"] = 1, str(exc)
    else:
        code = 0 if passed else 1
        report.update({"pass": passed, "residuals": residuals})
        if result is not None:
            report["result"] = result
    report["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    print(json.dumps(_spelled(report), sort_keys=True, allow_nan=False))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
