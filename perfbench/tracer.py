"""Traced runs: every public function of every frcalc module is wrapped
by a span recorder installed from outside the package.

Modules import names directly (``from .frames import dot``), so a
wrapper is bound wherever the original function is bound: in every
loaded ``frcalc`` module and package namespace, and inside module-level
lists such as ``suite.ALL_BATTERIES``.  Each span records its function,
start, end, parent span and op id in flat arrays kept in memory; they
are written out once the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("linalg", "frames", "homspace", "grassmannian", "catverify", "fredholm",
           "abgroup", "generators", "suite", "serialize", "cli", "config")

FUNCTIONS = {
    "frames": ("verify_frame", "dot", "pi1", "pi2", "tensor_frame", "conjugate_frame"),
    "homspace": ("ev", "iota", "compose_plain", "push_frame", "intertwiner",
                 "intertwiner_residual"),
    "grassmannian": ("centralizer", "relative_centralizer", "span_subalgebra",
                     "extract_frame", "centralizer_tensor_check"),
    "linalg": ("orthonormal_span", "subspace_distance", "random_unitary"),
    "catverify": ("check_naturality", "check_associativity", "nerve_face", "fr_map"),
    "fredholm": ("amplify", "index"),
    "abgroup": ("smith_normal_form", "kernel", "cokernel", "sequential_colimit"),
    "serialize": ("dump_json", "load_json"),
    "cli": ("run", "build_parser"),
}

# Spans owned by the benchmark itself, with fixed function ids: the root
# span of every op and the bookkeeping done after a wrapped call returns.
BENCH_OP, BENCH_HOOK = 0, 1


class Tracer:
    def __init__(self):
        self.names = ["bench.op", "bench.hook"]
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_op = -1
        self.counters = {"transform_bits_max": 0, "bytes_written": 0, "bytes_read": 0}

    # -- span recording --------------------------------------------------

    def _open(self, fid):
        idx = len(self.start)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id, fn):
        """Run one op under a root span owned by the benchmark."""
        self.current_op = op_id
        idx = self._open(BENCH_OP)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, fn, fid, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(BENCH_HOOK)
                try:
                    hook(self.counters, args, kwargs, result)
                finally:
                    self._close(h)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function of the frcalc modules and rebind
        each wrapper wherever its original is bound."""
        originals = {}
        for module in MODULES:
            mod = importlib.import_module(f"frcalc.{module}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self.names.append(f"{module}.{name}")
                    fid = len(self.names) - 1
                    originals[id(obj)] = self._wrap(obj, fid, _HOOKS.get((module, name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "frcalc" and not modname.startswith("frcalc."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, name, originals[id(obj)])
                elif isinstance(obj, list):
                    obj[:] = [originals.get(id(x), x) for x in obj]

    # -- results ---------------------------------------------------------

    def arrays(self):
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, untraced_pass_s):
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        self_s = dur - np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                   minlength=len(dur))
        nfun = len(self.names)
        calls = np.bincount(a["fid"], minlength=nfun)
        self_by_fid = np.bincount(a["fid"], weights=self_s, minlength=nfun)
        index = {name: i for i, name in enumerate(self.names)}

        values = {}
        for module in MODULES:
            fids = [i for i, n in enumerate(self.names) if n.startswith(module + ".")]
            values[f"{module}.calls"] = int(calls[fids].sum())
            values[f"{module}.self_s"] = float(self_by_fid[fids].sum())
        for module, names in FUNCTIONS.items():
            for name in names:
                i = index[f"{module}.{name}"]
                values[f"{module}.{name}.calls"] = int(calls[i])
                values[f"{module}.{name}.self_s"] = float(self_by_fid[i])
        runs = dur[a["fid"] == index["cli.run"]] * 1000
        pass_s = float(dur[a["fid"] == BENCH_OP].sum())
        values.update({
            "abgroup.smith_normal_form.transform_bits_max": self.counters["transform_bits_max"],
            "serialize.bytes_written": self.counters["bytes_written"],
            "serialize.bytes_read": self.counters["bytes_read"],
            "cli.run_p50_ms": float(np.percentile(runs, 50)) if len(runs) else 0.0,
            "cli.run_p90_ms": float(np.percentile(runs, 90)) if len(runs) else 0.0,
            "trace.pass_s": pass_s,
            "trace.bench_self_s": float(self_by_fid[BENCH_OP] + self_by_fid[BENCH_HOOK]),
            "trace.overhead_s": pass_s - untraced_pass_s,
        })
        return values


def _snf_bits(counters, args, kwargs, result):
    u, _, v = result
    bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)
    counters["transform_bits_max"] = max(counters["transform_bits_max"], bits)


def _bytes_written(counters, args, kwargs, result):
    counters["bytes_written"] += os.path.getsize(kwargs.get("path", args[-1]))


def _bytes_read(counters, args, kwargs, result):
    counters["bytes_read"] += os.path.getsize(kwargs.get("path", args[0]))


_HOOKS = {
    ("abgroup", "smith_normal_form"): _snf_bits,
    ("serialize", "dump_json"): _bytes_written,
    ("serialize", "load_json"): _bytes_read,
}
