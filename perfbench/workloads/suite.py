"""`suite`: each op is one ``run_suite(seed=s, scale=SCALE)``.

At SCALE = 0.12 every battery still cycles through all of its shapes
(naturality 12 draws over its 5 configs, centralizer-tensor 3 over its 3,
nerve 6 chains of length 2, 3 and 4), and the battery shares stay close
to those of a full run, where nerve and naturality dominate.
"""

from __future__ import annotations

import json
import math

from frcalc import suite

from workloads import Op, expect

SCALE = 0.12
ROUND_S = 2.2

# Thresholds pinned by tests/test_acceptance.py (and, for the functoriality
# battery that no criterion covers, by frcalc/suite.py), copied here so
# that a loosened threshold in the report cannot pass unnoticed.
THRESHOLDS = {
    "frame_axioms": {"max_axiom_error": 1e-9},
    "reconstruction": {"max_entry_error": 1e-9},
    "intertwiner": {"residual": 1e-8, "coset_deviation": 1e-7},
    "centralizer": {"wrong_dimension_count": 0.0, "double_centralizer_distance": 1e-8},
    "naturality": {"square_residual": 1e-8, "witness_residual": 1e-8},
    "coherence_diagrams": {"associativity": 0.0, "identity": 1e-9, "tau": 1e-9},
    "centralizer_tensor": {"subspace_distance": 1e-8},
    "ev_composition": {"max_entry_error": 1e-9},
    "fredholm_index": {"conjugation_violations": 0.0, "amplification_violations": 0.0},
    "nerve": {"simplicial_identity": 1e-9, "bundle_compatibility": 1e-9,
              "degeneracy_roundtrip": 0.0},
    "fr_functoriality": {"max_entry_error": 1e-8},
    "abgroup": {"snf_failures": 0.0, "coker_ker_failures": 0.0,
                "colimit_failures": 0.0, "localize_failures": 0.0},
}


class ReportCheck:
    """Checks one suite report; a seed seen before must give the same
    report byte for byte (the report carries no timing)."""

    def __init__(self):
        self.seen = {}

    def __call__(self, report):
        expect(report["pass"] is True, "suite reports a failing battery")
        names = [b["name"] for b in report["batteries"]]
        expect(names == list(THRESHOLDS), f"unexpected batteries {names}")
        for battery in report["batteries"]:
            limits = THRESHOLDS[battery["name"]]
            expect(set(battery["residuals"]) == set(limits),
                   f"{battery['name']}: unexpected residual keys")
            for key, value in battery["residuals"].items():
                expect(math.isfinite(value) and value <= limits[key],
                       f"{battery['name']}.{key} = {value!r} exceeds {limits[key]}")
        text = json.dumps(report, sort_keys=True)
        previous = self.seen.setdefault(report["seed"], text)
        expect(previous == text, f"seed {report['seed']} gave two different reports")


def make_ops(seed, rounds, workdir):
    check = ReportCheck()
    return [Op(lambda s=seed * 1000 + i: suite.run_suite(seed=s, scale=SCALE), check)
            for i in range(rounds)]
