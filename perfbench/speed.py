"""The machine-speed gauge behind every time metric of the benchmark.

On a shared host the same op, repeated in one process, takes up to 35%
longer for seconds to minutes at a time, and process CPU time follows
wall time: the cores themselves slow down.  Over runs of 10 to 40 s the
spread of raw run times from run to run stayed at 15-24% of the median,
whatever the run length.

So every timed interval is paired with samples of a fixed reference
routine from the benchmark's own code (no frcalc): Bareiss determinants
of 720 fixed 7x7 integer matrices (pure-Python integer arithmetic,
about 17 ms), followed, for the workloads in ``DENSE_WORKLOADS``, by one
SVD of a fixed 576x144 complex matrix (LAPACK on a 1.3 MB operand,
about 23 ms).  An interval is reported as ``raw * ref_s / reference
time``, the reference time being the mean of the samples taken just
before and just after it: the seconds it would have taken at the speed
at which the reference takes ``ref_s``.  A change to frcalc moves the
raw time and leaves the reference alone, so it moves the reported time
by the same factor.

The integer routine tracks the pure-Python workloads (``exact``,
``cli``) best; the LAPACK-bound ones (``subalgebra``, most of ``suite``)
slow down more than it when a neighbour loads the memory system, and
need the SVD as well.  Small LAPACK calls and the pure-Python JSON
encoder tracked worse than either.  See perfbench/README.md, "Spread and
bounds".
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

import numpy as np

from oracles import int_det

DENSE_WORKLOADS = frozenset({"suite", "subalgebra"})

# Median durations of the two parts on a 2-vCPU Xeon sandbox at 2.0 GHz
# in a quiet period, with one BLAS thread; fixed constants, so reported
# times read as seconds at that speed.
INTEGER_S = 0.017
DENSE_S = 0.023

_rnd = random.Random(20091123)
_MATRICES = [[[_rnd.randint(-99, 99) for _ in range(7)] for _ in range(7)] for _ in range(720)]
_rng = np.random.default_rng(20091123)
_DENSE = _rng.standard_normal((576, 144)) + 1j * _rng.standard_normal((576, 144))


class Gauge:
    """The reference routine of one workload."""

    def __init__(self, workload: str):
        self.dense = workload in DENSE_WORKLOADS
        self.ref_s = INTEGER_S + (DENSE_S if self.dense else 0.0)

    def sample(self) -> float:
        """Run the reference once; return its wall time in s.

        The cyclic garbage collector is off meanwhile: a collection due
        to the ops' allocations would otherwise land in the sample
        whenever the reference's own allocations tip it over its
        threshold.
        """
        gc.disable()
        try:
            start = perf_counter()
            for m in _MATRICES:
                int_det(m)
            if self.dense:
                np.linalg.svd(_DENSE, full_matrices=False)
            return perf_counter() - start
        finally:
            gc.enable()

    def normalise(self, raw, refs):
        """Scale each raw interval to the reference speed.

        ``refs[k]`` is a sample taken just before interval ``k`` and
        ``refs[len(raw)]`` one taken after the last interval.
        """
        assert len(refs) == len(raw) + 1
        return [t * self.ref_s * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(raw)]
