"""The four workloads of the frcalc benchmark.

Each workload module defines

* ``ROUND_S``: nominal wall time of one round, used only to turn
  ``--seconds`` into a fixed number of rounds (the same on every commit,
  so that ``pass_s`` always times the same list of ops);
* ``make_ops(seed, rounds, workdir)``: set-up.  It generates every input
  from the seed, writes whatever the ops read from disk, and returns the
  ops of ``rounds`` whole rounds in order.

An op's ``run`` holds only the timed calls into frcalc; its ``check``
compares the output with a computation made apart from frcalc and raises
``CheckFailed`` on a mismatch.  Ops with ``known_fault`` set exercise a
fault of the program that is still open: they are expected to fail, and
their failure is counted without marking the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class CheckFailed(AssertionError):
    """An output of frcalc disagrees with the benchmark's own computation."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False
