"""Fixtures shared between test modules."""

import contextlib
import io
import time
from typing import NamedTuple

import pytest

from frcalc.cli import run


class SuiteRuns(NamedTuple):
    """Exit codes and stdout of independent in-process runs of
    ``frcalc suite --seed 7``, and the wall time of all of them."""

    codes: list
    outputs: list
    elapsed_s: float


@pytest.fixture(scope="session")
def suite_seed7_runs():
    """Two runs, made once per session: criterion 12 compares them and
    the stdout recording test reads the first."""
    codes, outputs = [], []
    start = time.monotonic()
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(run(["suite", "--seed", "7"]))
        outputs.append(out.getvalue())
    return SuiteRuns(codes, outputs, time.monotonic() - start)
