"""Input guards of the library functions that no battery or CLI test
reaches: each refuses its input with a ValueError that names the fault."""

import pytest

from frcalc import abgroup, fredholm, frames, homspace, linalg
from frcalc.abgroup import AbGroupPresentation

_GUARDS = {
    "localize at 0": (
        lambda: abgroup.localize(AbGroupPresentation.cyclic(12), 0), "l must be positive"),
    "colimit of two groups with no map": (
        lambda: abgroup.sequential_colimit([AbGroupPresentation.free(1)] * 2, [], 2),
        "exactly one map"),
    "matrix-unit frame of degree 0": (
        lambda: frames.matrix_unit_frame(0, 1), "must be positive"),
    "closeness of frames of degrees 2 and 1": (
        lambda: frames.frames_close(frames.matrix_unit_frame(2, 1), frames.trivial_frame(2)),
        "different shape"),
    "reindex of a degree-2 frame by radices (3,)": (
        lambda: frames.reindex_frame(frames.matrix_unit_frame(2, 1), (3,), (0,)),
        "do not factor"),
    "localized index of no stages": (
        lambda: fredholm.localize_index([], 2), "at least one stage"),
    "suspension by M_0": (
        lambda: homspace.iota(homspace.identity_hom(2), 0), "l must be positive"),
    "M_2 -> M_6 after M_2 -> M_4": (
        lambda: homspace.compose_plain(homspace.basepoint_hom(2, 3), homspace.basepoint_hom(2, 2)),
        "not composable"),
    "push of an M_4 frame through an M_2 hom": (
        lambda: homspace.push_frame(homspace.identity_hom(2), frames.matrix_unit_frame(2, 2)),
        "source algebra"),
    "tolerance of zero absolute epsilon": (
        lambda: linalg.Tolerance(abs_eps=0.0), "must be positive"),
}


@pytest.mark.parametrize("case", _GUARDS)
def test_guard_refuses_its_input(case):
    call, error = _GUARDS[case]
    with pytest.raises(ValueError, match=error):
        call()
