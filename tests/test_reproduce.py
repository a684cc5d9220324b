"""The paper's claims as reproduce.orderings states them, each at its
boundary, on hand-made reports."""
import numpy as np
import pytest

from kinedeep import bench, reproduce

ORDERINGS = ["ours_joint_le_direct_parameter", "ours_angle_lt_direct_joint_ik",
             "ours_invalid_le_1pct", "ours_invalid_lt_no_phy"]


def reports(ours_joint=10.0, ours_angle=10.0, ours_invalid=0.0, no_phy_invalid=0.5):
    """The four modes' reports; by default ours passes every ordering."""
    def report(joint=20.0, angle=20.0, invalid=0.5):
        return bench.MetricsReport(joint, [], angle, invalid, n_frames=100)

    return {reproduce.OURS: report(ours_joint, ours_angle, ours_invalid),
            reproduce.OURS_NO_PHY: report(invalid=no_phy_invalid),
            reproduce.DIRECT_JOINT: report(invalid=float("nan")),
            reproduce.DIRECT_PARAMETER: report()}


@pytest.mark.parametrize("changes, name, passes", [
    ({}, None, True),
    # (a) ours no worse on joints than direct_parameter: equal passes
    ({"ours_joint": 20.0}, ORDERINGS[0], True),
    ({"ours_joint": np.nextafter(20.0, 21.0)}, ORDERINGS[0], False),
    # (b) ours better on angles than direct_joint fitted by IK: equal fails
    ({"ours_angle": 20.0}, ORDERINGS[1], False),
    ({"ours_angle": np.nextafter(20.0, 19.0)}, ORDERINGS[1], True),
    # (c) ours invalid in at most 1 % of frames: exactly 1 % passes
    ({"ours_invalid": 0.01}, ORDERINGS[2], True),
    ({"ours_invalid": np.nextafter(0.01, 1.0)}, ORDERINGS[2], False),
    # (d) ours invalid less often than without the penalty: equal fails
    ({"ours_invalid": 0.005, "no_phy_invalid": 0.005}, ORDERINGS[3], False),
    ({"ours_invalid": 0.005, "no_phy_invalid": np.nextafter(0.005, 1.0)},
     ORDERINGS[3], True),
], ids=["all_pass", "a_equal", "a_above", "b_equal", "b_below", "c_1pct",
        "c_above_1pct", "d_equal", "d_below"])
def test_orderings_at_their_boundaries(changes, name, passes):
    table = reports(**changes)
    before = {mode: report.to_dict() for mode, report in table.items()}
    got = reproduce.orderings(table)
    assert list(got) == ORDERINGS
    assert got == {key: passes if key == name else True for key in ORDERINGS}
    assert all(type(ok) is bool for ok in got.values())  # JSON true/false
    # pure: the reports are left as they were, and a second call agrees
    assert {mode: report.to_dict() for mode, report in table.items()} == before
    assert reproduce.orderings(table) == got
