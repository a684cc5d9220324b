import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from kinedeep import skeleton as sk


def pytest_collection_modifyitems(items):
    # any warning a test here raises is an error; a test that provokes one
    # on purpose ignores it by message with its own filterwarnings mark,
    # which is applied after this one and so wins. Tests outside this
    # directory (the benchmark's smoke test) keep the default filters.
    here = os.path.dirname(__file__)
    for item in items:
        if os.path.dirname(str(item.path)) == here:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture(scope="session")
def hand():
    return sk.default_hand()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240917)


def sample_in_bounds(skel, rng, n=1, margin=0.0):
    """Uniform poses strictly inside the DOF box (margin as range fraction)."""
    lo = skel.dof_lower + margin * (skel.dof_upper - skel.dof_lower)
    hi = skel.dof_upper - margin * (skel.dof_upper - skel.dof_lower)
    out = rng.uniform(lo, hi, size=(n, skel.n_dofs))
    return out[0] if n == 1 else out
