import numpy as np
import pytest

from cpc.control_law import GainSpec, reparam_params, split_coordinates
from cpc.dynamics import ChainParams, State, acrobot_params, exact_control_matrix
from cpc.errors import PhasingDegenerate
from cpc.zd_check import correspondence_gap
from oracles import one_target_tau


@pytest.mark.parametrize("n_links", [2, 3])
def test_correspondence_gap_matches_path_feedback(n_links):
    # With the phasing covector taken from the unactuated covector and the
    # constraint built on the renormalized target, the constraint feedback
    # equals the path feedback up to rounding, at every gain scale.
    params = ChainParams(n_links=n_links, actuated_joints=tuple(range(1, n_links)))
    rng = np.random.default_rng(n_links)
    for _ in range(20):
        x = State(rng.normal(0.0, 0.1, n_links), rng.normal(0.0, 0.5, n_links))
        xd = State(x.q + rng.normal(0.0, 0.05, n_links), x.qdot + rng.normal(0.0, 0.1, n_links))
        B = exact_control_matrix(params, x.q)
        split = split_coordinates(B)
        t0, s = reparam_params(x, xd, split.b)
        for eps in (1.0, 1e-1, 1e-2, 1e-3):
            gap = correspondence_gap(params, x, xd, eps)
            gain = GainSpec(1.0 / eps**2)
            dtau = one_target_tau(x, xd, split, t0, s, gain, np.zeros(n_links - 1))
            assert gap <= 1e-11 * np.linalg.norm(dtau)


def _acrobot_pair():
    rng = np.random.default_rng(5)
    x = State(rng.normal(0.0, 0.1, 2), rng.normal(0.0, 0.5, 2))
    xd = State(x.q + rng.normal(0.0, 0.05, 2), x.qdot + rng.normal(0.0, 0.1, 2))
    return x, xd


def test_correspondence_gap_zero_phasing_covector_raises():
    x, xd = _acrobot_pair()
    with pytest.raises(PhasingDegenerate, match="zero"):
        correspondence_gap(acrobot_params(), x, xd, 0.1, c=np.zeros(2))


def test_correspondence_gap_orthogonal_phasing_covector_raises():
    # The renormalized target velocity is the target's divided by s, so a
    # covector orthogonal to the target velocity is orthogonal to it too.
    x, xd = _acrobot_pair()
    c = np.array([-xd.qdot[1], xd.qdot[0]])
    with pytest.raises(PhasingDegenerate, match="orthogonal"):
        correspondence_gap(acrobot_params(), x, xd, 0.1, c=c)
    # A non-degenerate explicit covector is accepted.
    assert np.isfinite(correspondence_gap(acrobot_params(), x, xd, 0.1, c=xd.qdot))
