import math

import numpy as np
import pytest

from cpc.control_law import CoordSplit, GainSpec, reparam_params
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
        split = CoordSplit(B, params.actuated_joints)
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


def test_correspondence_gap_orthogonal_phasing_covector_raises():
    # The constraint phases by the target configuration's own covector c. A
    # target velocity orthogonal to c leaves the renormalized velocity (the
    # target's divided by s) orthogonal to it too, while the covector at x,
    # taken at another configuration, still passes the velocity guard.
    x, _ = _acrobot_pair()
    q_d = x.q + np.array([0.0, 0.5])
    c = CoordSplit(exact_control_matrix(acrobot_params(), q_d), (1,)).b
    xd = State(q_d, np.array([-c[1], c[0]]))
    with pytest.raises(PhasingDegenerate, match="orthogonal"):
        correspondence_gap(acrobot_params(), x, xd, 0.1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda x, xd, eps=eps: correspondence_gap(acrobot_params(), x, xd, eps), id=name
        )
        for name, eps in [
            ("eps_negative", -0.01),
            ("eps_gain_overflows", 1e-200),
            ("eps_zero", 0.0),
            ("eps_nan", math.nan),
            ("eps_inf", math.inf),
        ]
    ]
    + [pytest.param(lambda x, xd: GainSpec(math.inf), id="gain_inf")],
)
def test_rejects_bad_epsilon_and_gain(call):
    # A negative epsilon damps the two sides with opposite signs, a tiny one
    # overflows the gain 1/epsilon^2 and zero divides by zero: each raises
    # ValueError before any feedback is formed.
    x, xd = _acrobot_pair()
    with pytest.raises(ValueError, match="epsilon|gain"):
        call(x, xd)
