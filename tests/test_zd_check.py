import numpy as np
import pytest

from cpc.control_law import GainSpec, cpc_tau, null_covector, reparam_params, split_coordinates
from cpc.dynamics import ChainParams, State, exact_control_matrix
from cpc.zd_check import correspondence_gap


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
        rep = reparam_params(x, xd, null_covector(B, split))
        for eps in (1.0, 1e-1, 1e-2, 1e-3):
            gap = correspondence_gap(params, x, xd, eps)
            dtau = cpc_tau(x, xd, B, split, rep, GainSpec(1.0 / eps**2), np.zeros(n_links - 1))
            assert gap <= 1e-11 * np.linalg.norm(dtau)
