"""The zero-dynamics (ZD) mechanism of the balance experiment, on stores
recorded along exact straight paths q[1] = a q[0] of the acrobot.

At high gain CPC pins the actuated joint to the retrieved path, and the
unactuated motion along it is left to the path's zero dynamics, which at
upright obey theta'' = lambda theta (``oracles.zd_rate``). For the acrobot
lambda < 0 exactly for slopes a in (-4.00, -3.163); falls from rest follow
the fast mode, a = -3.03, just outside that window.
"""

import numpy as np
import pytest

from cpc.control_law import CoordSplit
from cpc.controller import SIGMA_BOOT
from cpc.dynamics import acrobot_params, exact_control_matrix
from cpc.experiments import NOISE_MULT, ExperimentConfig, run_balance_trial, trial_seed
from oracles import path_store, upright_linearization, zd_rate

IN_WINDOW = (-3.6, -3.3)
OUT_OF_WINDOW = (-3.03, -2.5)


def test_upright_linearization_modes():
    # The acrobot's two unstable modes; the fast one is the direction that
    # falls from rest follow, a = -3.03 to two decimals.
    A = upright_linearization(acrobot_params())
    rates, modes = np.linalg.eig(A)
    order = np.argsort(rates)
    assert rates[order] == pytest.approx([7.15, 43.76], abs=0.005)
    fast = modes[:, order[1]]
    assert fast[1] / fast[0] == pytest.approx(-3.03, abs=0.005)


def test_zd_rate_is_negative_exactly_in_the_window():
    # lambda = (b' A v) / (b' v) on v = (1, a): its numerator vanishes at
    # a = -4.00 and its denominator at a = -3.163, and between the two it is
    # negative. The four slopes of the path-store test lie clear of both.
    params = acrobot_params()
    for a in IN_WINDOW:
        assert zd_rate(params, [1.0, a]) < 0
    for a in OUT_OF_WINDOW:
        assert zd_rate(params, [1.0, a]) > 0
    b = CoordSplit(exact_control_matrix(params, np.zeros(2)), (1,)).b
    bA = b @ upright_linearization(params)
    edge, pole = -bA[0] / bA[1], -b[0] / b[1]
    assert edge == pytest.approx(-4.00, abs=0.005)
    assert pole == pytest.approx(-3.163, abs=0.0005)
    for a in np.linspace(-5.0, -2.0, 301):
        if min(abs(a - edge), abs(a - pole)) > 1e-6:
            assert (zd_rate(params, [1.0, a]) < 0) == (edge < a < pole)


def test_in_window_path_stores_outlast_out_of_window_ones():
    # Plain CPC on one 10-path store per slope, 10 trials each at t_max 10 s
    # (master seed 0). The ZD account predicts the outcome: an out-of-window
    # path's zero dynamics diverge at rate sqrt(lambda), 3.6 to 6.5/s here,
    # so its trials fall within a few e-folding times of the 0.07 s
    # bootstrap, while an in-window path's zero dynamics do not diverge and
    # do not end a trial. The margin follows from that account, not from
    # runs: each in-window slope's mean fall time must exceed twice that of
    # every out-of-window slope. A retrieval that ignores the covector b
    # gives no such ordering.
    params = acrobot_params()
    cfg = ExperimentConfig(t_max=10.0, trials=10)
    mean_tf = {}
    for a in IN_WINDOW + OUT_OF_WINDOW:
        store = path_store(params, a, 10, trial_seed(0, f"path-store{a}", 0))
        seeds = [trial_seed(0, f"path-trial{a}", i) for i in range(cfg.trials)]
        noise = NOISE_MULT * SIGMA_BOOT
        mean_tf[a] = np.mean([run_balance_trial(store, cfg, noise, s).t_f for s in seeds])
    assert min(mean_tf[a] for a in IN_WINDOW) > 2.0 * max(mean_tf[a] for a in OUT_OF_WINDOW)
