import functools

import numpy as np
import pytest
from scipy.integrate import quad

from cpc.control_law import CoordSplit, GainSpec
from cpc.dynamics import ChainParams, State, acrobot_params, exact_control_matrix
from cpc.errors import SingularMatrix, VelocityBarDegenerate
from cpc.value import candidate_costs
from oracles import (
    Candidate,
    candidate_costs_shaped,
    cost,
    expm_crit_damped,
    one_target,
    retrieve_one,
    row_errors,
    value_estimate,
)


def _make_candidate(xd, tau, G, t0, s):
    return Candidate(0, t0, s, 0.0, xd, np.asarray(tau, float), G)


def _random_instance(rng, kappa, n=2):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=n)
    B = exact_control_matrix(p, q)
    split = CoordSplit(B, p.actuated_joints)
    x0 = State(q, rng.uniform(-2, 2, size=n))
    xd = State(q + rng.uniform(-0.3, 0.3, size=n), x0.qdot + rng.uniform(-0.5, 0.5, size=n))
    t0, s = retrieve_one(x0, xd, split.b)
    cand = _make_candidate(xd, rng.normal(size=1), rng.normal(), t0, s)
    return x0, cand, B, split, GainSpec(kappa * kappa)


# ---------------------------------------------------------------------------
# value_estimate (the per-candidate oracle)
# ---------------------------------------------------------------------------


def test_value_on_target_equals_recorded_return(rng):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(0.5, 1.5, size=2)
    B = exact_control_matrix(p, q)
    split = CoordSplit(B, p.actuated_joints)
    x0 = State(q, qdot)
    cand = _make_candidate(x0, np.array([0.4]), 2.5, 0.0, 1.0)
    out = value_estimate(x0, cand, B, split, GainSpec(2000.0))
    assert out.v_I == pytest.approx(0.0, abs=1e-12)
    assert out.v_total == pytest.approx(2.5)


def test_value_acrobot_mode_sign(rng):
    # Zero reference torque and zero recorded return leave only the
    # transition quadratic, which is nonpositive under the penalty -|tau|^2.
    for _ in range(50):
        x0, cand, B, split, gain = _random_instance(rng, kappa=30.0)
        out = value_estimate(x0, cand, B, split, gain, tau_d=np.zeros(1))
        g_free = out.v_total - out.v_II
        assert g_free <= 1e-12


def test_value_quadrature_oracle(rng):
    # Closed-form transition value vs direct quadrature of the work-penalty
    # integral for the critically damped transient, at the fixed penalty
    # C = -1 and time scale T = 1.
    for trial in range(100):
        kappa = 10.0 if trial % 2 == 0 else 50.0
        try:
            x0, cand, B, split, gain = _random_instance(rng, kappa)
        except VelocityBarDegenerate:
            continue
        out = value_estimate(x0, cand, B, split, gain)
        ci = list(split.controlled)
        q_r0, qdot_r = one_target(cand.x, cand.t0, cand.s)
        dx = np.array([x0.q[ci[0]] - q_r0[ci[0]], x0.qdot[ci[0]] - qdot_r[ci[0]]])
        beta = float(B[ci[0], 0])
        tau_d = cand.tau[0]
        c = -1.0

        def dtau(t):
            k_row = np.array([gain.k, 2.0 * kappa])
            return -(k_row @ expm_crit_damped(kappa, t) @ dx) / beta

        def integrand(t):
            d = dtau(t)
            return 2.0 * tau_d * c * d + d * c * d

        val, _ = quad(integrand, 0.0, 50.0 / kappa, limit=200)
        assert out.v_I == pytest.approx(val, rel=1e-3)


def test_value_quadrature_oracle_two_actuators(rng):
    # Same check with a 2x2 controlled block to exercise the matrix path,
    # at C = -I and T = 1.
    kappa = 20.0
    B = rng.normal(size=(3, 2)) + np.vstack([np.eye(2) * 2, np.zeros((1, 2))])
    split = CoordSplit(B, (0, 1))
    ci = list(split.controlled)
    x0 = State(rng.normal(size=3), rng.normal(size=3))
    xd = State(rng.normal(size=3), rng.normal(size=3))
    C = -np.eye(2)
    cand = _make_candidate(xd, rng.normal(size=2), 0.7, 0.05, 1.1)
    out = value_estimate(x0, cand, B, split, GainSpec(kappa * kappa))

    q_r0, qdot_r = one_target(xd, cand.t0, cand.s)
    dx = np.concatenate([x0.q[ci] - q_r0[ci], x0.qdot[ci] - qdot_r[ci]])
    b_chi = B[ci, :]
    tau_d = cand.tau

    def dtau_vec(t):
        em = np.kron(expm_crit_damped(kappa, t), np.eye(2))
        k_mat = np.kron(np.array([[kappa * kappa, 2.0 * kappa]]), np.eye(2))
        return -np.linalg.solve(b_chi, (k_mat @ em @ dx))

    def integrand(t):
        d = dtau_vec(t)
        return 2.0 * tau_d @ C @ d + d @ C @ d

    val, _ = quad(integrand, 0.0, 50.0 / kappa, limit=400)
    assert out.v_I == pytest.approx(val, rel=1e-3)


def test_value_v2_linear_in_t0(rng):
    x0, cand, B, split, gain = _random_instance(rng, 20.0)
    tau_d = cand.tau
    slope_expect = -tau_d[0] ** 2 + 0.0 - cand.G
    v2 = []
    for dt0 in (0.0, 0.01):
        c2 = _make_candidate(cand.x, tau_d, cand.G, cand.t0 + dt0, cand.s)
        v2.append(value_estimate(x0, c2, B, split, gain).v_II)
    assert (v2[1] - v2[0]) / 0.01 == pytest.approx(slope_expect, rel=1e-9)


def test_value_split_invariance_high_gain(rng):
    # With one free coordinate both coordinate splits give the same
    # transition value (the projected target errors vanish identically).
    p = acrobot_params()
    for _ in range(20):
        q = rng.uniform(-1, 1, size=2)
        B = exact_control_matrix(p, q)
        x0 = State(q, rng.uniform(0.3, 2.0, size=2))
        xd = State(q + rng.uniform(-0.05, 0.05, size=2), x0.qdot + rng.uniform(-0.1, 0.1, size=2))
        vals = []
        for split in (CoordSplit(B, (0,)), CoordSplit(B, (1,))):
            t0, s = retrieve_one(x0, xd, split.b)
            cand = _make_candidate(xd, np.zeros(1), 0.0, t0, s)
            vals.append(value_estimate(x0, cand, B, split, GainSpec(10000.0)).v_I)
        assert vals[0] == pytest.approx(vals[1], rel=0.10)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_prefers_higher_return(rng):
    x0, cand, B, split, gain = _random_instance(rng, 20.0)
    lo = _make_candidate(cand.x, cand.tau, 1.0, cand.t0, cand.s)
    hi = _make_candidate(cand.x, cand.tau, 2.0, cand.t0, cand.s)
    assert cost(x0, hi, B, split, gain) < cost(x0, lo, B, split, gain)


def test_cost_zero_error_candidate_minimal(rng):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(0.5, 1.5, size=2)
    B = exact_control_matrix(p, q)
    split = CoordSplit(B, p.actuated_joints)
    x0 = State(q, qdot)
    gain = GainSpec(100.0)
    on_target = _make_candidate(x0, np.zeros(1), 0.0, 0.0, 1.0)
    c0 = cost(x0, on_target, B, split, gain, tau_d=np.zeros(1))
    assert c0 == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        xd = State(q + rng.normal(0, 0.2, size=2), qdot + rng.normal(0, 0.3, size=2))
        try:
            t0, s = retrieve_one(x0, xd, split.b)
        except VelocityBarDegenerate:
            continue
        cand = _make_candidate(xd, np.zeros(1), 0.0, t0, s)
        assert cost(x0, cand, B, split, gain, tau_d=np.zeros(1)) >= c0 - 1e-12


def test_candidate_costs_matches_scalar_path(rng):
    x0, _, B, split, gain = _random_instance(rng, 40.0)
    n = 15
    q_d = np.vstack([x0.q + rng.normal(0, 0.2, size=2) for _ in range(n)])
    qdot_d = np.vstack([x0.qdot + rng.normal(0, 0.4, size=2) for _ in range(n)])
    tau_d = rng.normal(size=(n, 1))
    g_d = rng.normal(size=n)
    t0 = rng.normal(0, 0.05, size=n)
    s = 1.0 + rng.normal(0, 0.1, size=n)
    batch = _costs(x0, (q_d, qdot_d, tau_d, g_d, np.zeros(n), t0, s), split, gain)
    for i in range(n):
        cand = _make_candidate(State(q_d[i], qdot_d[i]), tau_d[i], g_d[i], t0[i], s[i])
        assert batch[i] == pytest.approx(cost(x0, cand, B, split, gain), rel=1e-12)


# ---------------------------------------------------------------------------
# candidate_costs against the per-candidate oracle, M in {1, 2, 4}
# ---------------------------------------------------------------------------

_CHAINS = {
    "M1": ChainParams(n_links=2, actuated_joints=(1,)),
    "M2": ChainParams(n_links=3, actuated_joints=(1, 2)),
    "M4": ChainParams(n_links=5, actuated_joints=(1, 2, 3, 4)),
}


def _state_reward(x):
    return 0.3 * x.qdot[0] - x.q @ x.q


def _batch_instance(rng, params, n=12):
    """Query state, exact control matrix and split, and a batch of n
    candidate arrays (q_d, qdot_d, tau_d, g_d, r_d, t0, s), the state
    rewards r_d from ``_state_reward``, on alternating time-scale branches."""
    N, M = params.n_links, params.n_controls
    q = rng.uniform(-0.5, 0.5, N)
    B = exact_control_matrix(params, q)
    x0 = State(q, rng.uniform(-1.0, 1.0, N))
    q_d = x0.q + rng.normal(0.0, 0.2, (n, N))
    qdot_d = x0.qdot + rng.normal(0.0, 0.4, (n, N))
    r_d = np.array([_state_reward(State(q_d[i], qdot_d[i])) for i in range(n)])
    t0 = rng.normal(0.0, 0.05, n)
    s = np.resize([1.0, -1.0], n) * (1.0 + rng.normal(0.0, 0.1, n))
    batch = (q_d, qdot_d, rng.normal(size=(n, M)), rng.normal(size=n), r_d, t0, s)
    return x0, B, CoordSplit(B, params.actuated_joints), batch


def _costs(x0, batch, split, gain, costs=candidate_costs):
    """``costs`` (by default candidate_costs) on a batch of target states,
    through their errors against the renormalized targets."""
    q_d, qdot_d, tau_d, g_d, r_d, t0, s = batch
    dchi, dchidot = row_errors(x0, q_d, qdot_d, t0, s, split)
    return costs(dchi, dchidot, tau_d, g_d, r_d, t0, split, gain)


def _oracle_costs(x0, batch, B, split, gain):
    q_d, qdot_d, tau_d, g_d, _, t0, s = batch
    return np.array([
        cost(x0, Candidate(i, t0[i], s[i], 0.0, State(q_d[i], qdot_d[i]), tau_d[i], g_d[i]),
             B, split, gain, _state_reward)
        for i in range(len(t0))
    ])


@pytest.mark.parametrize("chain", list(_CHAINS))
def test_candidate_costs_matches_oracle(rng, chain):
    M = _CHAINS[chain].n_controls
    for _ in range(20):
        x0, B, split, batch = _batch_instance(rng, _CHAINS[chain])
        for k in (2000.0, 37.5):
            got = _costs(x0, batch, split, GainSpec(k))
            want = _oracle_costs(x0, batch, B, split, GainSpec(k))
            # Relative to the batch's cost scale: a candidate whose two value
            # stages cancel to near zero keeps only the rounding of the terms.
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.argmin(got) == np.argmin(want)
            # The general-penalty ranking at C = -I and T = 1 gives the same
            # numbers: the same bytes at M = 1, and at M >= 2 values equal
            # up to the sign of a zero (its sums over -I add signed zeros).
            shaped = _costs(x0, batch, split, GainSpec(k), functools.partial(
                candidate_costs_shaped, C_tau=-np.eye(M), T_gamma=1.0
            ))
            if M == 1:
                assert got.tobytes() == shaped.tobytes()
            else:
                assert np.array_equal(got, shaped)


def test_candidate_costs_singular_block_raises(rng):
    # Costs take their controlled block from a split, and a split of a
    # singular block cannot be built: the error comes before any costing.
    _, B, _, _ = _batch_instance(rng, _CHAINS["M2"])
    B[1] = 0.0  # a zero row of the controlled block
    with pytest.raises(SingularMatrix):
        CoordSplit(B, (0, 1))
