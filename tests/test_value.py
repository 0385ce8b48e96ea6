import numpy as np
import pytest
from scipy.integrate import quad

from cpc.control_law import CoordSplit, GainSpec, target_errors
from cpc.dynamics import ChainParams, State, acrobot_params, exact_control_matrix
from cpc.errors import SingularMatrix, VelocityBarDegenerate
from cpc.value import RewardSpec, candidate_costs
from oracles import Candidate, cost, expm_crit_damped, one_target, retrieve_one, value_estimate


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
    out = value_estimate(x0, cand, B, split, GainSpec(2000.0), RewardSpec())
    assert out.v_I == pytest.approx(0.0, abs=1e-12)
    assert out.v_total == pytest.approx(2.5)


def test_value_acrobot_mode_sign(rng):
    # Zero reference torque and zero recorded return leave only the
    # transition quadratic, which is nonpositive for C_tau <= 0.
    spec = RewardSpec()
    for _ in range(50):
        x0, cand, B, split, gain = _random_instance(rng, kappa=30.0)
        out = value_estimate(x0, cand, B, split, gain, spec, tau_d=np.zeros(1))
        g_free = out.v_total - out.v_II
        assert g_free <= 1e-12


def test_value_quadrature_oracle(rng):
    # Closed-form transition value vs direct quadrature of the work-penalty
    # integral for the critically damped transient.
    spec = RewardSpec()
    for trial in range(100):
        kappa = 10.0 if trial % 2 == 0 else 50.0
        try:
            x0, cand, B, split, gain = _random_instance(rng, kappa)
        except VelocityBarDegenerate:
            continue
        out = value_estimate(x0, cand, B, split, gain, spec)
        ci = list(split.controlled)
        q_r0, qdot_r = one_target(cand.x, cand.t0, cand.s)
        dx = np.array([x0.q[ci[0]] - q_r0[ci[0]], x0.qdot[ci[0]] - qdot_r[ci[0]]])
        beta = float(B[ci[0], 0])
        tau_d = cand.tau[0]
        c = float(spec.C_tau[0, 0])

        def dtau(t):
            k_row = np.array([gain.k, 2.0 * kappa])
            return -(k_row @ expm_crit_damped(kappa, t) @ dx) / beta

        def integrand(t):
            d = dtau(t)
            return 2.0 * tau_d * c * d + d * c * d

        val, _ = quad(integrand, 0.0, 50.0 / kappa, limit=200)
        v1_quad = val / spec.T_gamma
        assert out.v_I == pytest.approx(v1_quad, rel=1e-3)


def test_value_quadrature_oracle_two_actuators(rng):
    # Same check with a 2x2 controlled block to exercise the matrix path.
    kappa = 20.0
    B = rng.normal(size=(3, 2)) + np.vstack([np.eye(2) * 2, np.zeros((1, 2))])
    split = CoordSplit(B, (0, 1))
    ci = list(split.controlled)
    x0 = State(rng.normal(size=3), rng.normal(size=3))
    xd = State(rng.normal(size=3), rng.normal(size=3))
    C = -np.array([[1.0, 0.2], [0.2, 0.8]])
    spec = RewardSpec(C_tau=C)
    cand = _make_candidate(xd, rng.normal(size=2), 0.7, 0.05, 1.1)
    out = value_estimate(x0, cand, B, split, GainSpec(kappa * kappa), spec)

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
    assert out.v_I == pytest.approx(val / spec.T_gamma, rel=1e-3)


def test_value_v2_linear_in_t0(rng):
    spec = RewardSpec()
    x0, cand, B, split, gain = _random_instance(rng, 20.0)
    tau_d = cand.tau
    c = float(spec.C_tau[0, 0])
    slope_expect = (c * tau_d[0] ** 2 + 0.0 - cand.G) / spec.T_gamma
    v2 = []
    for dt0 in (0.0, 0.01):
        c2 = _make_candidate(cand.x, tau_d, cand.G, cand.t0 + dt0, cand.s)
        v2.append(value_estimate(x0, c2, B, split, gain, spec).v_II)
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
            vals.append(
                value_estimate(x0, cand, B, split, GainSpec(10000.0), RewardSpec()).v_I
            )
        assert vals[0] == pytest.approx(vals[1], rel=0.10)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_prefers_higher_return(rng):
    x0, cand, B, split, gain = _random_instance(rng, 20.0)
    lo = _make_candidate(cand.x, cand.tau, 1.0, cand.t0, cand.s)
    hi = _make_candidate(cand.x, cand.tau, 2.0, cand.t0, cand.s)
    spec = RewardSpec()
    assert cost(x0, hi, B, split, gain, spec) < cost(x0, lo, B, split, gain, spec)


def test_cost_zero_error_candidate_minimal(rng):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(0.5, 1.5, size=2)
    B = exact_control_matrix(p, q)
    split = CoordSplit(B, p.actuated_joints)
    x0 = State(q, qdot)
    gain = GainSpec(100.0)
    spec = RewardSpec()
    on_target = _make_candidate(x0, np.zeros(1), 0.0, 0.0, 1.0)
    c0 = cost(x0, on_target, B, split, gain, spec, tau_d=np.zeros(1))
    assert c0 == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        xd = State(q + rng.normal(0, 0.2, size=2), qdot + rng.normal(0, 0.3, size=2))
        try:
            t0, s = retrieve_one(x0, xd, split.b)
        except VelocityBarDegenerate:
            continue
        cand = _make_candidate(xd, np.zeros(1), 0.0, t0, s)
        assert cost(x0, cand, B, split, gain, spec, tau_d=np.zeros(1)) >= c0 - 1e-12


def test_cost_argmin_invariant_to_penalty_scale(rng):
    # In the zero-reference regime all costs scale linearly with C_tau, so
    # the ranking cannot change.
    x0, _, B, split, gain = _random_instance(rng, 25.0)
    cands = []
    for _ in range(10):
        _, cand, _, _, _ = _random_instance(rng, 25.0)
        cands.append(_make_candidate(cand.x, np.zeros(1), 0.0, cand.t0, cand.s))
    for scale in (1.0, 7.3):
        spec = RewardSpec(C_tau=-scale * np.eye(1))
        costs = [cost(x0, c, B, split, gain, spec, tau_d=np.zeros(1)) for c in cands]
        if scale == 1.0:
            base = np.argsort(costs)
            base_costs = np.array(costs)
        else:
            assert np.array_equal(np.argsort(costs), base)
            assert np.allclose(np.array(costs), 7.3 * base_costs, rtol=1e-12)


def test_candidate_costs_matches_scalar_path(rng):
    x0, _, B, split, gain = _random_instance(rng, 40.0)
    spec = RewardSpec()
    n = 15
    q_d = np.vstack([x0.q + rng.normal(0, 0.2, size=2) for _ in range(n)])
    qdot_d = np.vstack([x0.qdot + rng.normal(0, 0.4, size=2) for _ in range(n)])
    tau_d = rng.normal(size=(n, 1))
    g_d = rng.normal(size=n)
    t0 = rng.normal(0, 0.05, size=n)
    s = 1.0 + rng.normal(0, 0.1, size=n)
    batch = _costs(x0, (q_d, qdot_d, tau_d, g_d, np.zeros(n), t0, s), split, gain, spec)
    for i in range(n):
        cand = _make_candidate(State(q_d[i], qdot_d[i]), tau_d[i], g_d[i], t0[i], s[i])
        assert batch[i] == pytest.approx(cost(x0, cand, B, split, gain, spec), rel=1e-12)


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
    """Query state, exact control matrix and split, a reward spec with a
    random SPD -C_tau, and a batch of n candidate arrays (q_d, qdot_d,
    tau_d, g_d, r_d, t0, s) on either time-scale branch."""
    N, M = params.n_links, params.n_controls
    q = rng.uniform(-0.5, 0.5, N)
    B = exact_control_matrix(params, q)
    x0 = State(q, rng.uniform(-1.0, 1.0, N))
    A = rng.normal(size=(M, M))
    spec = RewardSpec(
        T_gamma=0.7, C_tau=-(A @ A.T + 0.1 * np.eye(M)), state_reward=_state_reward
    )
    q_d = x0.q + rng.normal(0.0, 0.2, (n, N))
    qdot_d = x0.qdot + rng.normal(0.0, 0.4, (n, N))
    r_d = np.array([spec.reward_at(State(q_d[i], qdot_d[i])) for i in range(n)])
    t0 = rng.normal(0.0, 0.05, n)
    s = rng.choice([-1.0, 1.0], n) * (1.0 + rng.normal(0.0, 0.1, n))
    batch = (q_d, qdot_d, rng.normal(size=(n, M)), rng.normal(size=n), r_d, t0, s)
    return x0, B, CoordSplit(B, params.actuated_joints), spec, batch


def _costs(x0, batch, split, gain, spec):
    """candidate_costs on a batch of target states, through their errors
    against the renormalized targets."""
    q_d, qdot_d, tau_d, g_d, r_d, t0, s = batch
    dchi, dchidot = target_errors(x0, q_d, qdot_d, t0, s, split)
    return candidate_costs(dchi, dchidot, tau_d, g_d, r_d, t0, split, gain, spec)


def _oracle_costs(x0, batch, B, split, gain, spec):
    q_d, qdot_d, tau_d, g_d, _, t0, s = batch
    return np.array([
        cost(x0, Candidate(i, t0[i], s[i], 0.0, State(q_d[i], qdot_d[i]), tau_d[i], g_d[i]),
             B, split, gain, spec)
        for i in range(len(t0))
    ])


@pytest.mark.parametrize("chain", list(_CHAINS))
def test_candidate_costs_matches_oracle(rng, chain):
    for _ in range(20):
        x0, B, split, spec, batch = _batch_instance(rng, _CHAINS[chain])
        for k in (2000.0, 37.5):
            got = _costs(x0, batch, split, GainSpec(k), spec)
            want = _oracle_costs(x0, batch, B, split, GainSpec(k), spec)
            # Relative to the batch's cost scale: a candidate whose two value
            # stages cancel to near zero keeps only the rounding of the terms.
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.argmin(got) == np.argmin(want)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"T_gamma": 0.0},
        {"T_gamma": float("nan")},
        {"T_gamma": float("inf")},
        {"C_tau": [[-float("inf")]]},
        {"C_tau": [[float("nan")]]},
        {"C_tau": [[1.0]]},
        {"C_tau": [[-1.0, 0.5], [0.0, -1.0]]},
    ],
    ids=[
        "T_gamma_zero", "T_gamma_nan", "T_gamma_inf", "C_tau_neg_inf", "C_tau_nan",
        "C_tau_positive", "C_tau_asymmetric",
    ],
)
def test_reward_spec_rejects_bad_scales(kwargs):
    # A NaN T_gamma or an infinite C_tau makes every candidate cost NaN or
    # infinite, and np.argmin would then quietly pick candidate 0.
    with pytest.raises(ValueError, match="T_gamma|C_tau"):
        RewardSpec(**kwargs)


def test_candidate_costs_rejects_wide_C_tau_for_one_actuator(rng):
    # A 2 x 2 penalty for one actuator must not be ranked by its [0, 0] entry.
    x0, B, split, _, batch = _batch_instance(rng, _CHAINS["M1"])
    with pytest.raises(ValueError, match="C_tau"):
        _costs(x0, batch, split, GainSpec(100.0), RewardSpec(C_tau=-np.eye(2)))


def test_candidate_costs_rejects_scalar_C_tau_for_two_actuators(rng):
    # Two actuators with the default 1 x 1 penalty: the package's error, not numpy's.
    x0, B, split, _, batch = _batch_instance(rng, _CHAINS["M2"])
    with pytest.raises(ValueError, match="C_tau"):
        _costs(x0, batch, split, GainSpec(100.0), RewardSpec())


def test_candidate_costs_singular_block_raises(rng):
    # Costs take their controlled block from a split, and a split of a
    # singular block cannot be built: the error comes before any costing.
    _, B, _, _, _ = _batch_instance(rng, _CHAINS["M2"])
    B[1] = 0.0  # a zero row of the controlled block
    with pytest.raises(SingularMatrix):
        CoordSplit(B, (0, 1))
