import numpy as np
import pytest
from scipy.integrate import quad

from cpc.control_law import (
    GainSpec,
    Reparam,
    null_covector,
    renormalized_target,
    reparam_params,
    split_coordinates,
)
from cpc.dynamics import State, acrobot_params, exact_control_matrix
from cpc.errors import VelocityBarDegenerate
from cpc.mathkit import expm_crit_damped
from cpc.target_store import DataPoint, TargetCandidate
from cpc.value import (
    RewardSpec,
    candidate_costs,
    cost,
    value_estimate,
)


def _make_candidate(xd, tau, G, t0, s):
    return TargetCandidate(DataPoint(0.0, xd, np.asarray(tau, float), G), 0, t0, s, 0.0)


def _random_instance(rng, kappa, n=2):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=n)
    B = exact_control_matrix(p, q)
    split = split_coordinates(B)
    b = null_covector(B, split)
    x0 = State(q, rng.uniform(-2, 2, size=n))
    xd = State(q + rng.uniform(-0.3, 0.3, size=n), x0.qdot + rng.uniform(-0.5, 0.5, size=n))
    rep = reparam_params(x0, xd, b)
    cand = _make_candidate(xd, rng.normal(size=1), rng.normal(), rep.t0, rep.s)
    return x0, cand, B, split, GainSpec(kappa * kappa)


# ---------------------------------------------------------------------------
# value_estimate
# ---------------------------------------------------------------------------


def test_value_on_target_equals_recorded_return(rng):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(0.5, 1.5, size=2)
    B = exact_control_matrix(p, q)
    split = split_coordinates(B)
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
        q_r0, qdot_r = renormalized_target(cand.point.x, Reparam(cand.t0, cand.s))
        dx = np.array([x0.q[ci[0]] - q_r0[ci[0]], x0.qdot[ci[0]] - qdot_r[ci[0]]])
        beta = float(B[ci[0], 0])
        tau_d = cand.point.tau[0]
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
    split = split_coordinates(B)
    ci = list(split.controlled)
    x0 = State(rng.normal(size=3), rng.normal(size=3))
    xd = State(rng.normal(size=3), rng.normal(size=3))
    C = -np.array([[1.0, 0.2], [0.2, 0.8]])
    spec = RewardSpec(C_tau=C)
    cand = _make_candidate(xd, rng.normal(size=2), 0.7, 0.05, 1.1)
    out = value_estimate(x0, cand, B, split, GainSpec(kappa * kappa), spec)

    q_r0, qdot_r = renormalized_target(xd, Reparam(cand.t0, cand.s))
    dx = np.concatenate([x0.q[ci] - q_r0[ci], x0.qdot[ci] - qdot_r[ci]])
    b_chi = B[ci, :]
    tau_d = cand.point.tau

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
    tau_d = cand.point.tau
    c = float(spec.C_tau[0, 0])
    slope_expect = (c * tau_d[0] ** 2 + 0.0 - cand.point.G) / spec.T_gamma
    v2 = []
    for dt0 in (0.0, 0.01):
        c2 = _make_candidate(cand.point.x, tau_d, cand.point.G, cand.t0 + dt0, cand.s)
        v2.append(value_estimate(x0, c2, B, split, gain, spec).v_II)
    assert (v2[1] - v2[0]) / 0.01 == pytest.approx(slope_expect, rel=1e-9)


def test_value_split_invariance_high_gain(rng):
    # With one free coordinate both coordinate splits give the same
    # transition value (the projected target errors vanish identically).
    p = acrobot_params()
    from cpc.control_law import CoordSplit

    for _ in range(20):
        q = rng.uniform(-1, 1, size=2)
        B = exact_control_matrix(p, q)
        x0 = State(q, rng.uniform(0.3, 2.0, size=2))
        xd = State(q + rng.uniform(-0.05, 0.05, size=2), x0.qdot + rng.uniform(-0.1, 0.1, size=2))
        vals = []
        for split in (CoordSplit((0,), (1,)), CoordSplit((1,), (0,))):
            b = null_covector(B, split)
            rep = reparam_params(x0, xd, b)
            cand = _make_candidate(xd, np.zeros(1), 0.0, rep.t0, rep.s)
            vals.append(
                value_estimate(x0, cand, B, split, GainSpec(10000.0), RewardSpec()).v_I
            )
        assert vals[0] == pytest.approx(vals[1], rel=0.10)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_prefers_higher_return(rng):
    x0, cand, B, split, gain = _random_instance(rng, 20.0)
    lo = _make_candidate(cand.point.x, cand.point.tau, 1.0, cand.t0, cand.s)
    hi = _make_candidate(cand.point.x, cand.point.tau, 2.0, cand.t0, cand.s)
    spec = RewardSpec()
    assert cost(x0, hi, B, split, gain, spec) < cost(x0, lo, B, split, gain, spec)


def test_cost_zero_error_candidate_minimal(rng):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(0.5, 1.5, size=2)
    B = exact_control_matrix(p, q)
    split = split_coordinates(B)
    x0 = State(q, qdot)
    gain = GainSpec(100.0)
    spec = RewardSpec()
    on_target = _make_candidate(x0, np.zeros(1), 0.0, 0.0, 1.0)
    c0 = cost(x0, on_target, B, split, gain, spec, tau_d=np.zeros(1))
    assert c0 == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        xd = State(q + rng.normal(0, 0.2, size=2), qdot + rng.normal(0, 0.3, size=2))
        b = null_covector(B, split)
        try:
            rep = reparam_params(x0, xd, b)
        except VelocityBarDegenerate:
            continue
        cand = _make_candidate(xd, np.zeros(1), 0.0, rep.t0, rep.s)
        assert cost(x0, cand, B, split, gain, spec, tau_d=np.zeros(1)) >= c0 - 1e-12


def test_cost_argmin_invariant_to_penalty_scale(rng):
    # In the zero-reference regime all costs scale linearly with C_tau, so
    # the ranking cannot change.
    x0, _, B, split, gain = _random_instance(rng, 25.0)
    cands = []
    for _ in range(10):
        _, cand, _, _, _ = _random_instance(rng, 25.0)
        cands.append(_make_candidate(cand.point.x, np.zeros(1), 0.0, cand.t0, cand.s))
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
    batch = candidate_costs(
        x0, q_d, qdot_d, tau_d, g_d, np.zeros(n), t0, s, B, split, gain, spec
    )
    for i in range(n):
        cand = _make_candidate(State(q_d[i], qdot_d[i]), tau_d[i], g_d[i], t0[i], s[i])
        assert batch[i] == pytest.approx(cost(x0, cand, B, split, gain, spec), rel=1e-12)
