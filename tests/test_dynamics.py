import warnings

import numpy as np
import pytest

from cpc.dynamics import (
    ChainParams,
    State,
    _chain_consts,
    accel,
    acrobot_params,
    capsule_mass_props,
    energy,
    exact_control_matrix,
    manipulator_terms,
    step,
)
from cpc.errors import NonFiniteState


# ---------------------------------------------------------------------------
# Capsule mass properties vs Monte-Carlo integration oracle
# ---------------------------------------------------------------------------


def _mc_capsule(length, radius, density, n=10_000_000, seed=7):
    rng = np.random.default_rng(seed)
    half = 0.5 * length
    box_lo = np.array([-half - radius, -radius, -radius])
    box_hi = np.array([half + radius, radius, radius])
    vol_box = np.prod(box_hi - box_lo)
    # Drawn in 40 chunks to bound memory: consecutive (n // 40, 3) draws are
    # the same stream as one (n, 3) draw.
    count, r2_sum = 0, 0.0
    for _ in range(40):
        pts = rng.uniform(box_lo, box_hi, size=(n // 40, 3))
        # Distance from the segment [-half, half] on the x axis.
        ax = np.clip(pts[:, 0], -half, half)
        d2 = (pts[:, 0] - ax) ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2
        inside = d2 <= radius * radius
        count += int(inside.sum())
        # Planar inertia about the out-of-plane axis through the center of mass.
        r2_sum += float((pts[inside, 0] ** 2 + pts[inside, 1] ** 2).sum())
    mass = density * vol_box * count / n
    return mass, mass * r2_sum / count


def test_capsule_mass_value():
    mass, com, _ = capsule_mass_props(1.0, 0.1, 1.0)
    assert mass == pytest.approx(0.0356047, rel=1e-5)
    assert com == pytest.approx(0.5)


def test_capsule_against_monte_carlo():
    mass, _, inertia = capsule_mass_props(1.0, 0.1, 1.0)
    mc_mass, mc_inertia = _mc_capsule(1.0, 0.1, 1.0)
    assert mass == pytest.approx(mc_mass, rel=1e-3)
    assert inertia == pytest.approx(mc_inertia, rel=5e-3)


def test_capsule_thin_rod_limit():
    length = 1.0
    mass, _, inertia = capsule_mass_props(length, 1e-8, 1.0)
    assert inertia / mass == pytest.approx(length**2 / 12.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Manipulator terms vs an independent finite-difference Lagrangian oracle
# ---------------------------------------------------------------------------


def _com_positions(params, q):
    L = params.segment_length
    phi = np.cumsum(q)
    joints = np.zeros(2)
    out = np.empty((params.n_links, 2))
    for i in range(params.n_links):
        u = np.array([np.sin(phi[i]), np.cos(phi[i])])
        out[i] = joints + 0.5 * L * u
        joints = joints + L * u
    return out


def _com_velocities(params, q, qdot):
    # Chain-rule velocities of the raw kinematics: each absolute angle
    # rotates every downstream point by 90 degrees times its rate.
    L = params.segment_length
    phi = np.cumsum(q)
    phidot = np.cumsum(qdot)
    up = np.stack([np.cos(phi), -np.sin(phi)], axis=1)
    v = np.zeros((params.n_links, 2))
    for i in range(params.n_links):
        for k in range(i):
            v[i] += L * up[k] * phidot[k]
        v[i] += 0.5 * L * up[i] * phidot[i]
    return v


def _lagrangian_T(params, q, qdot):
    mass, _, i_com = capsule_mass_props(
        params.segment_length, params.capsule_radius, params.density
    )
    v = _com_velocities(params, q, qdot)
    phidot = np.cumsum(qdot)
    return 0.5 * mass * np.sum(v**2) + 0.5 * i_com * np.sum(phidot**2)


def _potential_V(params, q):
    mass, _, _ = capsule_mass_props(
        params.segment_length, params.capsule_radius, params.density
    )
    return mass * params.gravity * _com_positions(params, q)[:, 1].sum()


def _oracle_terms(params, q, qdot):
    n = params.n_links
    # T is quadratic in qdot, so the central second difference is exact.
    D = np.empty((n, n))
    h = 0.5
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            D[i, j] = (
                _lagrangian_T(params, q, qdot + ei + ej)
                - _lagrangian_T(params, q, qdot + ei - ej)
                - _lagrangian_T(params, q, qdot - ei + ej)
                + _lagrangian_T(params, q, qdot - ei - ej)
            ) / (4 * h * h)
    # H = (dD/dt) qdot - dT/dq + dV/dq with dD/dt from finite differences.
    hq = 1e-5
    Ddot = np.zeros((n, n))
    dTdq = np.empty(n)
    dVdq = np.empty(n)
    for k in range(n):
        dq = np.zeros(n)
        dq[k] = hq
        Dp = _oracle_D_only(params, q + dq, qdot)
        Dm = _oracle_D_only(params, q - dq, qdot)
        Ddot += (Dp - Dm) / (2 * hq) * qdot[k]
        dTdq[k] = (
            _lagrangian_T(params, q + dq, qdot) - _lagrangian_T(params, q - dq, qdot)
        ) / (2 * hq)
        dVdq[k] = (_potential_V(params, q + dq) - _potential_V(params, q - dq)) / (2 * hq)
    H = Ddot @ qdot - dTdq + dVdq
    return D, H


def _oracle_D_only(params, q, qdot):
    n = params.n_links
    D = np.empty((n, n))
    h = 0.5
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            D[i, j] = (
                _lagrangian_T(params, q, qdot + ei + ej)
                - _lagrangian_T(params, q, qdot + ei - ej)
                - _lagrangian_T(params, q, qdot - ei + ej)
                + _lagrangian_T(params, q, qdot - ei - ej)
            ) / (4 * h * h)
    return D


def test_single_link_upright_no_gravity_torque():
    p = ChainParams(n_links=1, actuated_joints=(0,))
    t = manipulator_terms(p, np.zeros(1), np.zeros(1))
    assert t.H == pytest.approx(0.0)


def test_single_link_horizontal_gravity():
    p = ChainParams(n_links=1, actuated_joints=(0,))
    mass, l_com, _ = capsule_mass_props(1.0, 0.1, 1.0)
    t = manipulator_terms(p, np.array([np.pi / 2]), np.zeros(1))
    assert abs(t.H[0]) == pytest.approx(mass * p.gravity * l_com, rel=1e-12)
    # Released from horizontal, the link must fall away from upright.
    a = accel(p, State(np.array([np.pi / 2]), np.zeros(1)), np.zeros(1))
    assert a[0] > 0


def test_terms_match_lagrangian_oracle(rng):
    p = acrobot_params()
    for _ in range(10):
        q = rng.uniform(-2, 2, size=2)
        qdot = rng.uniform(-3, 3, size=2)
        terms = manipulator_terms(p, q, qdot)
        D_o, H_o = _oracle_terms(p, q, qdot)
        assert np.abs(terms.D - D_o).max() < 1e-7
        assert np.abs(terms.H - H_o).max() < 1e-6
        tau = rng.normal(size=1)
        qdd = accel(p, State(q, qdot), tau)
        qdd_o = np.linalg.solve(D_o, _chain_consts(p).b_tau @ tau - H_o)
        assert np.abs(qdd - qdd_o).max() < 1e-6


def test_terms_match_lagrangian_oracle_three_links(rng):
    p = ChainParams(n_links=3, actuated_joints=(1, 2))
    q = rng.uniform(-1.5, 1.5, size=3)
    qdot = rng.uniform(-2, 2, size=3)
    terms = manipulator_terms(p, q, qdot)
    D_o, H_o = _oracle_terms(p, q, qdot)
    assert np.abs(terms.D - D_o).max() < 1e-7
    assert np.abs(terms.H - H_o).max() < 1e-6


def test_inertia_spd_random(rng):
    p = acrobot_params()
    for q in rng.uniform(-np.pi, np.pi, size=(10_000, 2)):
        D = manipulator_terms(p, q, np.zeros(2)).D
        assert np.abs(D - D.T).max() < 1e-12
        np.linalg.cholesky(D)  # raises if not positive definite


# ---------------------------------------------------------------------------
# accel / exact_control_matrix
# ---------------------------------------------------------------------------


def test_accel_zero_gravity_equilibrium():
    p = ChainParams(n_links=2, actuated_joints=(1,), gravity=0.0)
    a = accel(p, State(np.array([0.3, -0.7]), np.zeros(2)), np.zeros(1))
    assert np.abs(a).max() < 1e-14


def test_accel_acrobot_upright_equilibrium():
    a = accel(acrobot_params(), State(np.zeros(2), np.zeros(2)), np.zeros(1))
    assert np.abs(a).max() < 1e-12


def test_accel_residual_oracle(rng):
    p = acrobot_params()
    for _ in range(20):
        st = State(rng.uniform(-2, 2, size=2), rng.uniform(-3, 3, size=2))
        tau = rng.normal(size=1)
        qdd = accel(p, st, tau)
        terms = manipulator_terms(p, st.q, st.qdot)
        resid = terms.D @ qdd + terms.H - _chain_consts(p).b_tau @ tau
        assert np.abs(resid).max() < 1e-10


@pytest.mark.parametrize(
    "q, qdot",
    [
        ([np.inf, 0.1], [0.0, 0.0]),
        ([0.1, -np.inf], [0.0, 0.0]),
        ([np.nan, 0.1], [0.0, 0.0]),
        ([0.1, 0.1], [np.inf, 0.0]),
        ([0.1, 0.1], [0.0, np.nan]),
        ([0.1, 0.1], [1e155, 0.0]),  # finite, but qdot^2 overflows
    ],
    ids=["inf_q", "neg_inf_q", "nan_q", "inf_qdot", "nan_qdot", "overflow_qdot"],
)
def test_accel_nonfinite_state(q, qdot):
    # A non-finite state is not a singular inertia matrix: the controller
    # treats SingularMatrix as a reason to fall back, not as a divergence.
    with pytest.raises(NonFiniteState):
        accel(acrobot_params(), State(np.array(q), np.array(qdot)), np.zeros(1))


def test_control_matrix_single_link_inverse_inertia():
    p = ChainParams(n_links=1, actuated_joints=(0,))
    D = manipulator_terms(p, np.array([0.4]), np.zeros(1)).D
    B = exact_control_matrix(p, np.array([0.4]))
    assert B[0, 0] == pytest.approx(1.0 / D[0, 0])


def test_control_matrix_equals_unit_torque_response(rng):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=2)
    qdot = rng.uniform(-1, 1, size=2)
    B = exact_control_matrix(p, q)
    drift = accel(p, State(q, qdot), np.zeros(1))
    col = accel(p, State(q, qdot), np.ones(1)) - drift
    assert np.abs(B[:, 0] - col).max() < 1e-8


def test_control_matrix_continuity(rng):
    p = acrobot_params()
    q = rng.uniform(-1, 1, size=2)
    B0 = exact_control_matrix(p, q)
    deltas = [1e-2, 1e-3, 1e-4]
    diffs = [
        np.linalg.norm(exact_control_matrix(p, q + d * np.ones(2)) - B0) for d in deltas
    ]
    # First-order continuity: errors shrink proportionally to delta.
    assert diffs[1] / diffs[0] == pytest.approx(0.1, abs=0.05)
    assert diffs[2] / diffs[1] == pytest.approx(0.1, abs=0.05)


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------


def test_step_fixed_point_no_forces():
    p = ChainParams(n_links=2, actuated_joints=(1,), gravity=0.0)
    st = State(np.array([0.2, 0.1]), np.zeros(2))
    out = step(p, st, np.zeros(1), 0.01)
    assert np.abs(out.q - st.q).max() < 1e-15
    assert np.abs(out.qdot).max() < 1e-15
    assert out.t == pytest.approx(0.01)


def test_passive_energy_drift():
    p = acrobot_params()
    st = State(np.array([0.4, -0.3]), np.zeros(2))
    e0 = energy(p, st)
    for _ in range(10_000):
        st = step(p, st, np.zeros(1), 1e-3)
    assert abs(energy(p, st) - e0) / abs(e0) < 1e-6


def test_rk4_richardson_order():
    p = acrobot_params()
    st0 = State(np.array([0.3, 0.2]), np.array([0.1, -0.2]))

    def endpoint(dt):
        st = st0
        for _ in range(int(round(1.0 / dt))):
            st = step(p, st, np.zeros(1), dt)
        return st.x

    x1 = endpoint(2e-3)
    x2 = endpoint(1e-3)
    x3 = endpoint(5e-4)
    ratio = np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x3)
    assert 10 < ratio < 24  # O(dt^4) halving gives ~16


def test_work_energy_consistency():
    p = acrobot_params()
    st = State(np.array([0.1, 0.05]), np.zeros(2))
    tau = np.array([0.05])
    e0 = energy(p, st)
    work = 0.0
    dt = 1e-3
    for _ in range(2000):
        v0 = st.qdot[p.actuated_joints[0]]
        st = step(p, st, tau, dt)
        v1 = st.qdot[p.actuated_joints[0]]
        work += tau[0] * 0.5 * (v0 + v1) * dt
    de = energy(p, st) - e0
    assert de == pytest.approx(work, rel=1e-4)


def test_nonfinite_detection():
    p = acrobot_params()
    st = State(np.array([0.1, 0.1]), np.array([1e155, 0.0]))
    with pytest.raises(NonFiniteState):
        for _ in range(100):
            st = step(p, st, np.zeros(1), 1e-2)


_N5 = ChainParams(n_links=5, actuated_joints=(1, 2, 3, 4))


@pytest.mark.parametrize("params", [acrobot_params(), _N5], ids=["n2", "n5"])
# step integrates with RK4; the ids name the scheme.
@pytest.mark.parametrize("k", [1, 3], ids=["1-rk4", "3-rk4"])
def test_batched_step_matches_single_steps(params, k):
    # A (K, N) batch must give, row for row, the bits of K single-state
    # steps; K = 1 is a one-row batch.
    rng = np.random.default_rng(11)
    n, m = params.n_links, params.n_controls
    batch = State(rng.uniform(-0.3, 0.3, (k, n)), rng.uniform(-0.3, 0.3, (k, n)))
    singles = [State(batch.q[r].copy(), batch.qdot[r].copy()) for r in range(k)]
    for _ in range(200):
        tau = rng.normal(0.0, 0.05, (k, m))
        batch = step(params, batch, tau, 5e-3)
        singles = [step(params, s, tau[r], 5e-3) for r, s in enumerate(singles)]
    assert batch.q.shape == batch.qdot.shape == (k, n)
    assert batch.x.shape == (k, 2 * n)
    assert batch.t == singles[0].t
    assert batch.q.tobytes() == np.stack([s.q for s in singles]).tobytes()
    assert batch.qdot.tobytes() == np.stack([s.qdot for s in singles]).tobytes()


@pytest.mark.parametrize(
    "q, qdot",
    [
        ([0.1, 0.1], [1e155, 0.0]),
        ([np.inf, 0.1], [0.0, 0.0]),
        ([np.nan, 0.1], [0.0, 0.0]),
    ],
    ids=["overflow_qdot", "inf_q", "nan_q"],
)
def test_batched_step_nonfinite_row(q, qdot):
    # One bad row fails the whole batch, silently apart from the exception.
    qs = np.array([[0.1, -0.1], q, [0.2, 0.0]])
    qdots = np.array([[0.0, 0.1], qdot, [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            step(acrobot_params(), State(qs, qdots), np.zeros((3, 1)), 1e-2)


def test_batched_step_rejects_unbatched_tau():
    with pytest.raises(ValueError):
        step(acrobot_params(), State(np.zeros((3, 2)), np.zeros((3, 2))), np.zeros(1), 1e-2)


@pytest.mark.parametrize(
    "call",
    [
        lambda p, st: accel(p, st, np.zeros(1)),
        lambda p, st: energy(p, st),
        lambda p, st: manipulator_terms(p, st.q, st.qdot),
    ],
    ids=["accel", "energy", "manipulator_terms"],
)
def test_single_state_functions_reject_batch(call):
    # Only step takes a batch; the others say so instead of failing inside
    # the kernel.
    with pytest.raises(ValueError, match="one state"):
        call(acrobot_params(), State(np.zeros((3, 2)), np.zeros((3, 2))))


@pytest.mark.parametrize(
    "q, qdot",
    [(np.zeros(1), np.zeros(1)), (np.zeros((3, 1)), np.zeros((3, 1))), (np.zeros(3), np.zeros(3)),
     (np.zeros(2), np.zeros((1, 2)))],
    ids=["one_link_state", "one_link_batch", "three_link_state", "mixed_shapes"],
)
def test_step_rejects_state_of_other_shape(q, qdot):
    # A state that is not (N,) or (K, N) on the acrobot must not integrate
    # as some other chain, nor fail inside the kernel.
    with pytest.raises(ValueError, match="must share a shape"):
        step(acrobot_params(), State(q, qdot), np.zeros(1), 1e-2)


@pytest.mark.parametrize(
    "kwargs",
    [{"actuated_joints": (1.7,)}, {"actuated_joints": (True,)}, {"n_links": 2.0}],
    ids=["joint_not_integer", "joint_bool", "n_links_float"],
)
def test_chain_params_layout_rule(kwargs):
    # The same layout rule as a stored dataset's header: indices are ints,
    # never bools or floats that happen to be integral.
    with pytest.raises(ValueError, match="bad chain layout"):
        ChainParams(**kwargs)
