import ast
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from oracles import b_tau, energy, lane_terms_full, step_axpy

from cpc import dynamics
from cpc.dynamics import (
    ChainParams,
    State,
    _chain_consts,
    _generalized_forces,
    _lane_solve,
    _lane_terms,
    _trace_accel,
    acrobot_params,
    capsule_mass_props,
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


def _accel(params, q, qdot, tau):
    """Joint accelerations from the traced kernel of ``params``, run on the
    float lanes of one state, as ``step`` runs it."""
    ops = math
    gen = _generalized_forces(params, np.asarray(tau, dtype=float).tolist())
    lanes = (np.asarray(v, dtype=float).tolist() for v in (q, qdot))
    return np.array(_chain_consts(params).accel(ops.sin, ops.cos, ops.sqrt, *lanes, gen))


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
    a = _accel(p, [np.pi / 2], np.zeros(1), np.zeros(1))
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
        qdd = _accel(p, q, qdot, tau)
        qdd_o = np.linalg.solve(D_o, b_tau(p) @ tau - H_o)
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
# Accelerations / exact_control_matrix
# ---------------------------------------------------------------------------


def test_accel_zero_gravity_equilibrium():
    p = ChainParams(n_links=2, actuated_joints=(1,), gravity=0.0)
    a = _accel(p, [0.3, -0.7], np.zeros(2), np.zeros(1))
    assert np.abs(a).max() < 1e-14


def test_accel_acrobot_upright_equilibrium():
    a = _accel(acrobot_params(), np.zeros(2), np.zeros(2), np.zeros(1))
    assert np.abs(a).max() < 1e-12


def test_accel_residual_oracle(rng):
    p = acrobot_params()
    for _ in range(20):
        st = State(rng.uniform(-2, 2, size=2), rng.uniform(-3, 3, size=2))
        tau = rng.normal(size=1)
        qdd = _accel(p, st.q, st.qdot, tau)
        terms = manipulator_terms(p, st.q, st.qdot)
        resid = terms.D @ qdd + terms.H - b_tau(p) @ tau
        assert np.abs(resid).max() < 1e-10


_N1 = ChainParams(n_links=1, actuated_joints=(0,))
_N5 = ChainParams(n_links=5, actuated_joints=(1, 2, 3, 4))


@pytest.mark.parametrize(
    "params, q, qdot",
    [
        (acrobot_params(), [np.inf, 0.1], [0.0, 0.0]),
        (acrobot_params(), [0.1, -np.inf], [0.0, 0.0]),
        (acrobot_params(), [np.nan, 0.1], [0.0, 0.0]),
        (acrobot_params(), [0.1, 0.1], [np.inf, 0.0]),
        (acrobot_params(), [0.1, 0.1], [0.0, np.nan]),
        (acrobot_params(), [0.1, 0.1], [1e155, 0.0]),  # finite, but qdot^2 overflows
        (acrobot_params(), [0.1, np.nan], [0.0, 0.0]),
        (acrobot_params(), [0.1, 0.1], [np.nan, 0.0]),
        (acrobot_params(), [0.1, 0.1], [0.0, -np.inf]),
        (_N1, [np.nan], [0.0]),
        (_N1, [np.inf], [0.0]),
        (_N1, [0.1], [np.nan]),
        (_N1, [0.1], [np.inf]),
        (_N1, [0.1], [-np.inf]),
        (_N5, [0.1, 0.1, 0.1, 0.1, np.nan], [0.0] * 5),
        (_N5, [np.inf, 0.1, 0.1, 0.1, 0.1], [0.0] * 5),
        (_N5, [0.1] * 5, [0.0, 0.0, 0.0, 0.0, np.nan]),
        (_N5, [0.1] * 5, [np.inf, 0.0, 0.0, 0.0, 0.0]),
        (_N5, [0.1] * 5, [0.0, 0.0, 1e155, 0.0, 0.0]),
        # Finite angles whose sum overflows to inf.
        (acrobot_params(), [1e308, 1e308], [0.0, 0.0]),
        (_N5, [1e308] * 5, [0.0] * 5),
    ],
    ids=["inf_q", "neg_inf_q", "nan_q", "inf_qdot", "nan_qdot", "overflow_qdot",
         "n2_nan_q_last", "n2_nan_qdot_first", "n2_neg_inf_qdot_last",
         "n1_nan_q", "n1_inf_q", "n1_nan_qdot", "n1_inf_qdot", "n1_neg_inf_qdot",
         "n5_nan_q_last", "n5_inf_q_first", "n5_nan_qdot_last", "n5_inf_qdot_first",
         "n5_overflow_qdot", "n2_overflow_angle_sum", "n5_overflow_angle_sum"],
)
def test_accel_nonfinite_state(params, q, qdot):
    # A step from a non-finite state raises NonFiniteState, never a numpy
    # warning, as one state and as a one-row batch. A single link's velocity
    # does not reach its accelerations, but it reaches the new state.
    q, qdot, tau = np.array(q), np.array(qdot), np.zeros(params.n_controls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for st, t in ((State(q, qdot), tau), (State(q[None], qdot[None]), tau[None])):
            with pytest.raises(NonFiniteState):
                step(params, st, t, 1e-2)


@pytest.mark.parametrize("n_links", [1, 2, 5])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("col", [0, -1], ids=["first", "last"])
def test_manipulator_terms_nonfinite_angle(n_links, bad, col):
    # Every entry is NaN, the last diagonal entry of D included, which the
    # kernel holds as a chain constant.
    p = ChainParams(n_links=n_links, actuated_joints=(0,))
    q = np.full(n_links, 0.2)
    q[col] = bad
    terms = manipulator_terms(p, q, np.full(n_links, 0.3))
    assert np.isnan(terms.D).all() and np.isnan(terms.H).all()
    assert np.isnan(exact_control_matrix(p, q)).all()


@pytest.mark.parametrize(
    "params, q", [(acrobot_params(), [1e308, 1e308]), (_N5, [1e308] * 5)], ids=["n2", "n5"]
)
def test_manipulator_terms_overflowing_angle_sum(params, q):
    # Finite angles whose sum, and so sin and cos of it, is not finite.
    terms = manipulator_terms(params, np.array(q), np.zeros(params.n_links))
    assert np.isnan(terms.D).all() and np.isnan(terms.H).all()


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
    drift = _accel(p, q, qdot, np.zeros(1))
    col = _accel(p, q, qdot, np.ones(1)) - drift
    assert np.abs(B[:, 0] - col).max() < 1e-8


def test_control_matrix_columns_follow_actuated_joint_order(rng):
    # Column i of B belongs to actuated joint i, in the order the chain
    # lists them, so listing the joints reversed reverses the columns.
    forward = ChainParams(n_links=3, actuated_joints=(1, 2))
    backward = ChainParams(n_links=3, actuated_joints=(2, 1))
    for q in rng.uniform(-3, 3, size=(20, 3)):
        want = exact_control_matrix(forward, q)[:, ::-1]
        assert exact_control_matrix(backward, q).tobytes() == want.tobytes()


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
        return np.concatenate([st.q, st.qdot])

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
    assert batch.t == singles[0].t
    assert batch.q.tobytes() == np.stack([s.q for s in singles]).tobytes()
    assert batch.qdot.tobytes() == np.stack([s.qdot for s in singles]).tobytes()


@pytest.mark.parametrize(
    "params",
    [
        ChainParams(n_links=1, actuated_joints=(0,)),
        acrobot_params(),
        ChainParams(n_links=3, actuated_joints=(1, 2)),
        _N5,
    ],
    ids=["n1", "n2", "n3", "n5"],
)
def test_step_matches_axpy_rk4(params):
    # step integrates one first-order state (q, qdot); integrating q and
    # qdot as two vectors by axpy must give the same bits, on float lanes
    # for one state and a one-row batch and on array lanes for K = 3 and
    # K = 20 rows. A quarter of the entries, and every entry of the last
    # draw, are -0.0.
    rng = np.random.default_rng(params.n_links)
    n, m = params.n_links, params.n_controls

    def draw(shape, scale, p_zero):
        return np.where(rng.random(shape) < p_zero, -0.0, rng.normal(0.0, scale, shape))

    for shape in ((n,), (1, n), (3, n), (20, n)):
        tau_shape = shape[:-1] + (m,)
        for p_zero in [0.25] * 20 + [1.0]:
            st = State(draw(shape, 0.5, p_zero), draw(shape, 1.0, p_zero), 0.25)
            tau = draw(tau_shape, 0.1, p_zero)
            got, want = step(params, st, tau, 1e-2), step_axpy(params, st, tau, 1e-2)
            assert got.q.shape == got.qdot.shape == want.q.shape == shape
            assert got.q.tobytes() == want.q.tobytes()
            assert got.qdot.tobytes() == want.qdot.tobytes()
            assert got.t == want.t


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "neg_inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p, bad: step(p, State(np.zeros(2), np.zeros(2)), np.array([bad]), 1e-2),
        lambda p, bad: step(p, State(np.zeros((1, 2)), np.zeros((1, 2))), np.array([[bad]]), 1e-2),
        lambda p, bad: step(
            p, State(np.zeros((3, 2)), np.zeros((3, 2))), np.array([[0.0], [bad], [0.0]]), 1e-2
        ),
    ],
    ids=["step_state", "step_one_row_batch", "step_batch"],
)
def test_non_finite_torque_raises_without_warning(call, bad):
    # A torque entry of inf would meet the zeros of the torque selection in
    # B_tau @ tau, and 0 * inf warns; it must raise the package's error first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match="torque"):
            call(acrobot_params(), bad)


@pytest.mark.parametrize(
    "q_shape, tau_shape",
    [((3, 2), (1,)), ((1, 2), (1,)), ((2,), (2,)), ((2,), (1, 1)), ((2,), ())],
    ids=["batch_unbatched_tau", "one_row_batch_unbatched_tau", "state_tau_too_long",
         "state_batched_tau", "state_scalar_tau"],
)
def test_step_rejects_tau_of_other_shape(q_shape, tau_shape):
    # tau is (M,) for an (N,) state and (K, M) for a (K, N) batch, K = 1
    # included; on the acrobot M = 1.
    st = State(np.zeros(q_shape), np.zeros(q_shape))
    with pytest.raises(ValueError, match="tau must have shape"):
        step(acrobot_params(), st, np.zeros(tau_shape), 1e-2)


@pytest.mark.parametrize(
    "call",
    [
        lambda p, st: energy(p, st),
        lambda p, st: manipulator_terms(p, st.q, st.qdot),
    ],
    ids=["energy", "manipulator_terms"],
)
def test_single_state_functions_reject_batch(call):
    # Only step takes a batch; the others say so instead of failing inside
    # the kernel.
    with pytest.raises(ValueError, match="one state"):
        call(acrobot_params(), State(np.zeros((3, 2)), np.zeros((3, 2))))


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_step_rejects_bad_dt(dt):
    # A NaN or infinite step is the caller's error, not a diverging state.
    st = State(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        step(acrobot_params(), st, np.zeros(1), dt)


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


@pytest.mark.parametrize(
    "kwargs",
    [{"gravity": np.inf}, {"gravity": np.nan}, {"segment_length": np.nan},
     {"capsule_radius": np.nan}, {"density": np.inf}],
    ids=["gravity_inf", "gravity_nan", "segment_length_nan", "capsule_radius_nan", "density_inf"],
)
def test_chain_params_rejects_non_finite(kwargs):
    # A non-finite geometry or gravity must fail here, not as NonFiniteState
    # at the first step. Finite values whose chain constants overflow are
    # checked with the traced kernel below.
    with pytest.raises(ValueError, match="finite"):
        ChainParams(**kwargs)


# ---------------------------------------------------------------------------
# Traced kernel vs the lane kernel it is traced from
# ---------------------------------------------------------------------------


def _lane_reference(ops, c, q, qdot, gen):
    D, H = _lane_terms(ops, c, q, qdot)
    (x,) = _lane_solve(ops, D, [[g - h for g, h in zip(gen, H)]])
    return x


def _trace_inputs(n):
    """500 random (q, qdot, gen) rows, then edge rows: -0.0 entries, NaN and
    +-inf in q and in qdot, and a velocity whose square overflows."""
    rng = np.random.default_rng(n)
    q = rng.uniform(-4.0, 4.0, (500, n))
    qdot = rng.normal(0.0, 3.0, (500, n)) * 10.0 ** rng.integers(-3, 4, (500, 1))
    gen = rng.normal(0.0, 0.5, (500, n))
    edges = []
    for value in (-0.0, np.nan, np.inf, -np.inf, 1e155):
        for in_q in (True, False):
            if in_q and value == 1e155:
                continue
            for col in {0, n - 1}:
                eq, eqd = np.full(n, 0.3), np.full(n, -0.2)
                (eq if in_q else eqd)[col] = value
                edges.append((eq, eqd))
    # Rows of signed zeros, with zero forces of either sign.
    for _ in range(50):
        edges.append((rng.choice([0.0, -0.0], n), rng.choice([0.0, -0.0, 0.5, -0.5], n)))
    q = np.vstack([q, [e[0] for e in edges]])
    qdot = np.vstack([qdot, [e[1] for e in edges]])
    gen = np.vstack([gen, rng.choice([0.0, -0.0], (len(edges), n))])
    return q, qdot, gen


def _float_outcomes(f, q, qdot, gen):
    """f(*row) on the float lanes of each row: the bytes of its result, or
    the type of the ValueError or ZeroDivisionError it raised."""
    out = []
    for row in zip(q.tolist(), qdot.tolist(), gen.tolist()):
        try:
            out.append(np.array(f(*row)).tobytes())
        except (ValueError, ZeroDivisionError) as e:
            out.append(type(e))
    return out


_TRACE_CHAINS = [
    {"n_links": 1, "actuated_joints": (0,)},
    {},
    {"n_links": 3, "actuated_joints": (1, 2)},
    {"n_links": 5, "actuated_joints": (1, 2, 3, 4)},
    # Finite parameters whose constants overflow: gravity weights of inf,
    # and an infinite mass times zero gravity, NaN.
    {"gravity": 1e308, "density": 1e3},
    {"gravity": 0.0, "density": 1e308, "capsule_radius": 10.0},
]
_TRACE_IDS = ["n1", "n2", "n3", "n5", "n2_inf_weights", "n2_nan_weights"]


def _traced_chain(kwargs, monkeypatch):
    """The chain's parameters and constants with their traced kernel, or
    None for a chain whose constants overflow: ChainParams refuses it before
    the tracer runs, so a trace never holds a non-finite constant."""
    traced = []
    trace = dynamics._trace_accel
    monkeypatch.setattr(dynamics, "_trace_accel", lambda c: traced.append(c) or trace(c))
    try:
        params = ChainParams(**kwargs)
    except ValueError as e:
        assert "must be finite" in str(e) and not traced
        return None
    return params, _chain_consts(params)


@pytest.mark.parametrize("kwargs", _TRACE_CHAINS, ids=_TRACE_IDS)
def test_traced_kernel_matches_lane_kernel(kwargs, monkeypatch):
    # The traced function gives the kernel's bits on float lanes row by row,
    # or raises the kernel's exception (an infinite angle), and gives its
    # bits on (N, K) array lanes.
    chain = _traced_chain(kwargs, monkeypatch)
    if chain is None:
        return
    params, c = chain
    q, qdot, gen = _trace_inputs(params.n_links)
    ops = math
    traced = _float_outcomes(partial(c.accel, ops.sin, ops.cos, ops.sqrt), q, qdot, gen)
    assert traced == _float_outcomes(partial(_lane_reference, ops, c), q, qdot, gen)
    assert ValueError in traced
    finite = np.isfinite(q).all(1) & np.isfinite(qdot).all(1)
    assert all(type(x) is bytes for x, ok in zip(traced, finite) if ok)
    ops = np
    with np.errstate(all="ignore"):
        traced = c.accel(ops.sin, ops.cos, ops.sqrt, q.T, qdot.T, list(gen.T))
        reference = _lane_reference(ops, c, q.T, qdot.T, list(gen.T))
    assert np.array(traced).tobytes() == np.array(reference).tobytes()


def test_chain_trace_built_once():
    # Equal parameters share one trace, so it is built once per chain.
    traced = _chain_consts(ChainParams(n_links=4, actuated_joints=(3,))).accel
    assert _chain_consts(ChainParams(n_links=4, actuated_joints=(3,))).accel is traced


@pytest.mark.parametrize("kwargs", _TRACE_CHAINS, ids=_TRACE_IDS)
def test_traced_kernel_matches_full_kernel(kwargs, monkeypatch):
    # The trace skips the self pairs and forms each pair once. On a finite
    # row it must give the bits of the kernel that forms all N^2 pairs; on a
    # row holding NaN or inf, x must be NaN or inf wherever that kernel's
    # is, and on float lanes the trace must raise where that kernel raises.
    # A single link's velocity does not reach its accelerations, so there
    # only a bad angle must.
    chain = _traced_chain(kwargs, monkeypatch)
    if chain is None:
        return
    params, c = chain
    n = params.n_links
    q, qdot, gen = _trace_inputs(n)
    finite = np.isfinite(q).all(1) & np.isfinite(qdot).all(1)
    propagates = ~finite & (~np.isfinite(q).all(1) | (n > 1))

    def check(x, x_full):
        assert x.shape == x_full.shape == (len(q), n)
        assert x[finite].tobytes() == x_full[finite].tobytes()
        assert not np.isfinite(x[propagates][~np.isfinite(x_full[propagates])]).any()

    def raised(outcomes):
        return [x if type(x) is type else None for x in outcomes]

    def lanes(outcomes):
        # The accelerations of each row, NaN where the row raised.
        return np.array([np.frombuffer(x) if type(x) is bytes else [np.nan] * n for x in outcomes])

    ops = math
    traced = _float_outcomes(partial(c.accel, ops.sin, ops.cos, ops.sqrt), q, qdot, gen)
    full = _float_outcomes(partial(_full_reference, ops, c), q, qdot, gen)
    assert raised(traced) == raised(full)
    assert ValueError in raised(full)
    check(lanes(traced), lanes(full))
    ops = np
    with np.errstate(all="ignore"):
        x = c.accel(ops.sin, ops.cos, ops.sqrt, q.T, qdot.T, list(gen.T))
        x_full = _full_reference(ops, c, q.T, qdot.T, list(gen.T))
    check(np.array(x).T, np.array(x_full).T)


def _full_reference(ops, c, q, qdot, gen):
    D, H = lane_terms_full(ops, c, q, qdot)
    (x,) = _lane_solve(ops, D, [[g - h for g, h in zip(gen, H)]])
    return x


def test_sin_odd_cos_even_bit_for_bit():
    # The trace takes cos(phi_j - phi_k) for cos(phi_k - phi_j) and
    # -sin(phi_k - phi_j) for sin(phi_j - phi_k), so its bits rest on this,
    # for the float and the array lane functions alike.
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 0x7FF0000000000000, 40_000, dtype=np.int64)
    subnormal = rng.integers(1, 1 << 52, 20_000, dtype=np.int64)
    x = np.concatenate([
        bits.view(np.float64),
        subnormal.view(np.float64),
        10.0 ** rng.uniform(300.0, 308.25, 20_000),
        rng.uniform(0.0, 10.0, 20_000),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.pi],
    ])
    assert x.size > 100_000 and np.isfinite(x).all()
    assert np.sin(-x).tobytes() == (-np.sin(x)).tobytes()
    assert np.cos(-x).tobytes() == np.cos(x).tobytes()
    xs = x.tolist()
    assert np.array([math.sin(-v) for v in xs]).tobytes() == (-np.array(list(map(math.sin, xs)))).tobytes()
    assert np.array([math.cos(-v) for v in xs]).tobytes() == np.array(list(map(math.cos, xs))).tobytes()


@pytest.mark.parametrize("n_links", [1, 2, 3, 5])
def test_traced_kernel_forms_each_pair_once(n_links):
    # N(N-1)/2 pairs, each with one cos and one sin, and one sin per link
    # for gravity; forming every ordered pair took N^2 and N^2 + N.
    calls = {"sin": 0, "cos": 0}

    def counted(name, f):
        def call(x):
            calls[name] += 1
            return f(x)

        return call

    c = _chain_consts(ChainParams(n_links=n_links, actuated_joints=(0,)))
    lanes = [0.1] * n_links
    c.accel(counted("sin", math.sin), counted("cos", math.cos), math.sqrt,
            lanes, lanes, lanes)
    pairs = n_links * (n_links - 1) // 2
    assert calls == {"sin": pairs + n_links, "cos": pairs}


@pytest.mark.parametrize("n_links", [1, 2, 3, 5])
def test_traced_source_records_each_expression_once(n_links, monkeypatch):
    # The tape gives an expression it has already recorded its first
    # symbol, and the solve records no pivot test: the traced source holds
    # no two assignments with one right-hand side, and no <= or |. It is
    # straight-line code: no try, except or nan, and every constant a
    # finite float literal.
    c = _chain_consts(ChainParams(n_links=n_links, actuated_joints=(0,)))
    sources = []

    def spy(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(dynamics, "compile", spy, raising=False)
    _trace_accel(c)
    [src] = sources
    # Assignments of a temporary, each with one target.
    rhs = [m[1] for m in re.finditer(r"^ +t\d+ = ([^=]+)$", src, re.MULTILINE)]
    assert rhs and len(set(rhs)) == len(rhs)
    assert "<=" not in src and "|" not in src
    assert not re.search(r"\b(try|except|nan|inf)\b", src)
    nodes = list(ast.walk(ast.parse(src)))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    assert all(re.fullmatch(r"sin|cos|sqrt|q|qdot|gen|(q|qd|g|t)\d+", v) for v in names)
    consts = [node.value for node in nodes if isinstance(node, ast.Constant)]
    assert consts and all(type(v) is float and math.isfinite(v) for v in consts)


@pytest.mark.parametrize(
    "params",
    [acrobot_params(), ChainParams(n_links=3, actuated_joints=(2, 0)), _N5],
    ids=["m1", "m2", "m4"],
)
def test_generalized_forces_match_matmul(params):
    # The bits of B_tau @ tau, as step forms them for one state and for a
    # (K, M) batch: +0.0 on an unactuated joint, and 0.0 for a -0.0 torque.
    rng = np.random.default_rng(params.n_controls)
    selection = b_tau(params)
    m = params.n_controls
    for taus in (
        rng.choice([0.0, -0.0], (100, m)),
        rng.choice([0.0, -0.0, 0.5, -0.5], (100, m)),
        rng.normal(size=(100, m)),
    ):
        for tau in taus:
            gen = _generalized_forces(params, tau.tolist())
            assert np.array(gen).tobytes() == (selection @ tau).tobytes()
        for k in (1, 3, 100):
            gen = _generalized_forces(params, taus[:k].T)
            lanes = np.array([np.broadcast_to(g, (k,)) for g in gen])
            assert lanes.tobytes() == (selection @ taus[:k].T).tobytes()
