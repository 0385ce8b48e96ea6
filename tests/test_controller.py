import math
from collections import deque

import numpy as np
import pytest

from cpc import controller
from cpc.control_law import CoordSplit, GainSpec
from cpc.controller import (
    HISTORY_N,
    K0,
    K_C,
    N_D,
    OMEGA,
    TAU_C,
    ControllerConfig,
    cpc_loop,
    controller_step,
    make_controller,
)
from cpc.dynamics import ChainParams, State, acrobot_params, exact_control_matrix
from cpc.errors import SingularMatrix, VelocityBarDegenerate
from cpc.experiments import ExperimentConfig, generate_falls, trial_seed
from cpc.target_store import NonEmptyStore, TargetStore
from cpc.value import candidate_costs
from oracles import cost, one_target_tau, query_candidates, row_errors


def _acrobot_targets(states, G):
    """Retrieval handle over acrobot states with zero torque and the given
    recorded returns."""
    n = len(states)
    return NonEmptyStore(TargetStore(
        np.zeros(n), [x.q for x in states], [x.qdot for x in states], np.zeros((n, 1)), G, 2, (1,)
    ))


def _one_point_targets(xd):
    return _acrobot_targets([xd], [0.0])


def _acrobot_B(q):
    return exact_control_matrix(acrobot_params(), q)


def _engineered_setup(chi_offset):
    """Target sharing the query's velocity, offset only along the covector's
    orthogonal complement, so t0 = 0, s = 1 and the velocity error vanishes:
    the feedback scales exactly linearly with the gain k."""
    q = np.array([0.15, -0.2])
    qdot = np.array([0.8, 0.5])
    B = _acrobot_B(q)
    split = CoordSplit(B, (1,))
    b = split.b
    perp = np.array([-b[1], b[0]])
    perp /= np.linalg.norm(perp)
    x0 = State(q + chi_offset * perp, qdot)
    xd = State(q, qdot)
    return x0, xd, B, split


def test_cpc_loop_single_candidate_no_backoff():
    x0, xd, B, split = _engineered_setup(1e-4)
    targets = _one_point_targets(xd)
    cfg = ControllerConfig(s_g=1.0)
    tau = cpc_loop(x0, B, targets, cfg)
    # Small error: no backoff, so the torque equals the direct law at K0.
    direct = one_target_tau(x0, xd, split, 0.0, 1.0, GainSpec(K0), np.zeros(1))
    assert np.linalg.norm(tau) < TAU_C
    assert np.abs(tau - direct).max() < 1e-9


def test_cpc_loop_backoff_iteration_count():
    # Engineer |tau(K0)| = 10 TAU_C; since |tau| scales linearly with k here,
    # the loop must halve four times and stop at K0/16 with norm 10/16 TAU_C.
    cfg = ControllerConfig(s_g=1.0)
    x0, xd, B, split = _engineered_setup(1e-3)
    b_chi = float(B[split.controlled[0], 0])
    dchi = x0.q[split.controlled[0]] - xd.q[split.controlled[0]]
    base_norm = K0 * abs(dchi / b_chi)
    factor = 10.0 * TAU_C / base_norm
    x0 = State(xd.q + (x0.q - xd.q) * factor, x0.qdot)
    targets = _one_point_targets(xd)
    tau = cpc_loop(x0, B, targets, cfg)
    assert np.linalg.norm(tau) == pytest.approx(10.0 / 16.0 * TAU_C, rel=1e-6)


def _offset_for_norm_at(target_norm, k):
    """Engineered state whose feedback norm at gain k equals target_norm."""
    x0, xd, B, split = _engineered_setup(1e-3)
    b_chi = float(B[split.controlled[0], 0])
    dchi = x0.q[split.controlled[0]] - xd.q[split.controlled[0]]
    factor = target_norm / (k * abs(dchi / b_chi))
    return State(xd.q + (x0.q - xd.q) * factor, x0.qdot), xd, B, split


def test_cpc_loop_gain_floor_returns_unclamped():
    cfg = ControllerConfig(s_g=1.0)
    k_last = K0 / 2**9  # last gain tried before dropping below K_C
    assert k_last >= K_C and k_last / 2 < K_C
    x0, xd, B, split = _offset_for_norm_at(1.5 * TAU_C, k_last)
    targets = _one_point_targets(xd)
    tau = cpc_loop(x0, B, targets, cfg)
    assert np.linalg.norm(tau) == pytest.approx(1.5 * TAU_C, rel=1e-9)
    assert np.linalg.norm(tau) >= TAU_C


def test_controller_counts_unclamped_exit(rng):
    # A cycle that reaches the gain floor with |tau| >= TAU_C still applies
    # its torque, and counts one unclamped exit; it is not a fallback.
    cfg = ControllerConfig(s_g=1.0)
    x0, xd, B, _ = _offset_for_norm_at(1.5 * TAU_C, K0 / 2**9)
    ctrl = make_controller(1, seed=0)
    # A window of exact (tau, B tau) pairs makes the regressed B equal to B
    # up to the ridge bias, about 1e-9 relative.
    for tau_h in rng.uniform(0.5, 1.5, (HISTORY_N, 1)):
        ctrl.push(tau_h, B @ tau_h)
    tau = controller_step(ctrl, x0, _one_point_targets(xd), cfg)
    assert np.linalg.norm(tau) == pytest.approx(1.5 * TAU_C, rel=1e-6)
    assert (ctrl.unclamped_exits, ctrl.fallback_count) == (1, 0)


def test_cpc_loop_backoff_bounded_iterations(monkeypatch):
    import cpc.controller as ctl

    calls = {"n": 0}
    orig = ctl.candidate_costs

    def counting(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(ctl, "candidate_costs", counting)
    cfg = ControllerConfig(s_g=1.0)
    x0, xd, B, _ = _offset_for_norm_at(1.5 * TAU_C, K0 / 2**9)
    targets = _one_point_targets(xd)
    cpc_loop(x0, B, targets, cfg)
    assert calls["n"] == 10  # floor(log2(K0 / K_C)) + 1


def test_candidate_costs_reselect_per_gain():
    # Two candidates whose cost ranking depends on the gain: one on-target
    # with low return, one offset with high return. High gain makes the
    # offset candidate expensive; low gain favors it. With the count of cost
    # calls above, this is why the backoff re-ranks at every gain.
    q = np.array([0.1, -0.1])
    qdot = np.array([0.9, 0.6])
    x0 = State(q, qdot)
    split = CoordSplit(_acrobot_B(q), (1,))
    b = split.b
    perp = np.array([-b[1], b[0]]) / np.hypot(*b)
    q_d = np.array([q, q + 0.08 * perp])
    qdot_d = np.array([qdot, qdot])
    zeros = np.zeros(2)
    dchi, dchidot = row_errors(x0, q_d, qdot_d, zeros, np.ones(2), split)
    picks = [
        int(np.argmin(candidate_costs(
            dchi, dchidot, np.zeros((2, 1)), np.array([0.0, 5.0]), zeros, zeros, split,
            GainSpec(k),
        )))
        for k in (1e7, 2.0001)
    ]
    assert picks == [0, 1]


def test_cpc_loop_two_actuators_follows_oracle(rng):
    # Three links with joints 1 and 2 actuated: the loop's torque is the path
    # law on the oracle's cheapest candidate at the gain where backoff stops.
    # The stored configurations are spread widely enough that the best of
    # N_D candidates still needs the gain halved.
    n = 200
    x0 = State(rng.uniform(-0.3, 0.3, 3), rng.uniform(-1.0, 1.0, 3))
    B = exact_control_matrix(ChainParams(n_links=3, actuated_joints=(1, 2)), x0.q)
    store = TargetStore(
        np.zeros(n), x0.q + rng.normal(0.0, 0.5, (n, 3)), x0.qdot + rng.normal(0.0, 0.4, (n, 3)),
        rng.normal(0.0, 0.3, (n, 2)), rng.normal(size=n), 3, (1, 2),
    )
    cfg = ControllerConfig(s_g=1.0, state_reward=lambda x: -(x.q @ x.q))
    tau = cpc_loop(x0, B, NonEmptyStore(store), cfg)

    split = CoordSplit(B, (1, 2))
    cands = query_candidates(store, x0, split.b, OMEGA, cfg.s_g, N_D)
    k = K0
    while True:
        gain = GainSpec(k)
        best = min(cands, key=lambda c: cost(x0, c, B, split, gain, cfg.state_reward))
        want = one_target_tau(x0, best.x, split, best.t0, best.s, gain, best.tau)
        if np.linalg.norm(want) < TAU_C or 0.5 * k < K_C:
            break
        k *= 0.5
    assert K_C <= k < K0
    assert np.allclose(tau, want, rtol=1e-9, atol=1e-12)


def test_cpc_loop_follows_actuated_joint_order():
    # The same chain and data with the actuated joints listed as (2, 1): B's
    # columns and the stored torques are reversed, and the loop returns the
    # (1, 2) torque reversed. The split eliminates in the other column
    # order, so the bits may differ in the last places.
    cfg = ExperimentConfig()
    forward = ChainParams(n_links=3, actuated_joints=(1, 2))
    store = generate_falls(cfg, 3, seed=trial_seed(0, "joint-order", 0), params=forward)
    flipped = TargetStore(store.t, store.q, store.qdot, store.tau[:, ::-1], store.G, 3, (2, 1))
    targets = NonEmptyStore(store), NonEmptyStore(flipped)
    queries = generate_falls(cfg, 5, seed=trial_seed(0, "joint-order", 1), params=forward)
    ctrl_cfg = ControllerConfig()
    cycles = 0
    for q, qdot in zip(queries.q, queries.qdot):
        x0 = State(q, qdot)
        B = exact_control_matrix(forward, q)
        try:
            want = cpc_loop(x0, B, targets[0], ctrl_cfg)
        except VelocityBarDegenerate:
            with pytest.raises(VelocityBarDegenerate):
                cpc_loop(x0, B[:, ::-1], targets[1], ctrl_cfg)
            continue
        got = cpc_loop(x0, B[:, ::-1], targets[1], ctrl_cfg)[::-1]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        cycles += 1
    assert cycles >= 400


def test_controller_bootstrap_then_estimation(rng):
    cfg = ControllerConfig(s_g=1.0)
    ctrl = make_controller(1, seed=42)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))
    # Synthetic linear plant: qdot accumulates B0 tau dt.
    B0 = np.array([[30.0], [-45.0]])
    q = np.array([0.1, -0.1])
    qdot = np.array([0.8, 0.5])
    states = []
    for step in range(HISTORY_N + 1):
        x = State(q.copy(), qdot.copy())
        states.append(x)
        tau = controller_step(ctrl, x, targets, cfg)
        if step < HISTORY_N:
            assert ctrl.last_B is None  # still bootstrapping
        qdot = qdot + cfg.dt * (B0 @ tau)
    # After the window fills, the regressed matrix reproduces the plant (up
    # to the ridge bias) and the torque matches a direct loop call with it.
    assert ctrl.last_B is not None
    assert np.abs(ctrl.last_B - B0).max() < 1e-3
    direct = cpc_loop(states[-1], ctrl.last_B, targets, cfg)
    assert np.abs(ctrl.prev_tau - direct).max() < 1e-12


def test_controller_fallback_on_degenerate_velocity():
    cfg = ControllerConfig(s_g=1.0)
    ctrl = make_controller(1, seed=0)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))
    # Fill the window artificially, then query from a rest state.
    for _ in range(HISTORY_N):
        ctrl.push(np.array([0.01]), np.array([0.3, -0.45]))
    x = State(np.array([0.05, 0.0]), np.zeros(2))
    tau = controller_step(ctrl, x, targets, cfg)
    assert np.array_equal(tau, np.zeros(1))
    assert ctrl.fallback_count == 1
    # The controller keeps going on the next step.
    x2 = State(np.array([0.05, 0.0]), np.array([0.4, 0.3]))
    tau2 = controller_step(ctrl, x2, targets, cfg)
    assert np.all(np.isfinite(tau2))


def test_overflowing_covector_falls_back(monkeypatch):
    # A finite B whose covector overflows: the split raises SingularMatrix
    # before any retrieval projects the store onto an infinite covector, and
    # the controller counts the cycle as a fallback.
    cfg = ControllerConfig(s_g=1.0)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))
    x = State(np.array([0.05, 0.0]), np.array([0.4, 0.3]))
    B = np.array([[1e300], [1e-10]])
    with pytest.raises(SingularMatrix, match="covector"):
        cpc_loop(x, B, targets, cfg)
    ctrl = make_controller(1, seed=0)
    for _ in range(HISTORY_N):
        ctrl.push(np.array([0.01]), np.array([0.3, -0.45]))
    monkeypatch.setattr(controller, "estimate_control_matrix", lambda taus, us: B)
    tau = controller_step(ctrl, x, targets, cfg)
    assert np.array_equal(tau, np.zeros(1))
    assert ctrl.fallback_count == 1 and ctrl.last_B is B


def test_controller_determinism():
    cfg = ControllerConfig(s_g=1.0)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))

    def run():
        ctrl = make_controller(1, seed=7)
        q = np.array([0.02, -0.01])
        qdot = np.array([0.3, 0.2])
        taus = []
        for _ in range(12):
            x = State(q.copy(), qdot.copy())
            tau = controller_step(ctrl, x, targets, cfg)
            taus.append(tau.copy())
            qdot = qdot + 0.01 * np.array([25.0, -40.0]) * tau[0]
            q = q + 0.01 * qdot
        return np.array(taus)

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_controller_never_emits_nonfinite():
    cfg = ControllerConfig(s_g=1.0)
    ctrl = make_controller(1, seed=1)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))
    # Poisoned history with zero torques: regression is ridge-saved but the
    # resulting B is ~0, making the feedback blow up to huge-but-finite or
    # the split fail; either way the output must be finite.
    for _ in range(HISTORY_N):
        ctrl.push(np.zeros(1), np.array([1.0, 1.0]))
    x = State(np.array([0.3, -0.2]), np.array([0.7, 0.4]))
    tau = controller_step(ctrl, x, targets, cfg)
    assert np.all(np.isfinite(tau))


def test_config_validation():
    non_finite = [
        {name: value} for name in ("s_g", "dt", "sigma_boot") for value in (math.nan, math.inf)
    ]
    for kwargs in ({"dt": 0.0}, {"sigma_boot": -0.02}, *non_finite):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


def test_window_matches_deque_arrays(rng):
    # The float-list window holds, after every push, the columns of the
    # arrays np.array builds from a deque of the same pairs, bit for bit,
    # once HISTORY_N of them are held, and only Python floats.
    ctrl = make_controller(2, seed=0)
    pairs = deque(maxlen=HISTORY_N)
    for i in range(3 * HISTORY_N):
        tau, u = rng.normal(size=2), rng.normal(size=3) * 10.0 ** rng.integers(-5, 6)
        ctrl.push(tau.tolist(), u.tolist())
        pairs.append((tau, u))
        assert ctrl.filled == min(i + 1, HISTORY_N)
        if ctrl.filled == HISTORY_N:
            for got, i in ((ctrl.tau_cols, 0), (ctrl.u_cols, 1)):
                assert all(type(x) is float for col in got for x in col)
                want = np.ascontiguousarray(np.array([p[i] for p in pairs]).T)
                got = np.array(got)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # A pair of the wrong size is refused and leaves the window as it was.
    window = [list(col) for col in ctrl.tau_cols + ctrl.u_cols]
    for tau, u in (([0.1], [0.2, 0.3, 0.4]), ([0.1, 0.2], [0.3, 0.4])):
        with pytest.raises(ValueError):
            ctrl.push(tau, u)
    assert ctrl.tau_cols + ctrl.u_cols == window and ctrl.filled == HISTORY_N
