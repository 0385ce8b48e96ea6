import numpy as np
import pytest

from cpc.control_law import (
    GainSpec,
    Reparam,
    cpc_tau,
    null_covector,
    split_coordinates,
)
from cpc.controller import (
    ControllerConfig,
    cpc_loop,
    controller_step,
    make_controller,
)
from cpc.dynamics import State, acrobot_params, exact_control_matrix
from cpc.target_store import DataPoint, build
from cpc.value import RewardSpec


def _one_point_targets(xd, tau=0.0, G=0.0):
    pts = [DataPoint(0.0, xd, np.array([tau]), G)]
    return build(pts, 2, (1,))


def _acrobot_B(q):
    return exact_control_matrix(acrobot_params(), q)


def _engineered_setup(chi_offset):
    """Target sharing the query's velocity, offset only along the covector's
    orthogonal complement, so t0 = 0, s = 1 and the velocity error vanishes:
    the feedback scales exactly linearly with the gain k."""
    q = np.array([0.15, -0.2])
    qdot = np.array([0.8, 0.5])
    B = _acrobot_B(q)
    split = split_coordinates(B)
    b = null_covector(B, split)[:, 0]
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
    # Small error: no backoff, so the torque equals the direct law at k0.
    direct = cpc_tau(x0, xd, B, split, Reparam(0.0, 1.0), GainSpec(cfg.k0), np.zeros(1))
    assert np.linalg.norm(tau) < cfg.tau_c
    assert np.abs(tau - direct).max() < 1e-9


def test_cpc_loop_backoff_iteration_count():
    # Engineer |tau(k0)| = 10 tau_c; since |tau| scales linearly with k here,
    # the loop must halve four times and stop at k0/16 with norm 10/16 tau_c.
    cfg = ControllerConfig(s_g=1.0)
    x0, xd, B, split = _engineered_setup(1e-3)
    b_chi = float(B[split.controlled[0], 0])
    dchi = x0.q[split.controlled[0]] - xd.q[split.controlled[0]]
    base_norm = cfg.k0 * abs(dchi / b_chi)
    factor = 10.0 * cfg.tau_c / base_norm
    x0 = State(xd.q + (x0.q - xd.q) * factor, x0.qdot)
    targets = _one_point_targets(xd)
    tau = cpc_loop(x0, B, targets, cfg)
    assert np.linalg.norm(tau) == pytest.approx(10.0 / 16.0 * cfg.tau_c, rel=1e-6)


def _offset_for_norm_at(cfg, target_norm, k):
    """Engineered state whose feedback norm at gain k equals target_norm."""
    x0, xd, B, split = _engineered_setup(1e-3)
    b_chi = float(B[split.controlled[0], 0])
    dchi = x0.q[split.controlled[0]] - xd.q[split.controlled[0]]
    factor = target_norm / (k * abs(dchi / b_chi))
    return State(xd.q + (x0.q - xd.q) * factor, x0.qdot), xd, B, split


def test_cpc_loop_gain_floor_returns_unclamped():
    cfg = ControllerConfig(s_g=1.0)
    k_last = cfg.k0 / 2**9  # last gain tried before dropping below k_c
    assert k_last >= cfg.k_c and k_last / 2 < cfg.k_c
    x0, xd, B, split = _offset_for_norm_at(cfg, 1.5 * cfg.tau_c, k_last)
    targets = _one_point_targets(xd)
    tau = cpc_loop(x0, B, targets, cfg)
    assert np.linalg.norm(tau) == pytest.approx(1.5 * cfg.tau_c, rel=1e-9)
    assert np.linalg.norm(tau) >= cfg.tau_c


def test_cpc_loop_backoff_bounded_iterations(monkeypatch):
    import cpc.controller as ctl

    calls = {"n": 0}
    orig = ctl.candidate_costs

    def counting(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(ctl, "candidate_costs", counting)
    cfg = ControllerConfig(s_g=1.0)
    x0, xd, B, _ = _offset_for_norm_at(cfg, 1.5 * cfg.tau_c, cfg.k0 / 2**9)
    targets = _one_point_targets(xd)
    cpc_loop(x0, B, targets, cfg)
    assert calls["n"] == 10  # floor(log2(k0 / k_c)) + 1


def test_cpc_loop_reselects_candidates_per_gain():
    # Two candidates whose cost ranking depends on the gain: one on-target
    # with low return, one offset with high return. High gain makes the
    # offset candidate expensive; low gain favors it.
    q = np.array([0.1, -0.1])
    qdot = np.array([0.9, 0.6])
    x0 = State(q, qdot)
    B = _acrobot_B(q)
    split = split_coordinates(B)
    b = null_covector(B, split)[:, 0]
    perp = np.array([-b[1], b[0]]) / np.hypot(*null_covector(B, split)[:, 0])
    pts = [
        DataPoint(0.0, State(q, qdot), np.zeros(1), 0.0),
        DataPoint(0.0, State(q + 0.08 * perp, qdot), np.zeros(1), 5.0),
    ]
    targets = build(pts, 2, (1,))
    cfg_hi = ControllerConfig(s_g=1.0, k0=1e7, k_c=5e6, tau_c=1e9)
    cfg_lo = ControllerConfig(s_g=1.0, k0=2.0001, k_c=1.0, tau_c=1e9)
    tau_hi = cpc_loop(x0, B, targets, cfg_hi)
    tau_lo = cpc_loop(x0, B, targets, cfg_lo)
    # High gain picks the on-target point (zero feedback); low gain accepts
    # the offset for its recorded return.
    assert np.abs(tau_hi).max() < 1e-9
    assert np.abs(tau_lo).max() > 1e-6


def test_controller_bootstrap_then_estimation(rng):
    cfg = ControllerConfig(s_g=1.0)
    ctrl = make_controller(cfg, 1, seed=42)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))
    # Synthetic linear plant: qdot accumulates B0 tau dt.
    B0 = np.array([[30.0], [-45.0]])
    q = np.array([0.1, -0.1])
    qdot = np.array([0.8, 0.5])
    states = []
    for step in range(cfg.history_n + 1):
        x = State(q.copy(), qdot.copy())
        states.append(x)
        tau = controller_step(ctrl, x, targets, cfg)
        if step < cfg.history_n:
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
    ctrl = make_controller(cfg, 1, seed=0)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))
    # Fill history artificially, then query from a rest state.
    for _ in range(cfg.history_n):
        ctrl.history.append((np.array([0.01]), np.array([0.3, -0.45])))
    x = State(np.array([0.05, 0.0]), np.zeros(2))
    tau = controller_step(ctrl, x, targets, cfg)
    assert np.array_equal(tau, np.zeros(1))
    assert ctrl.fallback_count == 1
    # The controller keeps going on the next step.
    x2 = State(np.array([0.05, 0.0]), np.array([0.4, 0.3]))
    tau2 = controller_step(ctrl, x2, targets, cfg)
    assert np.all(np.isfinite(tau2))


def test_controller_determinism():
    cfg = ControllerConfig(s_g=1.0)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))

    def run():
        ctrl = make_controller(cfg, 1, seed=7)
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
    ctrl = make_controller(cfg, 1, seed=1)
    targets = _one_point_targets(State(np.array([0.1, -0.1]), np.array([0.8, 0.5])))
    # Poisoned history with zero torques: regression is ridge-saved but the
    # resulting B is ~0, making the feedback blow up to huge-but-finite or
    # the split fail; either way the output must be finite.
    for _ in range(cfg.history_n):
        ctrl.history.append((np.zeros(1), np.array([1.0, 1.0])))
    x = State(np.array([0.3, -0.2]), np.array([0.7, 0.4]))
    tau = controller_step(ctrl, x, targets, cfg)
    assert np.all(np.isfinite(tau))


def test_config_validation():
    for kwargs in ({"k0": 1.0, "k_c": 2.0}, {"ridge": -1e-8}, {"sigma_boot": -0.02}):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)
