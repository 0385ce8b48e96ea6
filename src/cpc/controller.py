"""Runtime control loop: candidate retrieval, cost-ranked selection, torque
computation with gain backoff, plus online control-matrix estimation.

Each control cycle retrieves the best-matching stored target points, ranks
them by the expected-return cost at the current gain, and computes the path
feedback torque. If the torque norm exceeds the configured cap the gain is
halved (re-ranking candidates, since the cost depends on the gain) until the
torque fits or the gain floor is reached; the last torque is returned either
way. The control matrix is regressed online from the most recent
(torque, finite-difference acceleration) pairs; before enough pairs exist
the controller emits small exploratory torques. When a cycle cannot produce
a torque (degenerate retrieval, rank-deficient or singular B, or a
non-finite result) the controller applies zero torque for that cycle.
"""

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .control_law import (
    GainSpec,
    Reparam,
    cpc_tau,
    estimate_control_matrix,
    null_covector,
    split_coordinates,
)
from .dynamics import State
from .errors import (
    NoValidCandidates,
    RankDeficient,
    SingularMatrix,
    VelocityBarDegenerate,
)
from .target_store import DEFAULT_GUARD_TOL, NonEmptyStore, _query_arrays
from .value import RewardSpec, candidate_costs

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ControllerConfig:
    """Loop parameters; defaults follow the balance-experiment setup."""

    omega: float = 10.0
    s_g: float = 1.0
    n_d: int = 20
    k0: float = 2000.0
    tau_c: float = 2.0
    k_c: float = 2.0
    dt: float = 0.01
    history_n: int = 7
    guard_tol: float = DEFAULT_GUARD_TOL
    ridge: float = 1e-8
    sigma_boot: float = 0.02
    use_stored_tau_d: bool = True

    def __post_init__(self):
        if not (self.k0 > self.k_c > 0):
            raise ValueError("need k0 > k_c > 0")
        if self.tau_c <= 0 or self.dt <= 0 or self.n_d < 1 or self.history_n < 1:
            raise ValueError("bad controller configuration")
        if self.ridge < 0 or self.sigma_boot < 0:
            raise ValueError("ridge and sigma_boot must be >= 0")


@dataclass
class ControllerState:
    """Per-agent mutable state: rolling regression history and RNG."""

    n_controls: int
    rng: np.random.Generator
    history: deque = field(default_factory=deque)
    prev_tau: Optional[np.ndarray] = None
    prev_qdot: Optional[np.ndarray] = None
    last_B: Optional[np.ndarray] = None
    steps: int = 0
    fallback_count: int = 0
    unclamped_exits: int = 0


def make_controller(cfg: ControllerConfig, n_controls: int, seed) -> ControllerState:
    return ControllerState(
        n_controls=n_controls,
        rng=np.random.default_rng(seed),
        history=deque(maxlen=cfg.history_n),
    )


def cpc_loop(
    x0: State,
    B: np.ndarray,
    targets: NonEmptyStore,
    cfg: ControllerConfig,
    spec: Optional[RewardSpec] = None,
) -> np.ndarray:
    """One control cycle: candidate query, cost-ranked selection and torque
    with gain backoff. Raises NoValidCandidates when every stored point is
    guard-rejected."""
    if spec is None:
        spec = RewardSpec(C_tau=-np.eye(np.atleast_2d(B).shape[1]))
    split = split_coordinates(B)
    b = null_covector(B, split)
    idx, t0s, ss, _ = _query_arrays(
        targets, x0, b, cfg.omega, cfg.s_g, cfg.n_d, cfg.guard_tol
    )
    if len(idx) == 0:
        raise NoValidCandidates("all stored points rejected by the velocity guard")
    store = targets.store
    q_d = store.q[idx]
    qdot_d = store.qdot[idx]
    if cfg.use_stored_tau_d:
        tau_d = store.tau[idx]
    else:
        tau_d = np.zeros_like(store.tau[idx])
    g_d = store.G[idx]
    if spec.state_reward is None:
        r_d = np.zeros(len(idx))
    else:
        r_d = np.array(
            [spec.reward_at(State(q_d[i], qdot_d[i])) for i in range(len(idx))]
        )

    k = cfg.k0
    while True:
        gain = GainSpec(k)
        costs = candidate_costs(
            x0, q_d, qdot_d, tau_d, g_d, r_d, t0s, ss, B, split, gain, spec
        )
        j = int(np.argmin(costs))
        xd = State(q_d[j], qdot_d[j])
        rep = Reparam(float(t0s[j]), float(ss[j]))
        tau = cpc_tau(x0, xd, B, split, rep, gain, tau_d[j])
        k = 0.5 * k
        norm = float(np.linalg.norm(tau))
        if norm < cfg.tau_c or k < cfg.k_c:
            if norm >= cfg.tau_c:
                logger.debug(
                    "gain floor reached with |tau| = %.3g >= %.3g; returning unclamped",
                    norm,
                    cfg.tau_c,
                )
            return tau


def controller_step(
    ctrl: ControllerState,
    x0: State,
    targets: NonEmptyStore,
    cfg: ControllerConfig,
    spec: Optional[RewardSpec] = None,
) -> np.ndarray:
    """Advance the controller by one cycle and return the torque to apply.

    Updates the regression history with the previous cycle's torque and the
    finite-difference acceleration it produced; while the history is shorter
    than the regression window, returns exploratory bootstrap noise. Every
    retrieval or estimation failure, and a non-finite torque, gives zero
    torque instead and counts in ``fallback_count``.
    """
    if ctrl.prev_tau is not None:
        u = (x0.qdot - ctrl.prev_qdot) / cfg.dt
        ctrl.history.append((ctrl.prev_tau, u))
    if len(ctrl.history) < cfg.history_n:
        tau = ctrl.rng.normal(0.0, cfg.sigma_boot, size=ctrl.n_controls)
    else:
        taus = np.array([h[0] for h in ctrl.history])
        us = np.array([h[1] for h in ctrl.history])
        try:
            B = estimate_control_matrix(taus, us, ridge=cfg.ridge)
            ctrl.last_B = B
            tau = cpc_loop(x0, B, targets, cfg, spec)
            if float(np.linalg.norm(tau)) >= cfg.tau_c:
                ctrl.unclamped_exits += 1
        except (NoValidCandidates, VelocityBarDegenerate, RankDeficient, SingularMatrix):
            ctrl.fallback_count += 1
            tau = np.zeros(ctrl.n_controls)
    if not np.all(np.isfinite(tau)):
        ctrl.fallback_count += 1
        tau = np.zeros(ctrl.n_controls)
    ctrl.prev_tau = tau
    ctrl.prev_qdot = x0.qdot.copy()
    ctrl.steps += 1
    return tau

