"""Runtime control loop: candidate retrieval, cost-ranked selection, torque
computation with gain backoff, plus online control-matrix estimation.

Each control cycle retrieves the best-matching stored target points, ranks
them by the expected-return cost at the current gain, and computes the path
feedback torque. While the torque norm is at least TAU_C the gain is halved
(re-ranking candidates, since the cost depends on the gain), down to the
floor K_C; the last torque is returned either way. The control matrix is
regressed online from the most recent (torque, finite-difference
acceleration) pairs; before enough pairs exist the controller emits small
exploratory torques. The pairs live in a fixed-size regression window, two
preallocated arrays that each cycle shifts up one row in place, so the
regression reads them without rebuilding anything. When a cycle cannot produce a torque (degenerate
retrieval, rank-deficient or singular B, or a non-finite result) the
controller applies zero torque for that cycle.

The loop values OMEGA, HISTORY_N, N_D, K0, K_C and TAU_C are constants, not
options: the method is one fixed procedure applied after training, and every
run (the balance experiment, the sweep, the benchmark) uses these values, so
changing one changes the method.

The cycle's small-array work (the pivot choice of the coordinate split,
norms and finiteness checks) runs on Python floats, which for these sizes
costs less than numpy's per-call dispatch and gives the same bits.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .control_law import (
    GainSpec,
    cpc_tau,
    estimate_control_matrix,
    split_coordinates,
    target_errors,
)
from .dynamics import State
from .errors import NoValidCandidates, RankDeficient, SingularMatrix, VelocityBarDegenerate
from .target_store import DEFAULT_GUARD_TOL, NonEmptyStore, _query_arrays
from .value import RewardSpec, candidate_costs

# Proximity-loss weight on the time offset t0 in retrieval.
OMEGA = 10.0
# Regression window: (torque, acceleration) pairs per estimate of B.
HISTORY_N = 7
# Retrieved candidates ranked per cycle.
N_D = 20
# Backoff: start at gain K0 and halve while |tau| >= TAU_C, down to K_C.
# K0 / 2**9 is the last gain tried, so a cycle ranks at most ten times.
K0 = 2000.0
K_C = 2.0
TAU_C = 2.0


@dataclass(frozen=True)
class ControllerConfig:
    """The loop values that differ between callers. The defaults follow
    stored points forward in time (``s_g = 1``) with their recorded torque
    as feedforward; the balance experiment reverses the goal, drops the
    recorded torque and takes dt and sigma_boot from its own configuration.
    The candidate count, gains and torque cap are the module constants N_D,
    K0, K_C and TAU_C, since every run uses one set of them."""

    s_g: float = 1.0
    dt: float = 0.01
    sigma_boot: float = 0.02
    use_stored_tau_d: bool = True

    def __post_init__(self):
        finite = all(math.isfinite(v) for v in (self.s_g, self.dt, self.sigma_boot))
        if not (finite and self.dt > 0 and self.sigma_boot >= 0):
            raise ValueError("need finite s_g, dt > 0 and sigma_boot >= 0")


@dataclass
class ControllerState:
    """Per-agent mutable state: the regression window and the RNG.

    The window is two arrays, ``taus`` (HISTORY_N, M) and ``us``
    (HISTORY_N, N), holding the latest (torque, acceleration) pairs oldest
    row first, with N = M + 1 (one unactuated direction). ``push`` shifts
    both up one row in place and writes the new pair into the last row, so
    the window allocates nothing per cycle; ``filled`` counts the rows
    written so far, up to HISTORY_N.
    """

    n_controls: int
    rng: np.random.Generator
    taus: np.ndarray = field(init=False, repr=False)
    us: np.ndarray = field(init=False, repr=False)
    filled: int = 0
    prev_tau: Optional[np.ndarray] = None
    prev_qdot: Optional[np.ndarray] = None
    last_B: Optional[np.ndarray] = None
    fallback_count: int = 0
    unclamped_exits: int = 0

    def __post_init__(self):
        self.taus = np.zeros((HISTORY_N, self.n_controls))
        self.us = np.zeros((HISTORY_N, self.n_controls + 1))

    def push(self, tau: np.ndarray, u: np.ndarray) -> None:
        """Add one (torque, acceleration) pair to the window, dropping the
        oldest pair once HISTORY_N are held."""
        self.taus[:-1] = self.taus[1:]
        self.us[:-1] = self.us[1:]
        self.taus[-1] = tau
        self.us[-1] = u
        self.filled = min(self.filled + 1, HISTORY_N)


def make_controller(n_controls: int, seed) -> ControllerState:
    return ControllerState(n_controls=n_controls, rng=np.random.default_rng(seed))


def cpc_loop(
    x0: State,
    B: np.ndarray,
    targets: NonEmptyStore,
    cfg: ControllerConfig,
    spec: RewardSpec,
) -> np.ndarray:
    """One control cycle: candidate query, cost-ranked selection and torque
    with gain backoff. Raises NoValidCandidates when every stored point is
    guard-rejected."""
    split = split_coordinates(B)
    idx, t0s, ss, _ = _query_arrays(targets, x0, split.b, OMEGA, cfg.s_g, N_D, DEFAULT_GUARD_TOL)
    if len(idx) == 0:
        raise NoValidCandidates("all stored points rejected by the velocity guard")
    store = targets.store
    q_d = store.q[idx]
    qdot_d = store.qdot[idx]
    if cfg.use_stored_tau_d:
        tau_d = store.tau[idx]
    else:
        tau_d = np.zeros((len(idx), store.tau.shape[1]))
    g_d = store.G[idx]
    if spec.state_reward is None:
        r_d = np.zeros(len(idx))
    else:
        r_d = np.array(
            [spec.reward_at(State(q_d[i], qdot_d[i])) for i in range(len(idx))]
        )
    dchi, dchidot = target_errors(x0, q_d, qdot_d, t0s, ss, split)

    k = K0
    while True:
        gain = GainSpec(k)
        costs = candidate_costs(dchi, dchidot, tau_d, g_d, r_d, t0s, split, gain, spec)
        j = int(np.argmin(costs))
        tau = cpc_tau(dchi[j], dchidot[j], split, gain, tau_d[j])
        k = 0.5 * k
        if _norm(tau) < TAU_C or k < K_C:
            return tau


def _norm(tau: np.ndarray) -> float:
    """Euclidean norm of a torque vector: sqrt(tau . tau), which is what
    np.linalg.norm computes for a real vector, without its dispatch."""
    return math.sqrt(tau.dot(tau))


def controller_step(
    ctrl: ControllerState,
    x0: State,
    targets: NonEmptyStore,
    cfg: ControllerConfig,
    spec: RewardSpec,
) -> np.ndarray:
    """Advance the controller by one cycle and return the torque to apply.

    Pushes the previous cycle's torque and the finite-difference
    acceleration it produced into the regression window; until the window
    is full, returns exploratory bootstrap noise. Every retrieval or
    estimation failure, and a non-finite torque, gives zero torque instead
    and counts in ``fallback_count``.
    """
    if ctrl.prev_tau is not None:
        ctrl.push(ctrl.prev_tau, (x0.qdot - ctrl.prev_qdot) / cfg.dt)
    if ctrl.filled < HISTORY_N:
        tau = ctrl.rng.normal(0.0, cfg.sigma_boot, size=ctrl.n_controls)
    else:
        try:
            B = estimate_control_matrix(ctrl.taus, ctrl.us)
            ctrl.last_B = B
            tau = cpc_loop(x0, B, targets, cfg, spec)
            if _norm(tau) >= TAU_C:
                ctrl.unclamped_exits += 1
        except (NoValidCandidates, VelocityBarDegenerate, RankDeficient, SingularMatrix):
            ctrl.fallback_count += 1
            tau = np.zeros(ctrl.n_controls)
    if not all(map(math.isfinite, tau.tolist())):
        ctrl.fallback_count += 1
        tau = np.zeros(ctrl.n_controls)
    ctrl.prev_tau = tau
    ctrl.prev_qdot = x0.qdot.copy()
    return tau
