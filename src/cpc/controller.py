"""Runtime control loop: candidate retrieval, cost-ranked selection, torque
computation with gain backoff, plus online control-matrix estimation.

Each control cycle retrieves the best-matching stored target points, ranks
them by the expected-return cost at the current gain, and computes the path
feedback torque. While the torque norm is at least TAU_C the gain is halved
(re-ranking candidates, since the cost depends on the gain), down to the
floor K_C; the last torque is returned either way. The control matrix is
regressed online from the most recent (torque, finite-difference
acceleration) pairs; before enough pairs exist the controller emits small
exploratory torques. The pairs live in a fixed-size regression window, one
list of Python floats per torque and per acceleration coordinate, which the
regression reads as they are. When a cycle cannot produce a torque
(degenerate retrieval, rank-deficient or singular B, or a non-finite result)
the controller applies zero torque for that cycle.

The loop values OMEGA, HISTORY_N, N_D, K0, K_C and TAU_C are constants, not
options: the method is one fixed procedure applied after training, and every
run (the balance experiment, the sweep, the benchmark) uses these values, so
changing one changes the method.

The cycle's small-array work (the window, norms and finiteness checks) runs
on Python floats, which for these sizes costs less than numpy's per-call
dispatch and does not depend on the BLAS build.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .control_law import CoordSplit, GainSpec, cpc_tau, estimate_control_matrix
from .dynamics import State, _dot
from .errors import NoValidCandidates, RankDeficient, SingularMatrix, VelocityBarDegenerate
from .target_store import DEFAULT_GUARD_TOL, NonEmptyStore, _query_arrays, target_errors
from .value import candidate_costs

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
    as feedforward and no state reward; the balance experiment reverses the
    goal, drops the recorded torque and takes dt and sigma_boot from its own
    configuration. ``state_reward`` maps a stored point's State to the r_d
    of ``value.candidate_costs``. The candidate count, gains and torque cap
    are the module constants N_D, K0, K_C and TAU_C, since every run uses
    one set of them."""

    s_g: float = 1.0
    dt: float = 0.01
    sigma_boot: float = 0.02
    use_stored_tau_d: bool = True
    state_reward: Optional[Callable[[State], float]] = None

    def __post_init__(self):
        finite = all(math.isfinite(v) for v in (self.s_g, self.dt, self.sigma_boot))
        if not (finite and self.dt > 0 and self.sigma_boot >= 0):
            raise ValueError("need finite s_g, dt > 0 and sigma_boot >= 0")


@dataclass
class ControllerState:
    """Per-agent mutable state: the regression window and the RNG.

    The window is M + N lists of HISTORY_N Python floats, oldest first and
    zero at the start: ``tau_cols`` per torque and ``u_cols`` per
    acceleration coordinate, N = M + 1 (one unactuated direction). ``push``
    drops the first entry of each and appends the new pair's, and the
    regression reads the lists as they are; ``filled`` counts the pairs
    pushed so far, up to HISTORY_N. ``prev_tau`` and ``prev_qdot`` are lists.
    """

    n_controls: int
    rng: np.random.Generator
    tau_cols: list = field(init=False, repr=False)
    u_cols: list = field(init=False, repr=False)
    filled: int = 0
    prev_tau: Optional[list] = None
    prev_qdot: Optional[list] = None
    last_B: Optional[np.ndarray] = None
    fallback_count: int = 0
    unclamped_exits: int = 0

    def __post_init__(self):
        self.tau_cols = [[0.0] * HISTORY_N for _ in range(self.n_controls)]
        self.u_cols = [[0.0] * HISTORY_N for _ in range(self.n_controls + 1)]

    def push(self, tau, u) -> None:
        """Add one (torque, acceleration) pair, M and N floats, to the
        window, dropping the oldest pair. Raises ValueError, leaving the
        window as it was, when either has the wrong length."""
        if len(tau) != len(self.tau_cols) or len(u) != len(self.u_cols):
            raise ValueError("need one torque per control and one acceleration per joint")
        for cols, values in ((self.tau_cols, tau), (self.u_cols, u)):
            for col, x in zip(cols, values):
                del col[0]
                col.append(x)
        self.filled = min(self.filled + 1, HISTORY_N)


def make_controller(n_controls: int, seed) -> ControllerState:
    return ControllerState(n_controls=n_controls, rng=np.random.default_rng(seed))


def cpc_loop(
    x0: State,
    B: np.ndarray,
    targets: NonEmptyStore,
    cfg: ControllerConfig,
) -> np.ndarray:
    """One control cycle: candidate query, cost-ranked selection and torque
    with gain backoff. The controlled rows of B are the store's actuated
    joints, the layout the retrieval handle has checked. Raises
    NoValidCandidates when every stored point is guard-rejected,
    VelocityBarDegenerate when the scan cannot renormalize the query's
    velocity along b, and SingularMatrix when the split finds B's
    controlled block or covector unusable."""
    split = CoordSplit(B, targets.store.actuated_joints)
    idx, t0s, ss, _ = _query_arrays(targets, x0, split.b, OMEGA, cfg.s_g, N_D, DEFAULT_GUARD_TOL)
    if len(idx) == 0:
        raise NoValidCandidates("all stored points rejected by the velocity guard")
    store = targets.store
    if cfg.use_stored_tau_d:
        tau_d = store.tau[idx]
    else:
        tau_d = np.zeros((len(idx), store.tau.shape[1]))
    g_d = store.G[idx]
    if cfg.state_reward is None:
        r_d = np.zeros(len(idx))
    else:
        r_d = np.array(
            [float(cfg.state_reward(State(*x))) for x in zip(store.q[idx], store.qdot[idx])]
        )
    dchi, dchidot = target_errors(x0, targets, idx, t0s, ss, split)

    k = K0
    while True:
        gain = GainSpec(k)
        costs = candidate_costs(dchi, dchidot, tau_d, g_d, r_d, t0s, split, gain)
        j = int(costs.argmin())
        tau = cpc_tau(dchi[j], dchidot[j], split, gain, tau_d[j])
        k = 0.5 * k
        if _norm(tau) < TAU_C or k < K_C:
            return tau


def _norm(tau: np.ndarray) -> float:
    """Euclidean norm of a torque vector: sqrt(tau . tau), which is what
    np.linalg.norm computes for a real vector, summed in order on Python
    floats instead of by the BLAS build's dot."""
    t = tau.tolist()
    return math.sqrt(_dot(t, t))


def controller_step(
    ctrl: ControllerState,
    x0: State,
    targets: NonEmptyStore,
    cfg: ControllerConfig,
) -> np.ndarray:
    """Advance the controller by one cycle and return the torque to apply.

    Pushes the previous cycle's torque and the finite-difference
    acceleration it produced into the regression window; until the window
    is full, returns exploratory bootstrap noise. Every retrieval or
    estimation failure, and a non-finite torque, gives zero torque instead
    and counts in ``fallback_count``.
    """
    qdot = x0.qdot.tolist()
    if ctrl.prev_tau is not None:
        ctrl.push(ctrl.prev_tau, [(v - v0) / cfg.dt for v, v0 in zip(qdot, ctrl.prev_qdot)])
    if ctrl.filled < HISTORY_N:
        tau = ctrl.rng.normal(0.0, cfg.sigma_boot, size=ctrl.n_controls)
    else:
        try:
            B = estimate_control_matrix(ctrl.tau_cols, ctrl.u_cols)
            ctrl.last_B = B
            tau = cpc_loop(x0, B, targets, cfg)
            if _norm(tau) >= TAU_C:
                ctrl.unclamped_exits += 1
        except (NoValidCandidates, VelocityBarDegenerate, RankDeficient, SingularMatrix):
            ctrl.fallback_count += 1
            tau = np.zeros(ctrl.n_controls)
    if not all(map(math.isfinite, tau.tolist())):
        ctrl.fallback_count += 1
        tau = np.zeros(ctrl.n_controls)
    ctrl.prev_tau = tau.tolist()
    ctrl.prev_qdot = qdot
    return tau
