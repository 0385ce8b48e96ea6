"""Expected-return machinery for ranking target candidates.

The estimate splits into two stages: the transition onto the renormalized
target (dominated by the control work penalty of the critically damped
feedback transient, evaluated in closed form) and the recorded return of the
target point, shifted linearly by the time offset.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .control_law import CoordSplit, GainSpec, Reparam, renormalized_target
from .dynamics import State
from .errors import SingularMatrix
from .target_store import TargetCandidate


@dataclass(frozen=True)
class RewardSpec:
    """Reward shape: discount time scale, control penalty, state reward slot.

    The control penalty matrix must be symmetric negative semidefinite. The
    state reward defaults to zero everywhere.
    """

    T_gamma: float = 1.0
    C_tau: np.ndarray = field(default_factory=lambda: -np.eye(1))
    state_reward: Optional[Callable[[State], float]] = None

    def __post_init__(self):
        object.__setattr__(self, "C_tau", np.atleast_2d(np.asarray(self.C_tau, dtype=float)))
        if self.T_gamma <= 0:
            raise ValueError("T_gamma must be positive")
        if not np.allclose(self.C_tau, self.C_tau.T):
            raise ValueError("C_tau must be symmetric")
        if np.linalg.eigvalsh(self.C_tau).max() > 1e-12:
            raise ValueError("C_tau must be negative semidefinite")

    def reward_at(self, x: State) -> float:
        return 0.0 if self.state_reward is None else float(self.state_reward(x))


@dataclass(frozen=True)
class ValueBreakdown:
    """Total value estimate and its transition/recorded components."""

    v_total: float
    v_I: float
    v_II: float


def _transition_matrices(b_chi: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Z_i = (z_i kron I_M) (B_chi^-1)' for z_1 = [0; 1], z_2 = [kappa; 2]."""
    m = b_chi.shape[0]
    try:
        binv_t = np.linalg.inv(b_chi).T
    except np.linalg.LinAlgError as e:
        raise SingularMatrix("controlled block of B is singular") from e
    z1 = np.kron(np.array([[0.0], [1.0]]), np.eye(m)) @ binv_t
    z2 = np.kron(np.array([[kappa], [2.0]]), np.eye(m)) @ binv_t
    return z1, z2


def value_estimate(
    x0: State,
    cand: TargetCandidate,
    B: np.ndarray,
    split: CoordSplit,
    gain: GainSpec,
    spec: RewardSpec,
    tau_d: Optional[np.ndarray] = None,
) -> ValueBreakdown:
    """Two-stage value estimate of steering from x0 onto the candidate's
    renormalized target and following it.

    ``tau_d`` overrides the candidate's stored torque (used when no trusted
    reference policy exists and the feedforward is taken to be zero).
    """
    if tau_d is None:
        tau_d = cand.point.tau
    tau_d = np.asarray(tau_d, dtype=float)
    ci = list(split.controlled)
    q_r0, qdot_r = renormalized_target(cand.point.x, Reparam(cand.t0, cand.s))
    dx = np.concatenate([x0.q[ci] - q_r0[ci], x0.qdot[ci] - qdot_r[ci]])
    kappa = gain.kappa
    b_chi = np.atleast_2d(np.asarray(B, dtype=float))[ci, :]
    z1, z2 = _transition_matrices(b_chi, kappa)
    C = spec.C_tau
    tg = spec.T_gamma
    v1 = float(
        -(2.0 / tg) * tau_d @ C @ (z1.T @ dx)
        + (kappa / (4.0 * tg)) * dx @ (z1 @ C @ z1.T + z2 @ C @ z2.T) @ dx
    )
    g_d = cand.point.G
    r_d = spec.reward_at(cand.point.x)
    v2 = float(g_d + (cand.t0 / tg) * (tau_d @ C @ tau_d + r_d - g_d))
    return ValueBreakdown(v1 + v2, v1, v2)


def cost(
    x0: State,
    cand: TargetCandidate,
    B: np.ndarray,
    split: CoordSplit,
    gain: GainSpec,
    spec: RewardSpec,
    tau_d: Optional[np.ndarray] = None,
) -> float:
    """Negated value estimate; candidate selection minimizes this."""
    return -value_estimate(x0, cand, B, split, gain, spec, tau_d).v_total


def candidate_costs(
    x0: State,
    q_d: np.ndarray,
    qdot_d: np.ndarray,
    tau_d: np.ndarray,
    g_d: np.ndarray,
    r_d: np.ndarray,
    t0: np.ndarray,
    s: np.ndarray,
    B: np.ndarray,
    split: CoordSplit,
    gain: GainSpec,
    spec: RewardSpec,
) -> np.ndarray:
    """Vectorized cost over a candidate batch (single-actuator fast path).

    Arrays are per candidate: target states (n, N), torques (n, M), recorded
    returns, state rewards and reparameterizations (n,). Must agree with
    ``cost`` applied candidate by candidate.
    """
    ci = list(split.controlled)
    m = len(ci)
    kappa = gain.kappa
    tg = spec.T_gamma
    if m == 1:
        beta = float(np.atleast_2d(B)[ci[0], 0])
        if beta == 0.0:
            raise SingularMatrix("controlled block of B is singular")
        c = float(spec.C_tau[0, 0])
        td = tau_d[:, 0]
        dchi = x0.q[ci[0]] - (q_d[:, ci[0]] - qdot_d[:, ci[0]] * t0 / s)
        dchidot = x0.qdot[ci[0]] - qdot_d[:, ci[0]] / s
        v1 = -(2.0 / tg) * td * c * (dchidot / beta) + (kappa * c / (4.0 * tg * beta * beta)) * (
            kappa * kappa * dchi * dchi + 4.0 * kappa * dchi * dchidot + 5.0 * dchidot * dchidot
        )
        v2 = g_d + (t0 / tg) * (c * td * td + r_d - g_d)
        return -(v1 + v2)
    out = np.empty(len(t0))
    for i in range(len(t0)):
        cand = TargetCandidate(
            point=_RawPoint(q_d[i], qdot_d[i], tau_d[i], g_d[i]),
            index=i,
            t0=float(t0[i]),
            s=float(s[i]),
            loss=0.0,
        )
        out[i] = cost(x0, cand, B, split, gain, spec, tau_d[i])
    return out


class _RawPoint:
    """Array-backed stand-in for DataPoint in the batch path."""

    __slots__ = ("x", "tau", "G", "t")

    def __init__(self, q, qdot, tau, G):
        self.x = State(q, qdot)
        self.tau = np.asarray(tau, dtype=float)
        self.G = float(G)
        self.t = 0.0
