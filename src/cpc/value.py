"""Expected-return cost of a batch of retrieved target candidates.

The estimate splits into two stages: the transition onto the renormalized
target (dominated by the control work penalty of the critically damped
feedback transient, evaluated in closed form) and the recorded return of the
target point, shifted linearly by the time offset. Costs are given the
errors ``control_law.target_errors`` computes, and every candidate of a
batch is costed at once. The controlled block of B comes from the
coordinate split, which has already checked it.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from typing import Callable, Optional

import numpy as np

from .control_law import CoordSplit, GainSpec, _solve
from .dynamics import State


@dataclass(frozen=True)
class RewardSpec:
    """Reward shape: discount time scale, control penalty, state reward slot.

    T_gamma must be positive and finite, and the control penalty matrix
    finite, symmetric and negative semidefinite: a NaN in either would make
    every candidate cost NaN, and the argmin would then pick candidate 0.
    The state reward defaults to zero everywhere.
    """

    T_gamma: float = 1.0
    C_tau: np.ndarray = field(default_factory=lambda: -np.eye(1))
    state_reward: Optional[Callable[[State], float]] = None

    def __post_init__(self):
        object.__setattr__(self, "C_tau", np.atleast_2d(np.asarray(self.C_tau, dtype=float)))
        if not 0 < self.T_gamma < math.inf:
            raise ValueError("T_gamma must be positive and finite")
        if not np.isfinite(self.C_tau).all():
            raise ValueError("C_tau must be finite")
        if not np.allclose(self.C_tau, self.C_tau.T):
            raise ValueError("C_tau must be symmetric")
        if np.linalg.eigvalsh(self.C_tau).max() > 1e-12:
            raise ValueError("C_tau must be negative semidefinite")

    def reward_at(self, x: State) -> float:
        return 0.0 if self.state_reward is None else float(self.state_reward(x))


def candidate_costs(
    dchi: np.ndarray,
    dchidot: np.ndarray,
    tau_d: np.ndarray,
    g_d: np.ndarray,
    r_d: np.ndarray,
    t0: np.ndarray,
    split: CoordSplit,
    gain: GainSpec,
    spec: RewardSpec,
) -> np.ndarray:
    """Negated two-stage value estimate of each candidate; candidate
    selection minimizes it.

    Arrays are per candidate: controlled-coordinate errors dchi, dchidot and
    torques (n, M), recorded returns, state rewards and time offsets (n,).
    Let U and W solve B_chi [U W] = [dchi dchidot] with the split's block
    B_chi and Z = kappa U + 2 W. With C = C_tau and T = T_gamma, the
    transition value, the integral of the feedback transient's work penalty,
    is

        v_I = -(2/T) tau_d' C W + kappa/(4T) (W' C W + Z' C Z),

    and the recorded value is v_II = G + (t0/T) (tau_d' C tau_d + r_d - G).
    At M >= 2 U and W come from one ``_solve`` on lanes, one (n,) array per
    controlled coordinate, and each a' C b is a fixed-order sum of lane
    products, so no cost depends on the BLAS build. A single actuator takes
    the same formula written out in scalars, which is faster.

    Raises ValueError when C_tau is not M x M.
    """
    m = len(split.controlled)
    if spec.C_tau.shape != (m, m):
        raise ValueError(f"C_tau must be {m} x {m} for {m} actuators, got {spec.C_tau.shape}")
    kappa = gain.kappa
    tg = spec.T_gamma
    if m == 1:
        beta = float(split.b_chi[0, 0])
        c = float(spec.C_tau[0, 0])
        td = tau_d[:, 0]
        dchi, dchidot = dchi[:, 0], dchidot[:, 0]
        v1 = -(2.0 / tg) * td * c * (dchidot / beta) + (kappa * c / (4.0 * tg * beta * beta)) * (
            kappa * kappa * dchi * dchi + 4.0 * kappa * dchi * dchidot + 5.0 * dchidot * dchidot
        )
        v2 = g_d + (t0 / tg) * (c * td * td + r_d - g_d)
        return -(v1 + v2)
    td = tau_d.T
    U, W = _solve(split.b_chi.tolist(), [dchi.T, dchidot.T])
    Z = [kappa * u + 2.0 * w for u, w in zip(U, W)]
    c_cols = spec.C_tau.T.tolist()
    td_c, w_c, z_c = ([_lane_dot(a, col) for col in c_cols] for a in (td, W, Z))
    v1 = -(2.0 / tg) * _lane_dot(td_c, W) + (kappa / (4.0 * tg)) * (
        _lane_dot(w_c, W) + _lane_dot(z_c, Z))
    v2 = g_d + (t0 / tg) * (_lane_dot(td_c, td) + r_d - g_d)
    return -(v1 + v2)


def _lane_dot(x, y):
    """Dot product of two sequences of lanes, arrays on one side at least,
    summed left to right from the first product. ``control_law._dot`` starts
    from 0.0: one more whole-array add, which changes only a -0.0 sum."""
    return reduce(add, map(mul, x, y))
