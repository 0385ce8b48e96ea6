"""Expected-return cost of a batch of retrieved target candidates.

The estimate splits into two stages: the transition onto the renormalized
target (dominated by the control work penalty of the critically damped
feedback transient, evaluated in closed form) and the recorded return of the
target point, shifted linearly by the time offset. The reward is fixed: the
control penalty is -|tau|^2 and the discount time scale is 1 s, with an
optional state reward the caller evaluates per candidate. Costs are given
the errors ``target_store.target_errors`` computes, and every candidate of a
batch is costed at once. The controlled block of B comes from the
coordinate split, which has already checked it.
"""

import numpy as np

from .control_law import CoordSplit, GainSpec, _solve
from .dynamics import _dot


def candidate_costs(
    dchi: np.ndarray,
    dchidot: np.ndarray,
    tau_d: np.ndarray,
    g_d: np.ndarray,
    r_d: np.ndarray,
    t0: np.ndarray,
    split: CoordSplit,
    gain: GainSpec,
) -> np.ndarray:
    """Negated two-stage value estimate of each candidate; candidate
    selection minimizes it.

    Arrays are per candidate: controlled-coordinate errors dchi, dchidot and
    torques (n, M), recorded returns, state rewards and time offsets (n,).
    Let U and W solve B_chi [U W] = [dchi dchidot] with the split's block
    B_chi and Z = kappa U + 2 W. With the control penalty -|tau|^2 and a
    discount time scale of 1 s, the transition value, the integral of the
    feedback transient's work penalty, is

        v_I = 2 tau_d' W - (kappa/4) (W' W + Z' Z),

    and the recorded value is v_II = G + t0 (-tau_d' tau_d + r_d - G).
    At M >= 2 U and W come from one ``_solve`` on lanes, one (n,) array per
    controlled coordinate, and each a' b is a fixed-order sum of lane
    products, so no cost depends on the BLAS build. A single actuator takes
    the same formula written out in scalars, which is faster: there
    W = dchidot / beta and Z = (kappa dchi + 2 dchidot) / beta, with beta
    the block's one entry.
    """
    kappa = gain.kappa
    if len(split.controlled) == 1:
        beta = float(split.b_chi[0, 0])
        td = tau_d[:, 0]
        dchi, dchidot = dchi[:, 0], dchidot[:, 0]
        v1 = 2.0 * td * (dchidot / beta) - kappa / (4.0 * beta * beta) * (
            kappa * kappa * dchi * dchi + 4.0 * kappa * dchi * dchidot + 5.0 * dchidot * dchidot
        )
        v2 = g_d + t0 * (-td * td + r_d - g_d)
        return -(v1 + v2)
    td = tau_d.T
    U, W = _solve(split.b_chi.tolist(), [dchi.T, dchidot.T])
    Z = [kappa * u + 2.0 * w for u, w in zip(U, W)]
    v1 = 2.0 * _dot(td, W) - (kappa / 4.0) * (_dot(W, W) + _dot(Z, Z))
    v2 = g_d + t0 * (-_dot(td, td) + r_d - g_d)
    return -(v1 + v2)
