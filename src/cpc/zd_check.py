"""Virtual-constraint feedback and its agreement with the path law.

A virtual constraint pins the controlled coordinates to an affine function
of a scalar phasing variable theta = c' q. Driving the constraint output to
zero with exact dynamics is the classical output-linearization route; with
the phasing covector proportional to the unactuated covector and the
constraint built from the renormalized target, its feedback term agrees with
the path feedback in the high-gain regime. ``correspondence_gap`` measures
that agreement, with the constraint written inline; both sides read the
split and the renormalized target from ``control_law``. Everything here
needs the exact model and is for verification, not for the runtime loop.
"""

import math

import numpy as np

from .control_law import (
    GainSpec,
    cpc_tau,
    renormalized_target,
    reparam_params,
    split_coordinates,
    target_errors,
)
from .dynamics import ChainParams, State, exact_control_matrix
from .errors import PhasingDegenerate


def correspondence_gap(params: ChainParams, x: State, xd: State, epsilon: float) -> float:
    """Norm of the difference between the path feedback and the constraint
    feedback at the given state, both at gain 1/epsilon^2.

    The path side uses the exact control matrix at ``x`` with the covector
    and reparameterization computed there. The constraint side phases by the
    target configuration's unactuated covector c and is built from the
    renormalized target, then evaluated at ``x``; c has -1 on its free row,
    so it is never zero. Raises ValueError unless epsilon is positive and
    finite with a finite gain 1/epsilon^2, and PhasingDegenerate when c is
    orthogonal to the target velocity.
    """
    # Both sides damp with 2/epsilon, the path side as 2 sqrt(k): they agree
    # only for epsilon > 0.
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    kappa = 1.0 / epsilon
    gain = GainSpec(kappa * kappa)  # ValueError when 1/epsilon^2 overflows
    B = exact_control_matrix(params, x.q)
    split = split_coordinates(B)
    t0, s = reparam_params(x, xd, split.b)
    q_d, qdot_d, t0, s = xd.q[None], xd.qdot[None], np.array([t0]), np.array([s])
    dchi, dchidot = target_errors(x, q_d, qdot_d, t0, s, split)
    dtau_cpc = cpc_tau(dchi[0], dchidot[0], split, gain, np.zeros(len(split.controlled)))

    c = split_coordinates(exact_control_matrix(params, xd.q)).b
    # Unit length: the feedback is invariant to c's scale, as the slope rescales.
    c = c / np.linalg.norm(c)
    (q_r0,), (qdot_r,) = renormalized_target(q_d, qdot_d, t0, s)
    dtheta = float(c @ qdot_r)
    if abs(dtheta) < 1e-12:
        raise PhasingDegenerate("phasing covector orthogonal to the target velocity")
    # Constraint chi = chi(q_r0) + slope (theta - c' q_r0) through the
    # renormalized start: output y, constant Jacobian dh = S_chi - slope c'.
    ci = list(split.controlled)
    slope = qdot_r[ci] / dtheta
    dh = -np.outer(slope, c)
    dh[range(len(ci)), ci] += 1.0
    y = x.q[ci] - (q_r0[ci] + slope * (float(c @ x.q) - float(c @ q_r0)))
    ydot = dh @ x.qdot
    dtau_vc = -np.linalg.solve(dh @ B, gain.k * y + 2.0 * kappa * ydot)
    return float(np.linalg.norm(dtau_cpc - dtau_vc))
