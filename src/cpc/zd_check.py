"""Virtual-constraint feedback and its agreement with the path law.

A virtual constraint pins the controlled coordinates to an affine function
of a scalar phasing variable theta = c' q. Driving the constraint output to
zero with exact dynamics is the classical output-linearization route; with
the phasing covector proportional to the unactuated covector and the
constraint built from the renormalized target, its feedback term agrees with
the path feedback in the high-gain regime. ``correspondence_gap`` measures
that agreement; both sides take the controlled block and the covector from
the coordinate split of the exact control matrix, so they share its one
conditioning check. Everything here needs the exact model and is intended
for verification, not for the runtime loop.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control_law import (
    CoordSplit,
    GainSpec,
    cpc_tau,
    renormalized_target,
    reparam_params,
    split_coordinates,
)
from .dynamics import ChainParams, State, exact_control_matrix
from .errors import PhasingDegenerate


@dataclass(frozen=True)
class VirtualConstraint:
    """Affine constraint chi = chi0 + slope * (theta - theta0), theta = c' q."""

    c: np.ndarray
    controlled: tuple[int, ...]
    chi0: np.ndarray
    slope: np.ndarray
    theta0: float

    def jacobian(self, n: int) -> np.ndarray:
        """Constant d(output)/dq = S_chi - slope c'."""
        dh = -np.outer(self.slope, self.c)
        for row, ci in enumerate(self.controlled):
            dh[row, ci] += 1.0
        return dh

    def output(self, q: np.ndarray) -> np.ndarray:
        theta = float(self.c @ q)
        return q[list(self.controlled)] - (self.chi0 + self.slope * (theta - self.theta0))


def build_constraint(xd: State, split: CoordSplit, c: np.ndarray) -> VirtualConstraint:
    """Affine constraint through the target state, phased by theta = c' q.

    The covector is normalized to unit length first; the controller is
    invariant to that scaling since the slope rescales inversely.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    norm = np.linalg.norm(c)
    if norm == 0.0:
        raise PhasingDegenerate("zero phasing covector")
    c = c / norm
    dtheta = float(c @ xd.qdot)
    if abs(dtheta) < 1e-12:
        raise PhasingDegenerate("phasing covector orthogonal to the target velocity")
    ci = list(split.controlled)
    return VirtualConstraint(
        c=c,
        controlled=tuple(split.controlled),
        chi0=xd.q[ci].copy(),
        slope=xd.qdot[ci] / dtheta,
        theta0=float(c @ xd.q),
    )


def correspondence_gap(
    params: ChainParams,
    x: State,
    xd: State,
    epsilon: float,
    k_p: float = 1.0,
    c: Optional[np.ndarray] = None,
) -> float:
    """Norm of the difference between the path feedback and the constraint
    feedback at the given state and gain scale.

    The path side uses the exact control matrix at ``x`` with the covector
    and reparameterization computed there. The constraint side phases by the
    target configuration's unactuated covector (or an explicit ``c``) and is
    built from the renormalized target, then evaluated at ``x``.
    """
    B = exact_control_matrix(params, x.q)
    split = split_coordinates(B)
    rep = reparam_params(x, xd, split.b)
    kappa = np.sqrt(k_p) / epsilon
    gain = GainSpec(kappa * kappa)
    m = len(split.controlled)
    dtau_cpc = cpc_tau(x, xd, split, rep, gain, np.zeros(m))

    if c is None:
        c = split_coordinates(exact_control_matrix(params, xd.q)).b[:, 0]
    q_r0, qdot_r = renormalized_target(xd, rep)
    vc = build_constraint(State(q_r0, qdot_r), split, c)
    dh = vc.jacobian(params.n_links)
    A = dh @ B
    y = vc.output(x.q)
    ydot = dh @ x.qdot
    dtau_vc = -np.linalg.solve(A, gain.k * y + 2.0 * kappa * ydot)
    return float(np.linalg.norm(dtau_cpc - dtau_vc))
