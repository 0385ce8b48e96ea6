"""Coordinate splitting, time reparameterization and the path feedback law.

The law controls chains with one unactuated direction: the
torque-to-acceleration control matrix ``B`` is N x (N-1), and any other
shape raises ValueError. The controlled coordinates are the chain's
actuated joints, whose rows of B form the block ``B_chi``; the unactuated
joint is the free one. For the exact model B = D^-1 B_tau, so ``B_chi`` is
a principal block of the SPD matrix D^-1 (up to the order of its columns)
and is invertible in every state. An estimated B is rejected only by the
split's own checks. The split is the one place that cuts that block: it
runs the one condition-number check on it and keeps ``B_chi`` and the (N,)
covector ``b`` for every later solve. ``b`` annihilates B, so the
projection ``b . q`` evolves independently of the applied torques; matching
it between the current motion and a stored target yields a time offset
``t0`` and time scale ``s`` (retrieval computes both), and feedback acts
only on the controlled coordinates of the renormalized target. This module
owns that renormalization and the errors that ranking and feedback read.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import dynamics
from .dynamics import _FLOAT_LANES, _lane_solve
from .errors import RankDeficient, SingularMatrix
from .target_store import _ONE_DIRECTION

# Condition-number cap on B_chi B_chi': above it the controlled block is
# treated as singular instead of letting its solves return garbage.
DEFAULT_COND_CAP = 1e12
# Ridge penalty of the B regression.
RIDGE = 1e-8


@dataclass(frozen=True)
class CoordSplit:
    """Split of the rows of an N x (N-1) control matrix ``B`` into the given
    controlled rows (ascending) and the one free row. The controller passes
    the chain's actuated joints as the controlled rows.

    Building a split checks B, and these checks are the only rule that
    rejects one: it raises ValueError for any other shape or for rows that
    are not N-1 distinct indices in range, and SingularMatrix when an entry
    is NaN or inf, when the block is zero at M = 1, when cond(B_chi)^2
    exceeds DEFAULT_COND_CAP at M >= 2, or when an entry of the covector
    overflows, at any M. It then holds the block ``b_chi`` (M x M) and the
    covector ``b`` (N,) with b' B = 0: W = B_free B_chi^-1 on the controlled
    rows and -1.0 on the free row. Equality compares the rows only.
    """

    B: InitVar[np.ndarray]
    controlled: tuple[int, ...]
    free: int = field(init=False)
    b_chi: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, B):
        B = np.atleast_2d(np.asarray(B, dtype=float))
        n, m = B.shape
        if n - m != 1:
            raise ValueError(_ONE_DIRECTION)
        controlled = tuple(sorted(int(i) for i in self.controlled))
        if m == 0 or len(set(controlled)) != m or not set(controlled) <= set(range(n)):
            raise ValueError(f"need {m} distinct controlled rows of {n}, got {self.controlled}")
        rows = B.tolist()
        if not all(math.isfinite(x) for row in rows for x in row):
            raise SingularMatrix("control matrix is not finite")
        (free,) = set(range(n)).difference(controlled)
        if m == 1:
            # The one singular value of a 1 x 1 block is |beta| exactly, so
            # its condition number is 1 unless beta is zero; LAPACK's solve
            # with one right-hand side is then one division.
            beta = rows[controlled[0]][0]
            if beta == 0.0:
                raise SingularMatrix("controlled block of B is numerically singular")
            b_chi = np.array([[beta]])
            w = [rows[free][0] / beta]
        else:
            b_chi = np.array([rows[i] for i in controlled])
            s = np.linalg.svd(b_chi, compute_uv=False)
            if s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > DEFAULT_COND_CAP:
                raise SingularMatrix("controlled block of B is numerically singular")
            # W = B_free B_chi^-1 solves B_chi' W' = B_free'.
            w = np.linalg.solve(b_chi.T, np.array(rows[free])).tolist()
        if not all(map(math.isfinite, w)):
            raise SingularMatrix("covector of B is not finite")
        b = np.array(w[:free] + [-1.0] + w[free:])
        for name, value in (("controlled", controlled), ("free", free), ("b_chi", b_chi), ("b", b)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GainSpec:
    """Feedback gain: k is the squared rate of the critically damped error
    dynamics, i.e. the proportional gain; the damping gain is 2 sqrt(k)."""

    k: float

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError(f"gain k must be positive and finite, got {self.k!r}")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.k)


def renormalized_target(
    q_d: np.ndarray, qdot_d: np.ndarray, t0: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start q_r0 and velocity qdot_r (n, N) of the linear targets q_r0 + qdot_r t
    reparameterizing target states (n, N) by time offsets and scales (n,)."""
    if not np.all(s):
        raise ValueError("time scale s must be nonzero")
    return q_d - qdot_d * (t0 / s)[:, None], qdot_d / s[:, None]


def target_errors(
    x0: dynamics.State,
    q_d: np.ndarray,
    qdot_d: np.ndarray,
    t0: np.ndarray,
    s: np.ndarray,
    split: CoordSplit,
) -> tuple[np.ndarray, np.ndarray]:
    """Errors (dchi, dchidot), each (n, M), of the current state against
    each renormalized target, in the split's controlled coordinates. Only
    the controlled columns of the targets are renormalized."""
    ci = list(split.controlled)
    q_r0, qdot_r = renormalized_target(q_d[:, ci], qdot_d[:, ci], t0, s)
    return x0.q[ci] - q_r0, x0.qdot[ci] - qdot_r


def cpc_tau(
    dchi: np.ndarray, dchidot: np.ndarray, split: CoordSplit, gain: GainSpec, tau_d: np.ndarray
) -> np.ndarray:
    """Path feedback law for one target: tau_d minus critically damped
    feedback B_chi^-1 (k dchi + 2 kappa dchidot) on its (M,) errors.

    A single actuator takes the same law on Python floats: LAPACK's 1 x 1
    solve with one right-hand side is one division, so the torque is the
    same to the bit and skips the solver's per-call set-up."""
    if len(split.controlled) == 1:
        fb = gain.k * float(dchi[0]) + 2.0 * gain.kappa * float(dchidot[0])
        return np.asarray(tau_d, dtype=float) - fb / float(split.b_chi[0, 0])
    fb = gain.k * dchi + 2.0 * gain.kappa * dchidot
    return np.asarray(tau_d, dtype=float) - np.linalg.solve(split.b_chi, fb)


def estimate_control_matrix(taus: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Regress the control matrix from recorded (torque, acceleration) pairs.

    Minimizes sum_i ||u_i - B tau_i||^2 + RIDGE ||B||^2 over the N x M
    matrix B. The ridge is one fixed value because every run uses it: it
    keeps the solve defined when the window's torques are rank deficient
    (an all-zero window gives B = 0, which the coordinate split rejects),
    and it shrinks B along each singular value s of the torques by
    s^2 / (s^2 + RIDGE), about 4e-6 relative for seven bootstrap torques of
    scale 0.02. B solves the normal equations (T'T + RIDGE I) B' = T'U of
    the windows T = taus and U = us on Python floats, summed over the window
    in order and factored once for all columns of U, so it does not depend
    on the BLAS build. A NaN or inf torque, or a Cholesky pivot that is not
    positive, raises RankDeficient.
    """
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    if taus.shape[0] != us.shape[0]:
        raise ValueError("torque and acceleration histories differ in length")
    t_cols, u_cols = taus.T.tolist(), us.T.tolist()
    if not all(math.isfinite(x) for col in t_cols for x in col):
        raise RankDeficient("torque history is not finite")
    # The solve reads only the lower triangle, so each Gram entry is formed once.
    gram = [[_dot(a, b) for b in t_cols[: i + 1]] for i, a in enumerate(t_cols)]
    for i, row in enumerate(gram):
        row[i] = row[i] + RIDGE
    try:
        B = _lane_solve(_FLOAT_LANES, gram, [[_dot(t, u) for t in t_cols] for u in u_cols])
    except (ValueError, ZeroDivisionError) as e:
        raise RankDeficient("torque window's normal matrix is not positive definite") from e
    return np.array(B)


def _dot(x, y):
    """Dot product of two lists of floats, summed left to right; builtin
    sum compensates its rounding from Python 3.12 on."""
    s = 0.0
    for a, b in zip(x, y):
        s = s + a * b
    return s
