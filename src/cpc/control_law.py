"""Coordinate splitting, time reparameterization and the path feedback law.

Given a torque-to-acceleration control matrix ``B`` (N x M, full column
rank), the configuration coordinates are split into M controlled ones, whose
rows of B form the invertible block ``B_chi``, and N-M free ones. The split
is the one place that decides that block: it picks the rows, runs the one
condition-number check on them, and keeps ``B_chi`` and the covector block
``b`` for every later solve, so no split with an unusable block exists. The
covector ``b`` annihilates B, so the projection ``b' q`` evolves
independently of the applied torques; matching that projection between the
current motion and a stored target trajectory yields a time offset ``t0``
and time scale ``s``, and feedback is applied only to the controlled
coordinates of the correspondingly renormalized target. This module owns
that renormalization and the errors that ranking and feedback both read.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import dynamics
from .errors import RankDeficient, SingularMatrix
from .target_store import DEFAULT_GUARD_TOL, _project_state

# Condition-number cap on B_chi B_chi': above it the controlled block is
# treated as singular instead of letting its solves return garbage.
DEFAULT_COND_CAP = 1e12


@dataclass(frozen=True)
class CoordSplit:
    """Split of the configuration coordinates of control matrix ``B`` into
    the given controlled rows and the remaining free rows (both ascending).

    Building a split checks B: it raises SingularMatrix when an entry is
    NaN or inf, or when cond(B_chi)^2 exceeds DEFAULT_COND_CAP. It then
    holds the block ``b_chi`` (M x M) and the covector block ``b``
    (N x (N-M)) with b' B = 0 and -I on the free rows. Equality compares
    the index tuples only.
    """

    B: InitVar[np.ndarray]
    controlled: tuple[int, ...]
    free: tuple[int, ...] = field(init=False)
    b_chi: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, B):
        B = np.atleast_2d(np.asarray(B, dtype=float))
        n, m = B.shape
        controlled = tuple(sorted(int(i) for i in self.controlled))
        if m == 0 or len(set(controlled)) != m or not set(controlled) <= set(range(n)):
            raise ValueError(f"need {m} distinct controlled rows of {n}, got {self.controlled}")
        rows = B.tolist()
        if not all(math.isfinite(x) for row in rows for x in row):
            raise SingularMatrix("control matrix is not finite")
        free = tuple(i for i in range(n) if i not in controlled)
        b_chi = np.array([rows[i] for i in controlled])
        if m == 1:
            # The one singular value of a 1 x 1 block is |beta| exactly, so
            # its condition number is 1 unless beta is zero.
            singular = b_chi[0, 0] == 0.0
        else:
            s = np.linalg.svd(b_chi, compute_uv=False)
            singular = s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > DEFAULT_COND_CAP
        if singular:
            raise SingularMatrix("controlled block of B is numerically singular")
        # W = B_psi B_chi^-1, shape (N-M, M).
        b_psi = np.array([rows[i] for i in free]).reshape(n - m, m)
        W = np.linalg.solve(b_chi.T, b_psi.T).T
        # b holds W' on the controlled rows and -I on the free rows, the
        # latter with -0.0 off the diagonal, as -np.eye has it.
        b_rows = [None] * n
        for i, w in zip(controlled, W.T.tolist()):
            b_rows[i] = w
        for j, i in enumerate(free):
            b_rows[i] = [-1.0 if k == j else -0.0 for k in range(n - m)]
        b = np.array(b_rows).reshape(n, n - m)
        for name, value in (("controlled", controlled), ("free", free), ("b_chi", b_chi), ("b", b)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GainSpec:
    """Feedback gain: k is the squared rate of the critically damped error
    dynamics, i.e. the proportional gain; the damping gain is 2 sqrt(k)."""

    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("gain k must be positive")

    @property
    def kappa(self) -> float:
        return math.sqrt(self.k)


def split_coordinates(B: np.ndarray) -> CoordSplit:
    """Split B's coordinates, choosing the M controlled rows by row-pivoted
    elimination.

    Pivot rows are picked greedily to maximize each pivot magnitude, which
    keeps the controlled block of B well conditioned. Deterministic: ties go
    to the lowest row index. Raises RankDeficient when a pivot vanishes and
    SingularMatrix when B is not finite or the chosen block fails the
    condition check.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    if m > n:
        raise ValueError("control matrix must have at least as many rows as columns")
    # The elimination runs on Python floats: every update is the IEEE
    # operation a numpy row update would do, so the same rows are picked.
    work = B.tolist()
    entries = [abs(x) for row in work for x in row]
    if not all(map(math.isfinite, entries)):
        raise SingularMatrix("control matrix is not finite")
    scale = max(entries)  # ValueError when B has no columns
    if scale == 0.0:
        raise RankDeficient("control matrix is zero")
    remaining = list(range(n))
    picked = []
    for col in range(m):
        sub = [abs(work[r][col]) for r in remaining]
        best = _first_argmax(sub)
        if sub[best] <= 1e-12 * scale:
            raise RankDeficient(f"column rank < {m}")
        row = remaining.pop(best)
        picked.append(row)
        if col + 1 == m:
            break
        pivot_row = work[row]
        pivot = pivot_row[col]
        for r in remaining:
            w = work[r]
            factor = w[col] / pivot
            for c in range(col, m):
                w[c] = w[c] - factor * pivot_row[c]
    return CoordSplit(B, tuple(picked))


def _first_argmax(values: list) -> int:
    """np.argmax's rule on a list of floats: the index of the first NaN if
    there is one, else of the first largest value."""
    best = 0
    for i, v in enumerate(values):
        if v != v:
            return i
        if v > values[best]:
            best = i
    return best


def reparam_params(
    x0: dynamics.State,
    xd: dynamics.State,
    b: np.ndarray,
    guard_tol: float = DEFAULT_GUARD_TOL,
) -> tuple[float, float]:
    """Time offset t0 and scale s aligning the target's unactuated motion
    with the current one, for a covector ``b`` with one column.

    Applies retrieval's rule: raises VelocityBarDegenerate when either
    projected velocity |b . qdot| is at most ``guard_tol``, and ValueError
    when b has more than one column.
    """
    b, qbar0, qdbar0 = _project_state(b, x0, guard_tol)
    _, qbard, qdbard = _project_state(b, xd, guard_tol)
    return (qbard - qbar0) / qdbar0, qdbard / qdbar0


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


def estimate_control_matrix(
    taus: np.ndarray,
    us: np.ndarray,
    ridge: float = 1e-8,
) -> np.ndarray:
    """Regress the control matrix from recorded (torque, acceleration) pairs.

    Minimizes sum_i ||u_i - B tau_i||^2 (+ ridge penalty) over the N x M
    matrix B. With ridge=0 the torques must have full column rank;
    otherwise RankDeficient is raised. A NaN or inf torque also raises
    RankDeficient.
    """
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    if taus.shape[0] != us.shape[0]:
        raise ValueError("torque and acceleration histories differ in length")
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    if not all(map(math.isfinite, taus.flat)):
        raise RankDeficient("torque history is not finite")
    u, s, vt = np.linalg.svd(taus, full_matrices=False)
    if ridge == 0.0:
        if not (len(s) == taus.shape[1] and s[0] > 0.0 and s[-1] > s[0] * 1e-12):
            raise RankDeficient("torques are numerically rank deficient and ridge=0")
        filt = 1.0 / s
    else:
        filt = s / (s * s + ridge)
    # (vt' diag(filt) u') us is the transposed B, mapping tau to u.
    return ((vt.T * filt) @ (u.T @ us)).T
