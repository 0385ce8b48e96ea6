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
covector ``b``. Every solve with ``B_chi`` at M >= 2 is ``_solve``'s
elimination on Python floats, so none depends on the BLAS build; at
M = 1 it is one division. ``b`` annihilates B, so the projection ``b . q``
evolves independently of the applied torques; matching it between the
current motion and a stored target yields a time offset ``t0`` and time
scale ``s`` (retrieval computes both), and feedback acts only on the
controlled coordinates of the renormalized target, whose errors
``target_store.target_errors`` gathers for ranking and for this law.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .dynamics import _dot, _lane_solve
from .errors import RankDeficient, SingularMatrix
from .target_store import _ONE_DIRECTION

# Cap on B_chi's squared Frobenius condition number (never below the squared
# 2-norm one, at most M^2 times it): above it B_chi is treated as singular.
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
    is NaN or inf, when the block is zero at M = 1, when at M >= 2 a pivot
    is zero or (|B_chi|_F |B_chi^-1|_F)^2 exceeds DEFAULT_COND_CAP, or when
    an entry of the covector overflows. This Frobenius rule never accepts a
    block that the same cap on the SVD's cond(B_chi)^2 rejects, and may
    reject one whose cond(B_chi)^2 is up to M^2 times smaller. It then holds
    the block ``b_chi`` (M x M) and the covector ``b`` (N,) with b' B = 0:
    W = B_free B_chi^-1 on the controlled rows and -1.0 on the free row.
    Equality compares the rows only.
    """

    B: InitVar[np.ndarray]
    controlled: tuple[int, ...]
    free: int = field(init=False)
    b_chi: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, B):
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] - B.shape[1] != 1:
            raise ValueError(_ONE_DIRECTION)
        n, m = B.shape
        controlled = tuple(sorted(map(int, self.controlled)))
        # Exactly one row is left over iff the m given rows are distinct and in range.
        free = [i for i in range(n) if i not in controlled]
        if m == 0 or len(controlled) != m or len(free) != 1:
            raise ValueError(f"need {m} distinct controlled rows of {n}, got {self.controlled}")
        (free,) = free
        flat = B.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            raise SingularMatrix("control matrix is not finite")
        if m == 1:
            # The one singular value of a 1 x 1 block is |beta| exactly, so
            # its condition number is 1 unless beta is zero; LAPACK's solve
            # with one right-hand side is then one division.
            beta = flat[controlled[0]]
            if beta == 0.0:
                raise SingularMatrix("controlled block of B is numerically singular")
            b_chi = np.array([[beta]])
            w = [flat[free] / beta]
        else:
            rows = B.tolist()
            block = [rows[i] for i in controlled]
            # B_chi' W' = B_free' and B_chi' x_i = e_i (row i of B_chi^-1).
            w, *inv = _solve([list(c) for c in zip(*block)], [rows[free]] + np.eye(m).tolist())
            kappa = math.hypot(*sum(block, [])) * math.hypot(*sum(inv, []))  # no over/underflow
            if not kappa * kappa <= DEFAULT_COND_CAP:
                raise SingularMatrix("controlled block of B is numerically singular")
            b_chi = np.array(block)
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


def cpc_tau(
    dchi: np.ndarray, dchidot: np.ndarray, split: CoordSplit, gain: GainSpec, tau_d: np.ndarray
) -> np.ndarray:
    """Path feedback law for one target: tau_d minus critically damped
    feedback B_chi^-1 (k dchi + 2 kappa dchidot) on its (M,) errors.

    At M >= 2 the law solves with ``_solve``. A single actuator divides on
    Python floats, which gives the bits of LAPACK's 1 x 1 solve and skips
    the elimination's set-up."""
    if len(split.controlled) == 1:
        fb = gain.k * float(dchi[0]) + 2.0 * gain.kappa * float(dchidot[0])
        return np.asarray(tau_d, dtype=float) - fb / float(split.b_chi[0, 0])
    fb = gain.k * dchi + 2.0 * gain.kappa * dchidot
    return np.asarray(tau_d, dtype=float) - np.array(_solve(split.b_chi.tolist(), [fb.tolist()])[0])


def estimate_control_matrix(t_cols, u_cols) -> np.ndarray:
    """Regress the control matrix from recorded (torque, acceleration) pairs.

    Minimizes sum_i ||u_i - B tau_i||^2 + RIDGE ||B||^2 over the N x M
    matrix B. The ridge is one fixed value because every run uses it: it
    keeps the solve defined when the window's torques are rank deficient
    (an all-zero window gives B = 0, which the coordinate split rejects),
    and it shrinks B along each singular value s of the torques by
    s^2 / (s^2 + RIDGE), about 4e-6 relative for seven bootstrap torques of
    scale 0.02. B solves the normal equations (T'T + RIDGE I) B' = T'U of
    the windows T and U, given as their M and N columns of Python floats
    (unequal lengths raise ValueError), summed over the window in order and
    factored once for all columns of U, so it does not depend on the BLAS
    build. A NaN or inf torque, or a pivot not positive, raises RankDeficient.

    At M = 1 the Cholesky factor of the 1 x 1 Gram matrix is r =
    sqrt(sum t^2 + RIDGE), and its two triangular solves give each entry
    of B as (sum t u_j / r) / r: the solve's own operations in closed form,
    so the bits are the same. The pivot is at least RIDGE, or +inf when the
    sum of squares overflows (then a finite sum t u_j gives 0), so the M = 1
    form cannot fail.
    """
    if len({len(col) for col in (*t_cols, *u_cols)}) != 1:
        raise ValueError("torque and acceleration histories differ in length")
    if not all(math.isfinite(x) for col in t_cols for x in col):
        raise RankDeficient("torque history is not finite")
    if len(t_cols) == 1:
        (t,) = t_cols
        r = math.sqrt(_dot(t, t) + RIDGE)
        return np.array([[_dot(t, u) / r / r] for u in u_cols])
    # The solve reads only the lower triangle, so each Gram entry is formed once.
    gram = [[_dot(a, b) for b in t_cols[: i + 1]] for i, a in enumerate(t_cols)]
    for i, row in enumerate(gram):
        row[i] = row[i] + RIDGE
    try:
        B = _lane_solve(math, gram, [[_dot(t, u) for t in t_cols] for u in u_cols])
    except (ValueError, ZeroDivisionError) as e:
        raise RankDeficient("torque window's normal matrix is not positive definite") from e
    return np.array(B)


def _solve(A, rhss):
    """Solve A x = rhs for each rhs in ``rhss`` by Gaussian elimination on
    Python floats, pivoting on the first entry of largest magnitude. A is M
    lists of M floats; each rhs, and each x returned, is M lanes, floats or
    equal-length arrays, none updated in place. A zero pivot raises
    SingularMatrix."""
    m = len(A)
    A, xs = [list(row) for row in A], [list(rhs) for rhs in rhss]
    for j in range(m):
        p = max(range(j, m), key=lambda i: abs(A[i][j]))
        if A[p][j] == 0.0:
            raise SingularMatrix("controlled block of B is numerically singular")
        for rows in [A] + xs:
            rows[j], rows[p] = rows[p], rows[j]
        for i in range(j + 1, m):
            f = A[i][j] / A[j][j]
            A[i] = [a - f * b for a, b in zip(A[i], A[j])]
            for x in xs:
                x[i] = x[i] - f * x[j]
    for x in xs:
        for i in range(m - 1, -1, -1):
            for k in range(i + 1, m):
                x[i] = x[i] - A[i][k] * x[k]
            x[i] = x[i] / A[i][i]
    return xs
